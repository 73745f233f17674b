package flsim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/hier"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
)

// shardRange returns shard s's contiguous client range [lo, hi): the
// fleet is partitioned in index order, so device names, profiles, and
// update values line up exactly with the flat run of the same
// scenario.
func shardRange(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// overrideShardProfiles applies per-shard straggler/failure fractions
// on top of the fleet-wide assignment: each overridden shard redraws
// its roles from a per-shard seeded RNG, so heterogeneous edge
// profiles stay deterministic.
func overrideShardProfiles(sc *Scenario, profiles []Profile) {
	if len(sc.ShardStragglers) == 0 && len(sc.ShardFailures) == 0 {
		return
	}
	for s := 0; s < sc.Shards; s++ {
		lo, hi := shardRange(sc.Clients, sc.Shards, s)
		size := hi - lo
		sf := sc.StragglerFraction
		if len(sc.ShardStragglers) > 0 {
			sf = sc.ShardStragglers[s]
		}
		ff := sc.FailureFraction
		if len(sc.ShardFailures) > 0 {
			ff = sc.ShardFailures[s]
		}
		for i := lo; i < hi; i++ {
			profiles[i].Straggler = false
			profiles[i].FailRound = -1
		}
		rng := rand.New(rand.NewSource(sc.Seed ^ (int64(s)+1)*0x9e3779b9))
		order := rng.Perm(size)
		stragglers := int(float64(size)*sf + 0.5)
		failers := int(float64(size)*ff + 0.5)
		if stragglers+failers > size {
			failers = size - stragglers
		}
		for k := 0; k < stragglers; k++ {
			profiles[lo+order[k]].Straggler = true
		}
		for k := stragglers; k < stragglers+failers; k++ {
			profiles[lo+order[k]].FailRound = rng.Intn(sc.Rounds)
		}
	}
}

// hierWait advances the shared virtual clock once every shard with a
// round in flight is blocked on its deadline — all its answering
// sampled clients have folded (or been quarantined) and only stragglers
// remain — the multi-shard generalisation of the flat harness's wait
// accounting. A shard that is still folding, or has moved on to mask
// reconciliation, holds the clock: reconciliation arms its own deadline
// timer on the same clock, and an advance meant for another shard's
// stragglers would expire it before the survivors could answer. The
// same goes for a shard the root has addressed but that has not
// announced its round yet: its deadline timer is armed before its
// RoundStarted hook fires, so the clock also waits until every
// addressed shard has checked in. Hooks fire from the root's and every
// edge's round goroutine, so the state is mutex-guarded.
type hierWait struct {
	mu       sync.Mutex
	clk      *simclock.Virtual
	deadline time.Duration
	shards   []shardWait
	// addressed is the number of shards the root sent the fleet round
	// to; started counts those that have announced it.
	addressed, started int
}

// shardWait is one shard's round in flight, from RoundStarted to
// RoundClosed.
type shardWait struct {
	open        bool
	outstanding int // sampled clients that will answer and have not yet
	stragglers  int // sampled clients that never answer; 0 once their deadline fired
}

func (w *hierWait) maybeAdvance() {
	if w.started < w.addressed {
		return
	}
	blocked := false
	for i := range w.shards {
		sh := &w.shards[i]
		if !sh.open {
			continue
		}
		if sh.outstanding > 0 || sh.stragglers == 0 {
			return // still folding, or reconciling
		}
		blocked = true
	}
	if !blocked {
		return
	}
	for i := range w.shards {
		w.shards[i].stragglers = 0
	}
	w.clk.Advance(w.deadline)
}

func (w *hierWait) fleetRoundStarted(addressed int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.addressed, w.started = addressed, 0
}

func (w *hierWait) roundStarted(shard, stragglers, answering int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shards[shard] = shardWait{open: true, outstanding: answering, stragglers: stragglers}
	w.started++
	w.maybeAdvance()
}

func (w *hierWait) drained(shard int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shards[shard].outstanding--
	w.maybeAdvance()
}

func (w *hierWait) roundClosed(shard int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shards[shard].open = false
	w.maybeAdvance()
}

// runHier executes a multi-tier scenario: the fleet is partitioned
// into sc.Shards contiguous shards, each served by a hier.Edge running
// the full round protocol over fl.Pipe, and a hier.Root folds one
// partial per shard per round. Called by Run when sc.Shards > 1.
func runHier(sc Scenario, profiles []Profile) (*Result, error) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	start := clk.Now()

	var planner fl.RoundPlanner = sc.Planner
	if planner == nil && len(sc.Protect) > 0 {
		pm := make(staticProtect, len(sc.Protect))
		for _, id := range sc.Protect {
			pm[id] = true
		}
		planner = pm
	}

	verifier := tz.NewVerifier()
	shapes := make([][]int, len(sc.Model))
	for i, t := range sc.Model {
		shapes[i] = t.Shape
	}

	wait := &hierWait{clk: clk, deadline: sc.Deadline, shards: make([]shardWait, sc.Shards)}
	byDevice := make(map[string]*simClient, sc.Clients)
	var mu sync.Mutex
	var quarantined []string
	shardHooks := func(shard int) fl.Hooks {
		sanctioned := func(device string, _ error) {
			mu.Lock()
			quarantined = append(quarantined, device)
			mu.Unlock()
			wait.drained(shard)
		}
		return fl.Hooks{
			RoundStarted: func(round int, sampled []string) {
				stragglers, answering := 0, 0
				for _, d := range sampled {
					if byDevice[d].profile.Straggler {
						stragglers++
					} else {
						answering++
					}
				}
				wait.roundStarted(shard, stragglers, answering)
			},
			UpdateFolded:      func(int, string) { wait.drained(shard) },
			ClientQuarantined: sanctioned,
			ClientProbationed: sanctioned,
			RoundClosed:       func(fl.RoundStats) { wait.roundClosed(shard) },
		}
	}

	edges := make([]*hier.Edge, sc.Shards)
	edgeConns := make([]fl.Conn, sc.Shards)
	var edgeMetrics []*obs.Registry
	if sc.FleetTelemetry {
		edgeMetrics = make([]*obs.Registry, sc.Shards)
	}
	var fleet sync.WaitGroup
	for s := 0; s < sc.Shards; s++ {
		lo, hi := shardRange(sc.Clients, sc.Shards, s)
		clientConns := make([]fl.Conn, 0, hi-lo)
		for i := lo; i < hi; i++ {
			c, serverConn, err := buildClient(i, profiles[i], shapes, sc.Seed, verifier)
			if err != nil {
				return nil, err
			}
			c.positive = sc.PositiveDeltas
			byDevice[c.profile.Device] = c
			clientConns = append(clientConns, serverConn)
			fleet.Add(1)
			go func(c *simClient) {
				defer fleet.Done()
				c.run()
			}(c)
		}
		// The edge owns a model-shaped scratch state; values are
		// overwritten by the root's broadcast every round.
		edgeState := make([]*tensor.Tensor, len(sc.Model))
		for i, t := range sc.Model {
			edgeState[i] = tensor.New(t.Shape...)
		}
		scfg := fl.ServerConfig{
			MinClients:       sc.MinClients,
			SampleCount:      sc.SampleCount,
			SampleFraction:   sc.SampleFraction,
			SampleSeed:       sc.Seed + int64(s) + 1,
			RoundDeadline:    sc.Deadline,
			RequireTEE:       sc.RequireTEE,
			Verifier:         verifier,
			Codec:            sc.Codec,
			QuarantineRounds: sc.QuarantineRounds,
			Planner:          planner,
			Clock:            clk,
			Hooks:            shardHooks(s),
		}
		if sc.FleetTelemetry {
			// A private per-shard registry: its deltas ride each PartialUp
			// upstream and fold into sc.Metrics at the root.
			edgeMetrics[s] = obs.NewRegistry()
			scfg.Metrics = edgeMetrics[s]
		}
		if len(sc.EdgeSpans) > 0 {
			scfg.Spans = obs.NewTraceSink(sc.EdgeSpans[s], clk)
		}
		edge := hier.NewEdge(edgeState, hier.EdgeConfig{
			Name:     fmt.Sprintf("edge-%03d", s),
			MaxCodec: sc.Codec,
			Server:   scfg,
		})
		edges[s] = edge
		rootSide, edgeSide := fl.Pipe()
		edgeConns[s] = rootSide
		fleet.Add(1)
		go func(edge *hier.Edge, upstream fl.Conn, clients []fl.Conn) {
			defer fleet.Done()
			_ = edge.Run(upstream, clients) // shard loss degrades the root, never the harness
		}(edge, edgeSide, clientConns)
	}

	root := hier.NewRoot(sc.Model, hier.RootConfig{
		Rounds:     sc.Rounds,
		MinShards:  sc.MinShards,
		SecAgg:     sc.SecAgg,
		MaskDegree: sc.MaskDegree,
		Codec:      sc.Codec,
		Clock:      clk,
		Metrics:    sc.Metrics,
		Spans:      obs.NewTraceSink(sc.Spans, clk),
		Hooks: hier.Hooks{RoundStarted: func(_ int, shards []string) {
			wait.fleetRoundStarted(len(shards))
		}},
	})
	_, runErr := root.Run(edgeConns)
	fleet.Wait()

	sort.Strings(quarantined) // arrival order within a round can race; the set cannot

	selected := 0
	for _, e := range edges {
		selected += e.Selected
	}
	res := &Result{
		Selected:    selected,
		Rejected:    sc.Clients - selected,
		Trace:       root.Trace(),
		Final:       sc.Model,
		Profiles:    profiles,
		Quarantined: quarantined,
		Elapsed:     clk.Now().Sub(start),
		Idle:        idleFromTrace(root.Trace(), sc.Deadline),
		EdgeMetrics: edgeMetrics,
	}
	return res, runErr
}

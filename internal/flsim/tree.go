package flsim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/hier"
	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
)

// tierOpts are the fault-injection knobs of one simulated process — the
// flat server, the hierarchy root, or one edge. Zero opts run it
// plainly.
type tierOpts struct {
	// journal, when non-empty, is the path of the tier's write-ahead
	// log: created fresh, or — with recover — replayed to rebuild the
	// tier (fl.Recover and its hier wrappers) and then appended to.
	journal string
	recover bool
	// crash, when set, panics out of the tier's round goroutine at the
	// configured point; the tier is aborted — the moral equivalent of
	// the process dying — and a crashed flat server or root ends the
	// run with ErrSimCrash.
	crash *CrashSpec
}

func (o tierOpts) openJournal() (*journal.Journal, error) {
	switch {
	case o.journal == "":
		return nil, nil
	case o.recover:
		return journal.Append(o.journal)
	}
	return journal.Create(o.journal)
}

func closeJournal(j *journal.Journal) {
	if j != nil {
		_ = j.Close()
	}
}

// treeOpts is everything a fault harness changes about a session; the
// scenario decides the rest. Zero opts run the scenario plainly.
type treeOpts struct {
	// root configures the flat server, or the root of a hierarchy.
	root tierOpts
	// edge, when set, configures each shard's edge.
	edge func(shard int) tierOpts
	// edgeDown, when set, is called once an edge's injected crash has
	// torn it down and its journal is flushed.
	edgeDown func(shard int)
	// roundStarted, when set, runs on the root's round goroutine once a
	// round is open, before its broadcast — where a harness severs a
	// link.
	roundStarted func(t *tree, round int)
	// rejoin, when set, is the root's RootConfig.Rejoin poll.
	rejoin func(t *tree, round int) []fl.Conn
}

// tree is one simulated federation: a flat server, or a root over one
// edge per shard, above a fleet of real fl.Clients — the only place the
// engine's configuration is derived from the scenario.
type tree struct {
	fleet
	opt        treeOpts
	epoch      time.Time
	wait       *hierWait
	planner    fl.RoundPlanner
	enclave    *secagg.Enclave
	stragglers map[string]bool // devices that never answer inside the deadline

	mu          sync.Mutex
	quarantined []string

	// Hierarchies only, in shard order.
	edges       []*hier.Edge
	edgeConns   []fl.Conn // the root's side of each edge's uplink
	edgeMetrics []*obs.Registry
}

// runTree executes a validated scenario over the given profiles.
func runTree(sc Scenario, profiles []Profile, opt treeOpts) (*Result, error) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	shards := max(sc.Shards, 1)
	t := &tree{
		fleet:      fleet{sc: &sc, profiles: profiles, verifier: tz.NewVerifier(), clk: clk},
		opt:        opt,
		epoch:      clk.Now(),
		wait:       &hierWait{clk: clk, deadline: sc.Deadline, shards: make([]shardWait, shards)},
		planner:    sc.Planner,
		stragglers: make(map[string]bool),
	}
	for _, p := range profiles {
		if p.Straggler {
			t.stragglers[p.Device] = true
		}
	}
	if t.planner == nil && len(sc.Protect) > 0 {
		pm := make(staticProtect, len(sc.Protect))
		for _, id := range sc.Protect {
			pm[id] = true
		}
		t.planner = pm
	}
	if sc.SecAgg && len(sc.Protect) > 0 {
		var err error
		if t.enclave, err = secagg.NewEnclave("flsim-aggregator"); err != nil {
			return nil, fmt.Errorf("flsim: booting aggregation enclave: %w", err)
		}
		defer t.enclave.Close()
	}

	if sc.Shards <= 1 {
		return t.runFlat()
	}
	t.edges = make([]*hier.Edge, shards)
	t.edgeConns = make([]fl.Conn, shards)
	if sc.FleetTelemetry {
		t.edgeMetrics = make([]*obs.Registry, shards)
	}
	return t.runHier()
}

// result assembles the session's outcome once every tier has stopped.
func (t *tree) result(selected int, trace []fl.RoundStats) *Result {
	sort.Strings(t.quarantined) // arrival order within a round can race; the set cannot
	res := &Result{
		Selected:    selected,
		Rejected:    t.sc.Clients - selected,
		Trace:       trace,
		Final:       t.sc.Model,
		Profiles:    t.profiles,
		Quarantined: t.quarantined,
		Elapsed:     t.clk.Now().Sub(t.epoch),
		Idle:        idleFromTrace(trace, t.sc.Deadline),
		EdgeMetrics: t.edgeMetrics,
	}
	if t.enclave != nil {
		res.EnclaveSMCs = t.enclave.Device().SMCCount()
	}
	return res
}

// serverCfg derives the round-engine configuration for shard's server —
// the flat server itself, or an edge's shard engine — from the
// scenario.
func (t *tree) serverCfg(shard int, opt tierOpts, j *journal.Journal) fl.ServerConfig {
	sc := t.sc
	aggMethod, _ := fl.ParseAggMethod(sc.Aggregation) // validated
	hooks := t.shardHooks(shard)
	if opt.crash != nil {
		hooks = installCrash(hooks, *opt.crash)
	}
	cfg := fl.ServerConfig{
		Rounds:         sc.Rounds, // an edge ignores it: the root paces rounds
		MinClients:     sc.MinClients,
		SampleCount:    sc.SampleCount,
		SampleFraction: sc.SampleFraction,
		SampleSeed:     sc.Seed,
		RoundDeadline:  sc.Deadline,
		RequireTEE:     sc.RequireTEE,
		Verifier:       t.verifier,
		Codec:          sc.Codec,
		SecAgg:         sc.SecAgg,
		// Spelled out because a recovered edge compares the root's
		// announced precision against this config as written.
		SecAggScaleBits:  secagg.DefaultScaleBits,
		MaskDegree:       sc.MaskDegree,
		Enclave:          t.enclave,
		QuarantineRounds: sc.QuarantineRounds,
		Aggregation:      aggMethod,
		TrimFraction:     sc.TrimFraction,
		Planner:          t.planner,
		Clock:            t.clk,
		Hooks:            hooks,
		Journal:          j,
	}
	if sc.Shards <= 1 {
		cfg.Metrics = sc.Metrics
		cfg.Spans = obs.NewTraceSink(sc.Spans, t.clk)
		return cfg
	}
	// The root owns the scenario's registry and span stream; an edge
	// gets its own of each, when the scenario asks for them.
	cfg.SampleSeed = sc.Seed + int64(shard) + 1
	if t.edgeMetrics != nil {
		cfg.Metrics = t.edgeMetrics[shard]
	}
	if len(sc.EdgeSpans) > 0 {
		cfg.Spans = obs.NewTraceSink(sc.EdgeSpans[shard], t.clk)
	}
	return cfg
}

// shardHooks ride the engine hooks (all fired from the shard's round
// goroutine) to keep the quarantine log and tell the wait accounting
// how many sampled clients will still answer.
func (t *tree) shardHooks(shard int) fl.Hooks {
	sanctioned := func(device string, _ error) {
		t.mu.Lock()
		t.quarantined = append(t.quarantined, device)
		t.mu.Unlock()
		t.wait.drained(shard)
	}
	return fl.Hooks{
		RoundStarted: func(_ int, sampled []string) {
			stragglers := 0
			for _, d := range sampled {
				if t.stragglers[d] {
					stragglers++
				}
			}
			t.wait.roundStarted(shard, stragglers, len(sampled)-stragglers)
		},
		UpdateFolded:      func(int, string) { t.wait.drained(shard) },
		ClientQuarantined: sanctioned,
		ClientProbationed: sanctioned,
		RoundClosed:       func(fl.RoundStats) { t.wait.roundClosed(shard) },
	}
}

// orCrash runs one tier, converting an injected crash panic into
// ErrSimCrash after abort (when the tier's own unwinding has not
// already torn it down). Anything else escaping an engine goroutine is
// a real bug and re-panics.
func orCrash(run func() error, abort func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(simCrash); !ok {
				panic(p)
			}
			if abort != nil {
				abort()
			}
			err = ErrSimCrash
		}
	}()
	return run()
}

// runFlat serves the whole fleet from one fl.Server.
func (t *tree) runFlat() (*Result, error) {
	opt := t.opt.root
	j, err := opt.openJournal()
	if err != nil {
		return nil, err
	}
	defer closeJournal(j)
	cfg := t.serverCfg(0, opt, j)
	var srv *fl.Server
	if opt.recover {
		// The fleet rejoins the recovered server via Resume.
		if srv, err = fl.Recover(opt.journal, t.sc.Model, cfg); err != nil {
			return nil, err
		}
	} else {
		srv = fl.NewServer(t.sc.Model, cfg)
	}
	conns, err := t.start(0, t.sc.Clients)
	if err != nil {
		return nil, err
	}
	var selected int
	// On a crash, Abort drains the readers, closes the conns and syncs
	// the journal.
	runErr := orCrash(func() (err error) { selected, err = srv.Run(conns); return }, srv.Abort)
	// A run that failed before selection (config validation) never
	// touched the conns; close them so the fleet unblocks.
	closeConns(conns)
	t.wg.Wait()
	return t.result(selected, srv.Trace()), runErr
}

func shardName(s int) string { return fmt.Sprintf("edge-%03d", s) }

// startEdge builds shard's edge aggregator — or, with opt.recover,
// rebuilds it from its journal: roster and standing intact, clients
// matched without re-attestation — over a fresh set of the shard's
// devices, starts it, and returns the root's side of its uplink.
func (t *tree) startEdge(shard int, opt tierOpts) (fl.Conn, error) {
	j, err := opt.openJournal()
	if err != nil {
		return nil, err
	}
	if t.edgeMetrics != nil {
		// A private per-shard registry: its deltas ride each PartialUp
		// upstream and fold into sc.Metrics at the root.
		t.edgeMetrics[shard] = obs.NewRegistry()
	}
	cfg := hier.EdgeConfig{Name: shardName(shard), MaxCodec: t.sc.Codec, Server: t.serverCfg(shard, opt, j)}
	// The edge owns a model-shaped scratch state; values are
	// overwritten by the root's broadcast every round.
	state := make([]*tensor.Tensor, len(t.sc.Model))
	for i, m := range t.sc.Model {
		state[i] = tensor.New(m.Shape...)
	}
	var edge *hier.Edge
	if opt.recover {
		edge, err = hier.RecoverEdge(opt.journal, state, cfg)
	} else {
		edge = hier.NewEdge(state, cfg)
	}
	var clients []fl.Conn
	if err == nil {
		clients, err = t.start(shardRange(t.sc.Clients, t.sc.Shards, shard))
	}
	if err != nil {
		closeJournal(j)
		return nil, fmt.Errorf("flsim: starting shard %d: %w", shard, err)
	}
	t.edges[shard] = edge
	rootSide, edgeSide := fl.Pipe()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		// Shard loss degrades the root, never the harness. An injected
		// crash has already run Edge.Run's deferred Abort and upstream
		// Close during the unwind: the shard process is dead and its
		// link to the root severed.
		err := orCrash(func() error { return edge.Run(edgeSide, clients) }, nil)
		closeConns(clients) // an edge that never opened its shard left them untouched
		closeJournal(j)
		if errors.Is(err, ErrSimCrash) && t.opt.edgeDown != nil {
			t.opt.edgeDown(shard)
		}
	}()
	return rootSide, nil
}

// newRoot builds the hierarchy root, or recovers it from its journal
// onto the scenario's (pristine) model.
func (t *tree) newRoot(j *journal.Journal) (*hier.Root, error) {
	sc, opt := t.sc, t.opt.root
	hooks := fl.Hooks{RoundStarted: func(round int, shards []string) {
		if t.opt.roundStarted != nil {
			t.opt.roundStarted(t, round)
		}
		t.wait.fleetRoundStarted(len(shards))
	}}
	if opt.crash != nil {
		hooks = installCrash(hooks, *opt.crash)
	}
	cfg := hier.RootConfig{
		Rounds:     sc.Rounds,
		MinShards:  sc.MinShards,
		SecAgg:     sc.SecAgg,
		MaskDegree: sc.MaskDegree,
		Codec:      sc.Codec,
		Clock:      t.clk,
		Journal:    j,
		Metrics:    sc.Metrics,
		Spans:      obs.NewTraceSink(sc.Spans, t.clk),
		Hooks:      hier.Hooks{RoundStarted: hooks.RoundStarted, PartialFolded: hooks.UpdateFolded},
	}
	if t.opt.rejoin != nil {
		cfg.Rejoin = func(round int) []fl.Conn { return t.opt.rejoin(t, round) }
	}
	if opt.recover {
		return hier.RecoverRoot(opt.journal, sc.Model, cfg)
	}
	return hier.NewRoot(sc.Model, cfg), nil
}

// runHier partitions the fleet into contiguous shards, each served by a
// hier.Edge running the full round protocol over fl.Pipe, under a
// hier.Root folding one partial per shard per round.
func (t *tree) runHier() (*Result, error) {
	j, err := t.opt.root.openJournal()
	if err != nil {
		return nil, err
	}
	defer closeJournal(j)
	root, err := t.newRoot(j)
	if err != nil {
		return nil, err
	}
	for s := range t.edges {
		var opt tierOpts
		if t.opt.edge != nil {
			opt = t.opt.edge(s)
		}
		if t.edgeConns[s], err = t.startEdge(s, opt); err != nil {
			break
		}
	}
	if err == nil {
		err = orCrash(func() error { _, err := root.Run(t.edgeConns); return err }, root.Abort)
	}
	// A root that never enrolled its edges never touched their uplinks;
	// close them so the tree unwinds.
	closeConns(t.edgeConns)
	t.wg.Wait()
	selected := 0
	for _, e := range t.edges {
		if e != nil {
			selected += e.Selected
		}
	}
	return t.result(selected, root.Trace()), err
}

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

// treeOpts is everything a harness changes about a session — its pacing
// and the faults it injects; the scenario decides the rest. Zero opts
// run the scenario plainly.
type treeOpts struct {
	// async, when set, paces the flat session barrier-free: devices
	// train for their latency on the session clock and push whenever
	// ready (RunAsync).
	async *AsyncScenario
	// root configures the flat server, or the root of a hierarchy.
	root tierOpts
	// edge, when set, configures each shard's edge.
	edge func(shard int) tierOpts
	// edgeDown, when set, is called once an edge's injected crash has
	// torn it down and its journal is flushed.
	edgeDown func(shard int)
	// beforeRound, when set, is the root's RootConfig.Rejoin poll: it
	// runs on the root's round goroutine before each round, where a
	// harness severs a link or hands back recovered edges to readmit.
	beforeRound func(t *tree, round int) []fl.Conn
}

// tree is one simulated federation: a flat server, or a root over one
// edge per shard, above a fleet of real fl.Clients — the only place the
// engine's configuration is derived from the scenario.
type tree struct {
	sc         *Scenario
	profiles   []Profile
	stragglers map[string]Profile
	opt        treeOpts
	sched      *sched
	top        *tier // the flat server, or the root
	planner    fl.RoundPlanner
	verifier   *tz.Verifier
	enclave    *secagg.Enclave

	wg          sync.WaitGroup // every device and edge goroutine
	mu          sync.Mutex
	quarantined []string

	// Hierarchies only, in shard order.
	edges       []*hier.Edge
	edgeConns   []fl.Conn // the root's side of each edge's uplink
	edgeMetrics []*obs.Registry
}

// epoch is the instant every session's virtual clock starts at.
var epoch = time.Unix(0, 0)

// runTree executes a validated scenario over the given profiles.
func runTree(sc Scenario, profiles []Profile, opt treeOpts) (*Result, error) {
	t := &tree{
		sc:         &sc,
		profiles:   profiles,
		stragglers: make(map[string]Profile),
		opt:        opt,
		sched:      &sched{clk: simclock.NewVirtual(epoch), n: sc.Clients, edges: make(map[string]*tier), dead: make(map[int]bool)},
		planner:    sc.Planner,
		verifier:   tz.NewVerifier(),
	}
	if opt.async != nil {
		t.sched.devices = sc.Clients // each runs until it first parks on its latency timer
	}
	for _, p := range profiles {
		if p.Straggler {
			t.stragglers[p.Device] = p
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
	t.edges = make([]*hier.Edge, sc.Shards)
	t.edgeConns = make([]fl.Conn, sc.Shards)
	if sc.FleetTelemetry {
		t.edgeMetrics = make([]*obs.Registry, sc.Shards)
	}
	return t.runHier()
}

// answers reports whether a sampled device answers round without time
// passing: in a synchronous session every device but a straggler that
// has not yet gone dark, in an asynchronous one none — every push waits
// out its device's latency.
func (t *tree) answers(device string, round int) bool {
	p, straggler := t.stragglers[device]
	return t.opt.async == nil && (!straggler || p.DropRound >= 0 && round >= p.DropRound)
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
		Elapsed:     t.sched.clk.Now().Sub(epoch),
		Idle:        idleFromTrace(trace, t.sc.Deadline),
		EdgeMetrics: t.edgeMetrics,
	}
	if t.enclave != nil {
		res.EnclaveSMCs = t.enclave.Device().SMCCount()
	}
	return res
}

// serverCfg derives the round-engine configuration for tier tr — the
// flat server itself, or shard's edge engine — from the scenario.
func (t *tree) serverCfg(tr *tier, shard int, opt tierOpts, j *journal.Journal) fl.ServerConfig {
	sc := t.sc
	aggMethod, _ := fl.ParseAggMethod(sc.Aggregation) // validated
	hooks := t.hooks(tr)
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
		Clock:            t.sched.clk.Keyed(tr.key),
		Hooks:            hooks,
		Journal:          j,
	}
	if a := t.opt.async; a != nil {
		cfg.Rounds = a.Versions
		cfg.Async = fl.AsyncConfig{Enabled: true, GoalUpdates: a.GoalUpdates, MaxStaleness: a.MaxStaleness}
		// Slow devices are not stragglers here: the drain waits for
		// their last push instead of cutting it off at a deadline.
		cfg.RoundDeadline = 0
	}
	if sc.Shards <= 1 {
		cfg.Metrics = sc.Metrics
		cfg.Spans = obs.NewTraceSink(sc.Spans, t.sched.clk)
		return cfg
	}
	// The root owns the scenario's registry and span stream; an edge
	// gets its own of each, when the scenario asks for them.
	cfg.SampleSeed = sc.Seed + int64(shard) + 1
	if t.edgeMetrics != nil {
		cfg.Metrics = t.edgeMetrics[shard]
	}
	if len(sc.EdgeSpans) > 0 {
		cfg.Spans = obs.NewTraceSink(sc.EdgeSpans[shard], t.sched.clk)
	}
	return cfg
}

// hooks ride tier tr's engine hooks (all fired from its round goroutine)
// to feed the virtual-time scheduler and keep the quarantine log.
func (t *tree) hooks(tr *tier) fl.Hooks {
	sanctioned := func(child string, _ error) {
		if tr.answers != nil { // a device, not a dropped edge
			t.mu.Lock()
			t.quarantined = append(t.quarantined, child)
			t.mu.Unlock()
		}
		t.sched.answered(tr, child)
	}
	return fl.Hooks{
		RoundStarted:      func(round int, sampled []string) { t.sched.open(tr, round, sampled) },
		UpdateFolded:      func(_ int, child string) { t.sched.answered(tr, child) },
		ClientQuarantined: sanctioned,
		ClientProbationed: sanctioned,
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
	t.top = t.sched.newTier("", t.answers)
	cfg := t.serverCfg(t.top, 0, opt, j)
	var srv *fl.Server
	if opt.recover {
		// The fleet rejoins the recovered server via Resume.
		if srv, err = fl.Recover(opt.journal, t.sc.Model, cfg); err != nil {
			return nil, err
		}
	} else {
		srv = fl.NewServer(t.sc.Model, cfg)
	}
	run := srv.Run
	if t.opt.async != nil {
		run = srv.RunAsync
	}
	conns, err := t.start(0, t.sc.Clients)
	if err != nil {
		return nil, err
	}
	var selected int
	// On a crash, Abort drains the readers, closes the conns and syncs
	// the journal.
	runErr := orCrash(func() (err error) { selected, err = run(conns); return }, srv.Abort)
	t.sched.leave(t.top)
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
	tr := t.sched.newTier(shardName(shard), t.answers)
	cfg := hier.EdgeConfig{Name: tr.name, MaxCodec: t.sc.Codec, Server: t.serverCfg(tr, shard, opt, j)}
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
		t.sched.leave(tr)
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
		up := uplink{edgeSide, func() { t.sched.answered(t.top, tr.name) }}
		err := orCrash(func() error { return edge.Run(up, clients) }, nil)
		closeConns(clients) // an edge that never opened its shard left them untouched
		closeJournal(j)
		t.sched.leave(tr)
		if errors.Is(err, ErrSimCrash) && t.opt.edgeDown != nil {
			t.opt.edgeDown(shard)
		}
	}()
	return rootSide, nil
}

// uplink is an edge's end of its link to the root. A shard round that
// failed forwards an empty partial, which the root takes without a fold
// hook: the send itself hands the edge back to its parent.
type uplink struct {
	fl.Conn
	emptySent func()
}

func (u uplink) Send(m fl.Message) error {
	if p, ok := m.(*fl.PartialUp); ok && p.Count == 0 {
		u.emptySent()
	}
	return u.Conn.Send(m)
}

// newRoot builds the hierarchy root, or recovers it from its journal
// onto the scenario's (pristine) model.
func (t *tree) newRoot(j *journal.Journal) (*hier.Root, error) {
	sc, opt := t.sc, t.opt.root
	hooks := t.hooks(t.top)
	if opt.crash != nil {
		hooks = installCrash(hooks, *opt.crash)
	}
	cfg := hier.RootConfig{
		Rounds:     sc.Rounds,
		MinShards:  sc.MinShards,
		SecAgg:     sc.SecAgg,
		MaskDegree: sc.MaskDegree,
		Codec:      sc.Codec,
		Clock:      t.sched.clk.Keyed(t.top.key),
		Journal:    j,
		Metrics:    sc.Metrics,
		Spans:      obs.NewTraceSink(sc.Spans, t.sched.clk),
		Hooks: hier.Hooks{
			RoundStarted:  hooks.RoundStarted,
			PartialFolded: hooks.UpdateFolded,
			ShardDropped:  hooks.ClientQuarantined,
		},
	}
	if t.opt.beforeRound != nil {
		cfg.Rejoin = func(round int) []fl.Conn { return t.opt.beforeRound(t, round) }
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
	t.top = t.sched.newTier("", nil)
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
	t.sched.leave(t.top)
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

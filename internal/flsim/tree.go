package flsim

import (
	"errors"
	"fmt"
	"io"
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
	// beforeRound, when set, is the root's fl.ServerConfig.Rejoin poll:
	// it runs on the root's round goroutine before each round, where a
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

// validateEngine runs the engine's one check, fl.ServerConfig.Validate,
// on the configuration of every tier the scenario would start — paced
// by async when it is set. Edges differ from one another only in their
// seed.
func (sc *Scenario) validateEngine(async *AsyncScenario) error {
	t := &tree{sc: sc, opt: treeOpts{async: async}, verifier: tz.NewVerifier()}
	tiers := []int{-1}
	if sc.Shards > 1 {
		tiers = append(tiers, 0)
	}
	for _, shard := range tiers {
		if err := t.serverCfg(shard).Validate(); err != nil {
			return fmt.Errorf("flsim: %w", err)
		}
	}
	return nil
}

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

	if sc.Shards > 1 {
		t.edges = make([]*hier.Edge, sc.Shards)
		t.edgeConns = make([]fl.Conn, sc.Shards)
		if sc.FleetTelemetry {
			t.edgeMetrics = make([]*obs.Registry, sc.Shards)
		}
	}
	return t.run()
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

// serverCfg derives a tier's round-engine configuration from the
// scenario: the top tier's (shard < 0) — the flat server, or the
// hierarchy root over one edge peer per shard — or shard's edge. It is
// the one place the scenario becomes engine settings; wire then attaches
// the tier's clock, hooks, journal and telemetry.
func (t *tree) serverCfg(shard int) fl.ServerConfig {
	sc := t.sc
	cfg := fl.ServerConfig{
		Rounds:     sc.Rounds, // an edge ignores it: the root paces rounds
		Codec:      sc.Codec,
		SecAgg:     sc.SecAgg,
		MaskDegree: sc.MaskDegree,
	}
	if a := t.opt.async; a != nil {
		cfg.Rounds = a.Versions
		cfg.Async = fl.AsyncConfig{Enabled: true, GoalUpdates: a.GoalUpdates, MaxStaleness: a.MaxStaleness}
	}
	if shard < 0 && sc.Shards > 1 {
		// The root: its peers are the edges and its floor MinShards; the
		// client-facing policies below are each edge's own.
		cfg.EdgePeers, cfg.MinClients = true, sc.MinShards
		if t.opt.beforeRound != nil {
			cfg.Rejoin = func(round int) []fl.Conn { return t.opt.beforeRound(t, round) }
		}
		return cfg
	}
	aggMethod, _ := fl.ParseAggMethod(sc.Aggregation) // parsed by Scenario.Validate
	cfg.MinClients = sc.MinClients
	cfg.SampleCount, cfg.SampleFraction, cfg.SampleSeed = sc.SampleCount, sc.SampleFraction, sc.Seed
	cfg.RoundDeadline = sc.Deadline
	cfg.RequireTEE, cfg.Verifier = sc.RequireTEE, t.verifier
	cfg.Enclave, cfg.Planner = t.enclave, t.planner
	cfg.QuarantineRounds = sc.QuarantineRounds
	cfg.Aggregation, cfg.TrimFraction = aggMethod, sc.TrimFraction
	if t.opt.async != nil {
		// Slow devices are not stragglers here: the drain waits for
		// their last push instead of cutting it off at a deadline.
		cfg.RoundDeadline = 0
	}
	if shard >= 0 {
		cfg.Partials = true
		cfg.SampleSeed = sc.Seed + int64(shard) + 1
	}
	return cfg
}

// wire attaches tier tr to its engine configuration: the tier's clock,
// the scheduler's hooks (with the tier's injected crash), its journal,
// and its telemetry sinks.
func (t *tree) wire(cfg fl.ServerConfig, tr *tier, opt tierOpts, j *journal.Journal, metrics *obs.Registry, spans io.Writer) fl.ServerConfig {
	cfg.Clock = t.sched.clk.Keyed(tr.key)
	cfg.Hooks = t.hooks(tr)
	if opt.crash != nil {
		cfg.Hooks = installCrash(cfg.Hooks, *opt.crash)
	}
	cfg.Journal, cfg.Metrics, cfg.Spans = j, metrics, obs.NewTraceSink(spans, t.sched.clk)
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

// run starts the session's tiers and drives the top one: an fl.Server —
// or, with opt.root.recover, one rebuilt from its journal — over the
// whole fleet, or over one edge per shard, each serving its contiguous
// slice of the fleet over fl.Pipe. It returns once every tier has
// stopped.
func (t *tree) run() (*Result, error) {
	opt := t.opt.root
	j, err := opt.openJournal()
	if err != nil {
		return nil, err
	}
	defer closeJournal(j)
	answers := t.answers
	if t.sc.Shards > 1 {
		answers = nil // the root's children are edges, which account for themselves
	}
	t.top = t.sched.newTier("", answers)
	cfg := t.wire(t.serverCfg(-1), t.top, opt, j, t.sc.Metrics, t.sc.Spans)
	var srv *fl.Server
	if opt.recover {
		// The fleet rejoins the recovered server's session.
		if srv, err = fl.Recover(opt.journal, t.sc.Model, cfg); err != nil {
			return nil, err
		}
	} else {
		srv = fl.NewServer(t.sc.Model, cfg)
	}
	peers := t.edgeConns
	if t.sc.Shards <= 1 {
		peers, err = t.start(0, t.sc.Clients)
	}
	for s := 0; s < len(t.edges) && err == nil; s++ {
		var eopt tierOpts
		if t.opt.edge != nil {
			eopt = t.opt.edge(s)
		}
		peers[s], err = t.startEdge(s, eopt)
	}
	selected := 0
	if err == nil {
		// On a crash, Abort drains the readers, closes the conns and syncs
		// the journal.
		err = orCrash(func() (err error) { selected, err = srv.Run(peers); return }, srv.Abort)
	}
	t.sched.leave(t.top)
	// A top tier that never opened its session never touched its peers'
	// links; close them so the tree unwinds.
	closeConns(peers)
	t.wg.Wait()
	if t.edges != nil {
		selected = 0 // the fleet behind the edges, not the edges
		for _, e := range t.edges {
			if e != nil {
				selected += e.Selected
			}
		}
	}
	return t.result(selected, srv.Trace()), err
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
	var spans io.Writer
	if len(t.sc.EdgeSpans) > 0 {
		spans = t.sc.EdgeSpans[shard]
	}
	var metrics *obs.Registry
	if t.edgeMetrics != nil {
		metrics = t.edgeMetrics[shard]
	}
	cfg := hier.EdgeConfig{Name: tr.name, MaxCodec: t.sc.Codec, Server: t.wire(t.serverCfg(shard), tr, opt, j, metrics, spans)}
	// The edge owns a model-shaped scratch state; values are
	// overwritten by the root's broadcast every round.
	state := make([]*tensor.Tensor, len(t.sc.Model))
	for i, m := range t.sc.Model {
		state[i] = tensor.New(m.Shape...)
	}
	var edge *hier.Edge
	if opt.recover {
		edge = hier.RecoverEdge(opt.journal, state, cfg)
	} else {
		edge = hier.NewEdge(state, cfg)
	}
	clients, err := t.start(shardRange(t.sc.Clients, t.sc.Shards, shard))
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

package fl

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// RoundPlanner decides, per FL cycle, which flat parameter tensors are
// protected inside the client TEE — GradSec's static and dynamic plans
// implement this (internal/core).
type RoundPlanner interface {
	// PlanRound returns the set of protected flat-parameter indices for
	// the round and an opaque plan blob forwarded to clients.
	PlanRound(round int) (protected map[int]bool, planBlob []byte)
}

// NoProtection is the baseline planner: nothing is protected.
type NoProtection struct{}

// PlanRound implements RoundPlanner.
func (NoProtection) PlanRound(int) (map[int]bool, []byte) { return nil, nil }

// ServerConfig configures an FL training session.
type ServerConfig struct {
	// Rounds is the number of FL cycles to run.
	Rounds int
	// RequireTEE, when set, rejects clients that fail attestation —
	// Fig. 2 step 1 of the paper.
	RequireTEE bool
	// Verifier validates attestation quotes; required when RequireTEE.
	Verifier *tz.Verifier
	// Planner supplies the per-round protection plan. Defaults to
	// NoProtection.
	Planner RoundPlanner
	// MinClients is the fleet floor: the session aborts when fewer
	// clients pass selection, and a round fails with ErrNotEnoughClients
	// when fewer than MinClients updates arrive before the deadline.
	MinClients int

	// SampleCount, when positive, limits each round to that many
	// randomly sampled clients. Takes precedence over SampleFraction.
	SampleCount int
	// SampleFraction, when in (0,1), samples ⌈fraction·live⌉ clients per
	// round. 0 (or ≥1) means every live client participates.
	SampleFraction float64
	// SampleSeed seeds the sampling RNG so cohorts are reproducible.
	// The default seed is 1.
	SampleSeed int64

	// Codec is the tensor wire codec the server offers clients during
	// the handshake; a client may negotiate down (less compression),
	// never up. The zero value, wire.CodecF64, keeps the uncompressed
	// protocol: tensor payloads are byte-identical to the pre-codec
	// encoding (messages gained optional trailing fields, which
	// pre-codec decoders simply never read).
	Codec wire.Codec

	// SecAgg enables secure aggregation: clients send double-masked
	// fixed-point updates (MaskedUp) the server folds without ever
	// seeing an individual update, reconciling dropped clients' masks
	// through revealed round seeds and removing self masks through
	// Shamir shares. Sealed protected-layer updates additionally require
	// Enclave. Example weights still apply (clients pre-multiply in the
	// ring); sampling, deadlines and quarantine behave as in plaintext
	// mode.
	SecAgg bool
	// SecAggScaleBits is the fixed-point precision for masked updates;
	// 0 selects secagg.DefaultScaleBits.
	SecAggScaleBits int
	// MaskDegree is the degree k of the per-round k-regular mask graph
	// in SecAgg sessions: each client masks against k neighbours and
	// double-masks with a self seed Shamir-shared among them, so masking
	// costs O(k·cohort) and a round survives any ⌊(k−1)/2⌋ dropouts. 0
	// (secagg.AutoDegree, the default) sizes k from each round's cohort
	// — secagg.DegreeFor: ≈ ⌈log₂ cohort⌉, never below 6, i.e. at least
	// 2 arbitrary dropouts per round; a positive value pins k
	// (deployments expecting heavier churn). Either is capped at the
	// complete graph. Negative values are rejected by Open.
	MaskDegree int
	// Enclave, in SecAgg sessions, aggregates sealed protected-layer
	// updates inside a simulated server enclave: trusted-channel keys
	// are generated there during selection and sealed blobs are opened
	// and folded behind the world boundary. Required whenever the
	// Planner protects tensors in a SecAgg session; clients unable to
	// establish a trusted channel are then rejected at selection so the
	// masked layout stays uniform across the cohort.
	Enclave *secagg.Enclave

	// MinRelease, in secure-aggregation sessions, is the release floor:
	// a round whose folded cohort is smaller than this never publishes
	// its aggregate (ErrCohortTooSmall) — an aggregate over a tiny
	// cohort approaches an individual update, defeating the masking.
	// The same floor is armed inside the aggregation enclave when one
	// is configured, so the sealed half is refused independently of the
	// untrusted engine. 0 disables (MinClients still applies).
	MinRelease int

	// Aggregation selects the round aggregation strategy. The default,
	// AggFedAvg, streams the weighted mean; AggTrimmedMean and
	// AggMedian are the Byzantine-robust strategies (see robust.go).
	// Robust strategies need plaintext per-client updates, so they are
	// mutually exclusive with SecAgg, Partials and Async — Open rejects
	// the combinations with a configuration error.
	Aggregation AggMethod
	// TrimFraction is the per-tail trim for AggTrimmedMean: the
	// ⌈TrimFraction·n⌉ largest and smallest values of every coordinate
	// are discarded before averaging. Must be in (0, 0.5).
	TrimFraction float64

	// Journal, when set, makes the session crash-durable: roster
	// admissions, quarantine/probation transitions, release-floor
	// raises and round opens/folds/closes are written through it, and
	// Recover rebuilds a resumable server from the log after a crash.
	// Appends are best-effort (an I/O error never fails a round); check
	// Journal.Err when durability must be verified.
	Journal *journal.Journal

	// AdaptiveCodec, when positive, enables the per-round adaptive
	// codec downgrade: the session opens at the exact f64 codec (the
	// configured Codec offer is overridden) and once a round's applied
	// UpdateNorm falls below this threshold the server switches every
	// capable client (Attest.Cap ≥ q8) to the q8 codec for the rest of
	// the session — early rounds keep full precision while updates are
	// large, late rounds ship 8× smaller broadcasts once training has
	// settled. The switch happens between rounds via CodecSwitch: the
	// server flips its send codec immediately but keeps decoding the
	// client's frames under the old codec until the client's CodecSwitch
	// ack arrives, so a straggler racing the switch with an old-codec
	// update still decodes and lands in the normal late/stale path (see
	// the ordering rule on CodecSwitch in messages.go). Ignored in
	// hierarchical partial mode (edges never observe the update norm —
	// the root does).
	AdaptiveCodec float64

	// Async configures the asynchronous buffered-federation mode driven
	// by RunAsync (FedBuff-style): no round barrier, clients push
	// updates whenever ready and the server folds them into a
	// staleness-weighted buffer applied every Async.GoalUpdates arrivals.
	// Rounds then counts buffered applications (model versions) rather
	// than synchronous cycles. Ignored by Run/StepRound.
	Async AsyncConfig

	// Partials turns the server into a hierarchical edge aggregator:
	// StepRound returns the round's un-normalised partial aggregate
	// (plain weighted sum, or cancelled ring sums under SecAgg) instead
	// of applying the weighted mean to the server state. The caller
	// forwards the partial upstream (internal/hier) where partials from
	// every shard compose exactly. Protection plans are still honoured
	// in plain mode (the edge unseals and folds protected halves like a
	// flat trusted server); under SecAgg a protecting planner is
	// rejected — sealed aggregation needs the root's enclave, which a
	// shard partial cannot carry.
	Partials bool

	// EdgePeers makes the session's peers edge aggregators instead of
	// devices: the hierarchy root (internal/hier), or an edge whose
	// shard is itself made of edges. A round broadcasts one ShardDown
	// and folds one PartialUp per peer on the same round skeleton as
	// device rounds — exact sums (ring sums under SecAgg) compose, the
	// shard accounting sums into RoundStats, and the fleet mean is
	// applied or, with Partials, handed further upstream. Peers enrol by
	// name (an edge holds no mask key and answers no attestation — do
	// not set RequireTEE) and duplicate names are turned away.
	// MinClients is then the shard floor (0 = every enrolled peer),
	// RoundDeadline the shard deadline, and MinRelease the fleet-wide
	// floor over composed client counts.
	// Planner, AdaptiveCodec and ClientTelemetry do not apply; robust
	// aggregation and Async are rejected.
	EdgePeers bool

	// QuarantineRounds, when positive, turns quarantine for training
	// and protocol failures into probation: the client is excluded from
	// sampling for that many subsequent rounds, then becomes eligible
	// again (its connection stays open). Transport failures remain
	// permanent — the connection is gone. 0 keeps the historic
	// behaviour: every quarantine is permanent.
	QuarantineRounds int

	// RoundDeadline bounds each round: clients that have not responded
	// when it expires are dropped for the round (their late updates are
	// discarded) but stay eligible for later rounds. 0 waits forever.
	RoundDeadline time.Duration
	// IOTimeout bounds individual transport operations on connections
	// that support deadlines (TCP): handshake reads during selection and
	// every model-distribution write, so a client that stops reading can
	// no longer stall selection or distribution indefinitely. Mid-round
	// reads are not bounded by it (a sampled client may legitimately
	// stay silent until the RoundDeadline). 0 disables.
	IOTimeout time.Duration
	// Clock supplies wall time for round deadlines. Defaults to the
	// real clock; tests and flsim inject a simclock.Virtual.
	Clock simclock.WallClock

	// Hooks receive engine lifecycle events; all callbacks fire from the
	// server's round goroutine, in order.
	Hooks Hooks

	// Metrics, when set, receives engine telemetry: round counters,
	// per-phase latency histograms, wire byte/frame totals, quarantine
	// and staleness accounting. Families are shared — many servers (or
	// a root and its edges) may feed one registry. nil disables metrics
	// at zero hot-path cost.
	Metrics *obs.Registry
	// Spans, when set, receives one JSONL span per round and per phase,
	// timed on Clock — under a virtual clock the span stream is
	// bit-reproducible. nil disables tracing.
	Spans *obs.TraceSink
	// ClientTelemetry opts the server into folding client-attached
	// telemetry snapshots (GradUp trailing field) into Metrics under
	// tier="client", shard=<device> labels. Off by default: accepting
	// metric schemas from remote devices is a policy decision, and a
	// metered run with it off stays byte-identical to pre-telemetry
	// behaviour. Ignored when Metrics is nil.
	ClientTelemetry bool
}

// Hooks observe the round engine. Any field may be nil.
type Hooks struct {
	// RoundStarted fires after the round's cohort is sampled and the
	// deadline timer (if any) is armed, before models are distributed.
	RoundStarted func(round int, sampled []string)
	// UpdateFolded fires after a client update is folded into the
	// streaming aggregate.
	UpdateFolded func(round int, device string)
	// UpdatePushed fires in asynchronous sessions after every client
	// push has been fully processed — folded (folded true) or discarded
	// as stale, duplicate or rate-limited (folded false) — and before
	// the reply model is sent. Never fires in round-synchronous
	// sessions.
	UpdatePushed func(version int, device string, folded bool)
	// ClientQuarantined fires when a client is permanently excluded
	// (training/protocol/transport failure — not straggling). It does
	// not fire for probation; see ClientProbationed.
	ClientQuarantined func(device string, reason error)
	// ClientProbationed fires when a client is placed on temporary
	// probation under QuarantineRounds instead of being permanently
	// excluded — the connection stays open and the client becomes
	// eligible again after the window.
	ClientProbationed func(device string, reason error)
	// RoundClosed fires after the round's aggregate is applied (or the
	// round failed).
	RoundClosed func(stats RoundStats)
}

// RoundStats is one round's trace entry. It is journal.Stats — one
// struct, documented there — so a close record commits it as is.
type RoundStats = journal.Stats

// Partial is one round's un-normalised aggregate, produced by a server
// in hierarchical partial mode (ServerConfig.Partials) and forwarded
// upstream as a PartialUp frame. Exactly one of Sum (plain) or Levels
// (secure aggregation) is set.
type Partial struct {
	Round int
	// Sum is Σ wᵢuᵢ over the shard's folded updates.
	Sum []*tensor.Tensor
	// Levels are the shard's ring sums with all pairwise masks
	// cancelled or reconciled (nil at protected positions — always
	// absent in partial mode).
	Levels []*wire.U64Tensor
	// ScaleBits is the fixed-point precision of Levels.
	ScaleBits int
	// Weight is the shard's summed FedAvg weight.
	Weight float64
	// Count is the number of folded client updates.
	Count int
	// Stats is the shard's round accounting, forwarded for root-side
	// bookkeeping.
	Stats RoundStats
}

// Server drives an FL training session over a set of client connections:
// parallel TEE-aware selection, per-round client sampling, deadline-based
// straggler dropout, quarantine of failed clients, and streaming FedAvg
// aggregation.
type Server struct {
	cfg   ServerConfig
	state []*tensor.Tensor
	rng   *mrand.Rand
	// trace is appended by the round goroutine under traceMu; Trace()
	// copies under the same lock so callers can never alias (or race
	// with) an active session's append.
	traceMu sync.Mutex
	trace   []RoundStats

	// ob is the telemetry state, nil when observability is disabled
	// (every use is nil-guarded — the zero-cost off switch).
	ob *serverObs

	// health is the lock-free session summary served by /healthz;
	// updated by the round goroutine, read by admin HTTP goroutines.
	health struct {
		open        atomic.Bool
		round       atomic.Int64
		roster      atomic.Int64
		quarantined atomic.Int64
		probation   atomic.Int64
	}

	// Session lifecycle (Open → StepRound* → Close/Abort). Run drives
	// the whole sequence; hierarchical edges step rounds under upstream
	// control.
	sessions []*session
	arrivals chan arrival
	done     chan struct{}
	readers  sync.WaitGroup
	opened   bool
	shut     bool
	// adapted latches the one-shot adaptive codec downgrade.
	adapted bool
	// roundTrace, when non-zero, is the upstream-minted trace ID the
	// next rounds carry (SetRoundTrace — hierarchical edges adopt the
	// root's ID); 0 makes each round mint its own. curTrace is the ID
	// the in-flight round actually stamps on spans and ModelDown. Both
	// are owned by the round goroutine.
	roundTrace uint64
	curTrace   uint64

	// history carries quarantine/probation decisions across sessions
	// of one server (Open/Close/Open) and across process restarts
	// (journal recovery): a device quarantined in an earlier session
	// stays excluded, and an unserved probation window is still
	// honoured when the device reconnects.
	history map[string]*deviceHistory
	// nextRound is the first round Run will execute: 0 for a fresh
	// server, one past the last committed round for a recovered one.
	nextRound int
	// roster, on a journal-recovered server, holds the crashed
	// session's admissions in selection order; Resume rebuilds
	// s.sessions in exactly this order so sampling draws line up.
	roster []*journal.Record
	// resuming switches selectOne into resumption mode: devices are
	// matched against the journaled roster instead of being verified
	// from scratch.
	resuming bool
}

// deviceHistory is a device's durable standing across sessions.
type deviceHistory struct {
	quarantined    bool
	probationUntil int
}

// NewServer creates a server owning the given initial global model state
// (flat parameter tensors; the slice is used in place).
func NewServer(state []*tensor.Tensor, cfg ServerConfig) *Server {
	if cfg.Planner == nil {
		cfg.Planner = NoProtection{}
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.MinClients <= 0 {
		cfg.MinClients = 1
		if cfg.EdgePeers {
			cfg.MinClients = 0 // every enrolled edge: resolved at Open
		}
	}
	if cfg.SampleSeed == 0 {
		cfg.SampleSeed = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real()
	}
	if !cfg.Codec.Valid() {
		cfg.Codec = wire.CodecF64
	}
	if cfg.SecAggScaleBits <= 0 || cfg.SecAggScaleBits > secagg.MaxScaleBits {
		cfg.SecAggScaleBits = secagg.DefaultScaleBits
	}
	if cfg.MinRelease < 0 {
		cfg.MinRelease = 0
	}
	if cfg.Partials || cfg.EdgePeers {
		// Edges never observe the update norm, and edge peers do not
		// speak CodecSwitch.
		cfg.AdaptiveCodec = 0
	}
	if cfg.AdaptiveCodec > 0 {
		cfg.Codec = wire.CodecF64 // adaptive sessions open exact
	}
	if cfg.Async.Enabled {
		if cfg.Async.GoalUpdates <= 0 {
			cfg.Async.GoalUpdates = cfg.MinClients
		}
		if cfg.Async.Buffer <= 0 {
			cfg.Async.Buffer = 2 * cfg.Async.GoalUpdates
		}
	}
	if cfg.Enclave != nil && cfg.MinRelease > 0 {
		// Arm the release floor inside the TA before any round begins,
		// so the sealed half is refused below the floor no matter what
		// the untrusted engine later claims.
		cfg.Enclave.SetMinRelease(cfg.MinRelease)
	}
	if r := cfg.engineMetrics(); cfg.Journal != nil && r != nil {
		cfg.Journal.Instrument(
			r.Histogram("gradsec_journal_ns", "journal I/O latency in nanoseconds", "op", "append"),
			r.Histogram("gradsec_journal_ns", "journal I/O latency in nanoseconds", "op", "sync"),
		)
	}
	return &Server{
		cfg:     cfg,
		state:   state,
		rng:     mrand.New(mrand.NewSource(cfg.SampleSeed)),
		history: make(map[string]*deviceHistory),
		ob:      newServerObs(&cfg),
	}
}

// State returns the current global model parameters.
func (s *Server) State() []*tensor.Tensor { return s.state }

// Trace returns per-round statistics, in round order, as a defensive
// copy: it is safe to call (and keep) while a session is still running
// — the engine's appends can neither race with nor retroactively mutate
// the returned slice.
func (s *Server) Trace() []RoundStats {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	out := make([]RoundStats, len(s.trace))
	copy(out, s.trace)
	return out
}

// Health returns a lock-free snapshot of the session state for the
// admin /healthz surface: safe to call from any goroutine at any time.
func (s *Server) Health() obs.Health {
	h := obs.Health{
		Open:        s.health.open.Load(),
		Round:       int(s.health.round.Load()),
		Rounds:      s.cfg.Rounds,
		Roster:      int(s.health.roster.Load()),
		Quarantined: int(s.health.quarantined.Load()),
		Probation:   int(s.health.probation.Load()),
	}
	if s.cfg.Journal != nil {
		h.JournalLag = int(s.cfg.Journal.Pending())
	}
	return h
}

// session is the server's per-client state. Mutable fields are owned by
// the round goroutine.
type session struct {
	conn    Conn
	device  string
	hasTEE  bool
	channel *tz.Channel
	codec   wire.Codec
	// cap is the client's true maximum codec (≥ codec); the adaptive
	// downgrade may move codec up to it mid-session.
	cap wire.Codec
	// maskPub is the client's pairwise-masking public key (SecAgg).
	maskPub []byte
	// enclaveChannel marks a trusted channel held inside cfg.Enclave
	// rather than in this process (channel stays nil).
	enclaveChannel bool
	// quarantined permanently excludes the client (connection closed).
	quarantined bool
	// reconDoneRound is 1 + the latest round whose pairwise masks were
	// reconciled with this client counted as dropped (0 = never). An
	// update for any round below it arrives after the survivors already
	// revealed their seeds for that round — accepting it would let a
	// curious server unmask it — so it is refused with ErrLateAfterRecon
	// instead of being silently discarded.
	reconDoneRound int
	// probationUntil, under ServerConfig.QuarantineRounds, is the first
	// round index the client is eligible for again after a failure.
	probationUntil int

	// Asynchronous sessions (runAsync): sentVersion is the model version
	// most recently sent — a valid push must echo it (GradUp.Version);
	// lastFold the time of the last accepted fold (rate limiting);
	// strikes the consecutive protocol violations; doneSent marks a
	// delivered end-of-session Done.
	sentVersion int
	lastFold    time.Time
	strikes     int
	doneSent    bool
}

// eligible reports whether the session may be sampled in the round.
func (s *session) eligible(round int) bool {
	return !s.quarantined && round >= s.probationUntil
}

// arrival is one message (or terminal transport error) from a client's
// read loop.
type arrival struct {
	sess *session
	msg  Message
	err  error
}

// ErrNotEnoughClients is returned when selection leaves fewer clients
// than MinClients, or when fewer than MinClients updates arrive before a
// round deadline.
var ErrNotEnoughClients = errors.New("fl: not enough clients")

// MaxExampleWeight caps the FedAvg weight a single client can claim
// through GradUp.Examples: larger counts are folded at this weight, so
// one client can outweigh at most this many unit-weight peers.
const MaxExampleWeight = 1 << 20

// Run executes selection followed by cfg.Rounds FL cycles over the given
// client connections, then closes them with a Done carrying the final
// model. It returns the number of selected clients. On a
// journal-recovered server (Recover) the connections rejoin the crashed
// session via Resume and Run continues from the first uncommitted
// round.
func (s *Server) Run(conns []Conn) (int, error) {
	open := s.Open
	if s.Resumable() {
		open = s.Resume
	}
	n, err := open(conns)
	if err != nil {
		return n, err
	}
	for round := s.nextRound; round < s.cfg.Rounds; round++ {
		if _, err := s.StepRound(round); err != nil {
			s.Abort()
			return n, fmt.Errorf("fl: round %d: %w", round, err)
		}
	}
	return n, s.Close(nil)
}

// Open performs selection over the given client connections and starts
// the session's per-connection readers. It returns the number of
// selected clients; on error no session is open. Most callers use Run —
// Open/StepRound/Close expose the round lifecycle to callers that pace
// rounds externally, such as hierarchical edge aggregators driven by
// their root.
func (s *Server) Open(conns []Conn) (int, error) {
	if s.opened {
		return 0, errors.New("fl: session already open")
	}
	if s.cfg.RequireTEE && s.cfg.Verifier == nil {
		return 0, errors.New("fl: RequireTEE set but no Verifier configured")
	}
	if err := s.validateAggregation(); err != nil {
		return 0, err
	}
	sessions := s.selectClients(conns)
	// Standing from earlier sessions of this server carries over: a
	// quarantined device stays out, an unserved probation window is
	// restored.
	kept := sessions[:0]
	for _, sess := range sessions {
		if h := s.history[sess.device]; h != nil {
			if h.quarantined {
				s.reject(sess.conn, "device quarantined in an earlier session")
				continue
			}
			sess.probationUntil = h.probationUntil
		}
		kept = append(kept, sess)
	}
	sessions = kept
	if s.cfg.SecAgg || s.cfg.EdgePeers {
		// Pairwise masking keys a mask to each device name: a duplicate
		// name would make two clients derive colliding pair signs — and
		// an edge's name is its shard identity — so later duplicates are
		// turned away (selection order is the input order, hence
		// deterministic).
		seen := make(map[string]bool, len(sessions))
		kept := sessions[:0]
		for _, sess := range sessions {
			if seen[sess.device] {
				s.reject(sess.conn, fmt.Sprintf("duplicate name %q in the session", sess.device))
				continue
			}
			seen[sess.device] = true
			kept = append(kept, sess)
		}
		sessions = kept
	}
	if s.cfg.MinClients == 0 {
		// Edge peers, "every edge": whatever enrolled defines the floor
		// — but never less than one shard.
		s.cfg.MinClients = max(1, len(sessions))
	}
	if len(sessions) < s.cfg.MinClients {
		for _, sess := range sessions {
			s.reject(sess.conn, "not enough clients passed selection")
		}
		return len(sessions), fmt.Errorf("%w: %d of %d passed selection", ErrNotEnoughClients, len(sessions), s.cfg.MinClients)
	}

	s.journalSessionOpen(sessions)
	s.startSession(sessions)
	return len(sessions), nil
}

// startSession brings a selected (Open) or rejoined (Resume) roster
// live. One reader per reachable member feeds a shared arrival channel
// so a straggler's late reply can surface (and be discarded) during any
// later round instead of desynchronising the protocol. In asynchronous
// mode the channel is the bounded fan-in buffer: when it fills, the
// per-connection readers block — backpressure propagates to the
// transports instead of growing server memory.
func (s *Server) startSession(sessions []*session) {
	buffer := len(sessions)
	if s.cfg.Async.Enabled && s.cfg.Async.Buffer < buffer {
		buffer = s.cfg.Async.Buffer
	}
	s.sessions = sessions
	s.arrivals = make(chan arrival, buffer)
	s.done = make(chan struct{})
	reachable := 0
	for _, sess := range sessions {
		if !sess.quarantined { // a resumed roster's dead placeholder
			s.startReader(sess)
			reachable++
		}
	}
	s.opened = true
	s.shut = false
	// Selection handshakes are session setup, not round traffic: rebase
	// the meter so the first round's byte deltas start clean.
	s.ob.resetMeterBase()
	s.health.open.Store(true)
	s.health.roster.Store(int64(reachable))
	s.health.round.Store(int64(s.nextRound))
}

// journalSessionOpen writes the session fingerprint and the roster, in
// selection order, through the journal. The order is load-bearing:
// cohort sampling permutes roster indices, so recovery must rebuild the
// roster in exactly this order.
func (s *Server) journalSessionOpen(sessions []*session) {
	if s.cfg.Journal == nil {
		return
	}
	s.journalAppend(&journal.Record{
		Type:   journal.RecSession,
		Flags:  s.sessionFlags(),
		Seed:   s.cfg.SampleSeed,
		Rounds: s.cfg.Rounds,
		Scale:  s.cfg.SecAggScaleBits,
		Floor:  s.cfg.MinRelease,
	})
	for _, sess := range sessions {
		s.journalAppend(rosterRecord(sess))
	}
	if s.cfg.MinRelease > 0 {
		s.journalAppend(&journal.Record{Type: journal.RecFloor, Floor: s.cfg.MinRelease})
	}
	_ = s.cfg.Journal.Sync()
}

// sessionFlags is the journaled fingerprint of the session mode, which
// Recover validates the recovering configuration against.
func (s *Server) sessionFlags() uint64 {
	var flags uint64
	if s.cfg.SecAgg {
		flags |= journal.FlagSecAgg
	}
	if s.cfg.Partials {
		flags |= journal.FlagPartials
	}
	if s.cfg.Async.Enabled {
		flags |= journal.FlagAsync
	}
	if s.cfg.RequireTEE {
		flags |= journal.FlagRequireTEE
	}
	if s.cfg.EdgePeers {
		flags |= journal.FlagEdgePeers
	}
	return flags
}

// rosterRecord is one peer's journaled admission.
func rosterRecord(sess *session) *journal.Record {
	return &journal.Record{
		Type:    journal.RecRoster,
		Device:  sess.device,
		Codec:   uint8(sess.codec),
		Cap:     uint8(sess.cap),
		HasTEE:  sess.hasTEE,
		MaskPub: sess.maskPub,
	}
}

// journalAppend writes one record when a journal is configured.
// Best-effort by design: durability failures surface via Journal.Err,
// not by failing training rounds.
func (s *Server) journalAppend(rec *journal.Record) {
	if s.cfg.Journal != nil {
		_ = s.cfg.Journal.Append(rec)
	}
}

// StepRound executes one FL cycle over the open session. In the default
// mode the round's weighted-mean update is applied to the server state
// and StepRound returns (nil, nil); in hierarchical partial mode
// (ServerConfig.Partials) the state is left untouched and the round's
// partial aggregate is returned for upstream forwarding. Rounds must be
// stepped with strictly increasing indices.
func (s *Server) StepRound(round int) (*Partial, error) {
	if !s.opened || s.shut {
		return nil, errors.New("fl: StepRound outside an open session")
	}
	// Write-ahead: mark the round in flight. Records between this open
	// and the round's close commit atomically at the close; a crash
	// leaves them uncommitted and recovery re-runs the round.
	s.journalAppend(&journal.Record{Type: journal.RecRoundOpen, Round: round})
	var p *Partial
	var err error
	switch {
	case s.cfg.EdgePeers:
		p, err = s.runEdgeRound(round)
	case s.cfg.SecAgg:
		p, err = s.runSecAggRound(round)
	default:
		p, err = s.runRound(round)
	}
	if round+1 > s.nextRound {
		s.nextRound = round + 1
	}
	if err != nil {
		return nil, err
	}
	s.maybeAdaptCodec()
	return p, nil
}

// Admit enrols further edge peers into the open session between rounds
// — the way back in for a crashed-and-recovered edge. Each connection
// runs the ordinary enrolment handshake; a name still live in the
// session is turned away, and the dead session it replaces stays dead,
// so stale arrivals from its old read loop keep filtering out by
// session identity. Device sessions do not admit mid-session: their
// cohort draws permute a roster that recovery must be able to replay.
// Call from the goroutine driving StepRound.
func (s *Server) Admit(conns []Conn) error {
	if !s.opened || s.shut || !s.cfg.EdgePeers {
		return errors.New("fl: Admit outside an open edge-peer session")
	}
	for _, sess := range s.selectClients(conns) {
		live := false
		for _, other := range s.sessions {
			live = live || (!other.quarantined && other.device == sess.device)
		}
		if live {
			s.reject(sess.conn, fmt.Sprintf("edge %q is already enrolled", sess.device))
			continue
		}
		s.journalAppend(rosterRecord(sess))
		s.sessions = append(s.sessions, sess)
		s.health.roster.Add(1)
		s.startReader(sess)
	}
	return nil
}

// Close ends the open session: every non-quarantined client receives a
// Done carrying the final model (the server's state when final is nil),
// encoded once per negotiated codec and broadcast, then the connections
// are torn down. Best effort: a client that died after contributing
// does not fail the completed session.
func (s *Server) Close(final []*tensor.Tensor) error {
	if !s.opened || s.shut {
		return nil
	}
	if final == nil {
		final = s.state
	}
	finalFrames := make(map[wire.Codec][]byte)
	for _, sess := range s.sessions {
		if sess.quarantined {
			continue
		}
		payload, ok := finalFrames[sess.codec]
		if !ok {
			payload = EncodeMessageCodec(&Done{Final: final}, sess.codec)
			finalFrames[sess.codec] = payload
		}
		_ = sess.conn.SendFrame(MsgDone, payload)
	}
	s.shutdown()
	return nil
}

// Abort tears the open session down without a final-model broadcast
// (failed rounds, upstream loss at a hierarchical edge). Safe to call
// on an unopened or already-closed session.
func (s *Server) Abort() { s.shutdown() }

func (s *Server) shutdown() {
	if !s.opened || s.shut {
		return
	}
	s.shut = true
	close(s.done)
	var enclaved []string
	for _, sess := range s.sessions {
		_ = sess.conn.Close()
		if sess.enclaveChannel {
			enclaved = append(enclaved, sess.device)
		}
	}
	s.readers.Wait()
	// Release the per-device trusted channels held inside the enclave:
	// they are session state, and leaving them registered after an
	// abort leaks TA memory for the life of the process (and blocks the
	// devices from re-establishing in a later session).
	if len(enclaved) > 0 && s.cfg.Enclave != nil {
		s.cfg.Enclave.ReleaseChannels(enclaved)
	}
	// The server itself outlives the session: quarantine/probation
	// history is retained (see history) and Open may be called again.
	s.health.open.Store(false)
	s.opened = false
	s.sessions = nil
	if s.cfg.Journal != nil {
		_ = s.cfg.Journal.Sync()
	}
}

// SetState adopts new global model values in place (hierarchical edges
// take the root's model each round). Shapes must match the
// construction-time state.
func (s *Server) SetState(model []*tensor.Tensor) error {
	if len(model) != len(s.state) {
		return fmt.Errorf("fl: model has %d tensors, state has %d", len(model), len(s.state))
	}
	for i, t := range model {
		if t == nil || !t.SameShape(s.state[i]) {
			return fmt.Errorf("fl: model tensor %d does not match state shape %v", i, s.state[i].Shape)
		}
	}
	for i, t := range model {
		copy(s.state[i].Data, t.Data)
	}
	return nil
}

// SetRoundTrace adopts an upstream-minted round trace ID: the next
// StepRound stamps it on its spans and forwards it to clients in
// ModelDown.Trace, so a stitched timeline correlates the tiers of one
// fleet round. 0 restores self-minting (obs.RoundTrace of the round
// number). Call between rounds, from the goroutine driving StepRound —
// hierarchical edges call it with ShardDown.Trace before each round.
func (s *Server) SetRoundTrace(id uint64) {
	s.roundTrace = id
}

// maybeAdaptCodec runs the one-shot adaptive downgrade after a round
// closes: once the applied update norm falls below the threshold, every
// capable client is switched to q8 for the rest of the session.
func (s *Server) maybeAdaptCodec() {
	if s.cfg.AdaptiveCodec <= 0 || s.adapted || len(s.trace) == 0 {
		return
	}
	last := s.trace[len(s.trace)-1]
	if last.UpdateNorm <= 0 || last.UpdateNorm >= s.cfg.AdaptiveCodec {
		return
	}
	s.adapted = true
	for _, sess := range s.sessions {
		if sess.quarantined || sess.codec >= wire.CodecQ8 || sess.cap < wire.CodecQ8 {
			continue
		}
		// Best effort: a client we cannot reach keeps its old codec and
		// will be quarantined by the next round's distribution anyway.
		if err := sess.conn.Send(&CodecSwitch{Codec: wire.CodecQ8}); err != nil {
			continue
		}
		// Only the send side flips now; the receive side keeps decoding
		// the old codec until the client's CodecSwitch ack arrives in the
		// read loop, so an in-flight old-codec update (a straggler racing
		// the switch) still decodes instead of poisoning the stream.
		sess.codec = wire.CodecQ8
		sess.conn.SetSendCodec(wire.CodecQ8)
	}
}

// startReader spawns the read loop of one session member; shutdown
// waits for it.
func (s *Server) startReader(sess *session) {
	s.readers.Add(1)
	go func() {
		defer s.readers.Done()
		readLoop(sess, s.arrivals, s.done)
	}()
}

// readLoop pumps one connection into the shared arrival channel until
// the connection fails or the session shuts down. Two cases are handled
// here rather than in the round goroutine because they must act before
// the *next* frame is read: a client's CodecSwitch ack flips the
// receive codec (every later frame is new-codec — FIFO framing), and a
// decode failure (ErrDecode) leaves the length-prefixed stream intact,
// so the loop keeps reading instead of treating the connection as dead.
func readLoop(sess *session, arrivals chan<- arrival, done <-chan struct{}) {
	for {
		msg, err := sess.conn.Recv()
		if cs, ok := msg.(*CodecSwitch); ok && cs.Codec.Valid() {
			sess.conn.SetRecvCodec(cs.Codec)
		}
		select {
		case arrivals <- arrival{sess: sess, msg: msg, err: err}:
		case <-done:
			return
		}
		if err != nil && !errors.Is(err, ErrDecode) {
			return
		}
	}
}

// selectWorkers bounds the parallel attestation pool during client
// selection.
const selectWorkers = 8

// selectClients performs Fig. 2 step 1 — challenge, attestation
// verification, trusted-channel establishment — across a bounded worker
// pool. Clients that fail are rejected individually; input order is
// preserved so sampling stays deterministic.
func (s *Server) selectClients(conns []Conn) []*session {
	results := make([]*session, len(conns))
	workers := min(selectWorkers, len(conns))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = s.selectOne(conns[i])
			}
		}()
	}
	for i := range conns {
		work <- i
	}
	close(work)
	wg.Wait()

	var out []*session
	for _, sess := range results {
		if sess != nil {
			out = append(out, sess)
		}
	}
	return out
}

// selectOne runs the selection handshake with a single connection,
// returning nil when the client is rejected or unreachable. On
// deadline-capable transports the whole handshake is bounded by
// IOTimeout; afterwards only writes stay bounded, since reads are paced
// by the round deadline.
func (s *Server) selectOne(conn Conn) *session {
	SetMeter(conn, s.ob.wireMeter())
	dc, hasDeadlines := conn.(DeadlineConn)
	if hasDeadlines && s.cfg.IOTimeout > 0 {
		dc.SetReadTimeout(s.cfg.IOTimeout)
		dc.SetWriteTimeout(s.cfg.IOTimeout)
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		s.reject(conn, fmt.Sprintf("generating nonce: %v", err))
		return nil
	}
	// In enclave-backed secure-aggregation sessions the trusted-channel
	// offer is generated inside the enclave, so the private half (and
	// later the channel keys) never exist in server memory.
	enclaved := s.cfg.SecAgg && s.cfg.Enclave != nil
	var offer *tz.ChannelOffer
	var offerID uint64
	var serverPub []byte
	establishedOffer := false
	if enclaved {
		var err error
		offerID, serverPub, err = s.cfg.Enclave.NewOffer()
		if err != nil {
			s.reject(conn, fmt.Sprintf("enclave channel offer: %v", err))
			return nil
		}
		// A handshake that fails before establishment must not leak the
		// offer in the enclave for the life of the process.
		defer func() {
			if !establishedOffer {
				s.cfg.Enclave.DiscardOffer(offerID)
			}
		}()
	} else {
		var err error
		offer, err = tz.NewChannelOffer()
		if err != nil {
			s.reject(conn, fmt.Sprintf("channel offer: %v", err))
			return nil
		}
		serverPub = offer.Public
	}
	ch := &Challenge{Nonce: nonce, ServerPub: serverPub, RequireTEE: s.cfg.RequireTEE, Codec: s.cfg.Codec}
	if s.cfg.SecAgg {
		ch.SecAgg = true
		ch.ScaleBits = uint8(s.cfg.SecAggScaleBits)
		ch.MaskDegree = s.cfg.MaskDegree
		if enclaved {
			// The quote covers nonce ‖ offered channel key, binding the
			// enclave identity to the key clients will seal against.
			quote, err := s.cfg.Enclave.Attest(secagg.AggQuoteNonce(nonce, serverPub))
			if err != nil {
				s.reject(conn, fmt.Sprintf("enclave attestation: %v", err))
				return nil
			}
			ch.AggQuote = quote
		}
	}
	if err := conn.Send(ch); err != nil {
		_ = conn.Close()
		return nil
	}
	msg, err := conn.Recv()
	if err != nil {
		_ = conn.Close()
		return nil
	}
	att, ok := msg.(*Attest)
	if !ok {
		s.reject(conn, fmt.Sprintf("sent %T instead of Attest", msg))
		return nil
	}
	if !att.Codec.Valid() || att.Codec > s.cfg.Codec {
		s.reject(conn, fmt.Sprintf("codec %s exceeds offered %s", att.Codec, s.cfg.Codec))
		return nil
	}
	if !att.Cap.Valid() {
		att.Cap = att.Codec // an unknown claimed cap is no cap at all
	}
	if s.cfg.EdgePeers && att.DeviceID == "" {
		s.reject(conn, "edge enrolment without a name") // the name is the shard identity
		return nil
	}
	if s.resuming {
		// Resumption: the device must be a member of the journaled
		// roster — its admission (including attestation) was already
		// journaled by the crashed process, so it rejoins without
		// re-attesting. The trust model is explicit: the journal is as
		// trusted as the server host that wrote it. Unknown devices and
		// devices the crashed session quarantined are turned away.
		ent := s.rosterEntry(att.DeviceID)
		if ent == nil {
			s.reject(conn, "device is not a member of the resumed session")
			return nil
		}
		if h := s.history[att.DeviceID]; h != nil && h.quarantined {
			s.reject(conn, "device was quarantined before the crash")
			return nil
		}
		if s.cfg.RequireTEE && !att.HasTEE {
			s.reject(conn, "device has no TEE")
			return nil
		}
	} else if s.cfg.RequireTEE {
		if !att.HasTEE {
			s.reject(conn, "device has no TEE")
			return nil
		}
		if err := s.cfg.Verifier.Verify(att.Quote, nonce); err != nil {
			s.reject(conn, fmt.Sprintf("attestation failed: %v", err))
			return nil
		}
	}
	if s.cfg.SecAgg && !s.cfg.EdgePeers { // mask rosters are shard-scoped: an edge holds no mask key
		if len(att.MaskPub) == 0 {
			s.reject(conn, "secure aggregation requires a mask public key")
			return nil
		}
		if err := secagg.ValidateMaskPub(att.MaskPub); err != nil {
			s.reject(conn, fmt.Sprintf("invalid mask public key: %v", err))
			return nil
		}
	}
	sess := &session{conn: conn, device: att.DeviceID, hasTEE: att.HasTEE, codec: att.Codec, cap: att.Cap, maskPub: att.MaskPub}
	if att.HasTEE && len(att.ClientPub) > 0 {
		if enclaved {
			if err := s.cfg.Enclave.Establish(offerID, att.DeviceID, att.ClientPub); err != nil {
				s.reject(conn, fmt.Sprintf("enclave channel establishment failed: %v", err))
				return nil
			}
			establishedOffer = true
			sess.enclaveChannel = true
		} else {
			channel, err := offer.Establish(att.ClientPub, true)
			if err != nil {
				s.reject(conn, fmt.Sprintf("channel establishment failed: %v", err))
				return nil
			}
			sess.channel = channel
		}
	} else if enclaved {
		// The masked layout must be uniform across the cohort: a client
		// unable to take protected tensors through the sealed path
		// cannot participate once the planner protects anything.
		s.reject(conn, "secure aggregation with an enclave requires a trusted channel")
		return nil
	}
	conn.SetCodec(att.Codec)
	if hasDeadlines {
		dc.SetReadTimeout(0) // reads are round-paced from here on
	}
	return sess
}

func (s *Server) reject(conn Conn, reason string) {
	// Best effort: a client that has already gone away stays rejected.
	_ = conn.Send(&Reject{Reason: reason})
	_ = conn.Close()
}

// live returns the sessions eligible for the round — neither
// permanently quarantined nor on probation — in selection order.
func live(sessions []*session, round int) []*session {
	var out []*session
	for _, sess := range sessions {
		if sess.eligible(round) {
			out = append(out, sess)
		}
	}
	return out
}

// sample draws the round's cohort from the live sessions using the
// seeded RNG. Selection order is preserved. The permutation is always
// drawn over the full selected roster — never the live subset — so the
// RNG consumes an identical number of draws every round and the cohort
// sequence is invariant to quarantine/probation history: restricting a
// uniform roster permutation to the live subset leaves a uniform
// permutation of that subset, whose first k members are a uniform
// k-subset.
func (s *Server) sample(live []*session) []*session {
	n := len(live)
	k := n
	switch {
	case s.cfg.SampleCount > 0:
		k = s.cfg.SampleCount
	case s.cfg.SampleFraction > 0 && s.cfg.SampleFraction < 1:
		k = int(math.Ceil(float64(n) * s.cfg.SampleFraction))
	}
	if k < s.cfg.MinClients {
		k = s.cfg.MinClients
	}
	perm := s.rng.Perm(len(s.sessions))
	if k >= n {
		return live
	}
	liveSet := make(map[*session]bool, n)
	for _, sess := range live {
		liveSet[sess] = true
	}
	idx := make([]int, 0, k)
	for _, i := range perm {
		if liveSet[s.sessions[i]] {
			idx = append(idx, i)
			if len(idx) == k {
				break
			}
		}
	}
	sort.Ints(idx)
	out := make([]*session, 0, k)
	for _, i := range idx {
		out = append(out, s.sessions[i])
	}
	return out
}

// quarantineAt excludes a failed client. Stragglers are *not*
// quarantined — only training, protocol, and transport failures. With
// QuarantineRounds configured, probationable (non-transport) failures
// put the client on probation (connection kept, re-eligible after the
// configured number of rounds); transport failures — the connection is
// gone — and the QuarantineRounds=0 default are permanent.
func (s *Server) quarantineAt(sess *session, round int, probationable bool, reason error, stats *RoundStats, reasons *[]string) {
	if sess.quarantined {
		return
	}
	*reasons = append(*reasons, fmt.Sprintf("%s: %v", sess.device, reason))
	if probationable && s.cfg.QuarantineRounds > 0 {
		// Probation: the connection stays open and the client returns
		// after the window — accounted and signalled separately from
		// permanent loss.
		sess.probationUntil = round + 1 + s.cfg.QuarantineRounds
		s.noteHistory(sess.device).probationUntil = sess.probationUntil
		s.journalAppend(&journal.Record{Type: journal.RecProbation, Device: sess.device, Until: sess.probationUntil})
		stats.Probation++
		s.health.probation.Add(1)
		if s.cfg.Hooks.ClientProbationed != nil {
			s.cfg.Hooks.ClientProbationed(sess.device, reason)
		}
		return
	}
	sess.quarantined = true
	s.noteHistory(sess.device).quarantined = true
	s.journalAppend(&journal.Record{Type: journal.RecQuarantine, Device: sess.device})
	_ = sess.conn.Close()
	stats.Quarantined++
	s.health.quarantined.Add(1)
	if s.cfg.Hooks.ClientQuarantined != nil {
		s.cfg.Hooks.ClientQuarantined(sess.device, reason)
	}
}

// noteHistory returns (creating if needed) a device's durable standing.
func (s *Server) noteHistory(device string) *deviceHistory {
	h := s.history[device]
	if h == nil {
		h = &deviceHistory{}
		s.history[device] = h
	}
	return h
}

// closeRound commits a round: the journal close record (carrying the
// applied mean update for successful flat rounds, so recovery replays
// the model bit-identically without re-training), the trace entry, and
// the observer hook — in that order, so a crash inside a hook still
// finds the round committed on disk. Asynchronous sessions commit
// model versions as watermarks instead: they burn no sampling draws on
// replay.
func (s *Server) closeRound(stats RoundStats, ok bool, applied []*tensor.Tensor) {
	// Stamp the round's wire byte deltas into stats and fold it into the
	// counters first, so the trace entry below carries BytesUp/BytesDown.
	s.ob.noteClose(&stats, ok)
	if s.cfg.Journal != nil {
		typ := journal.RecRoundClose
		if s.cfg.Async.Enabled {
			typ = journal.RecWatermark
		}
		s.journalAppend(&journal.Record{
			Type:   typ,
			Round:  stats.Round,
			OK:     ok,
			Stats:  stats,
			Update: applied,
		})
		_ = s.cfg.Journal.Sync()
	}
	s.traceMu.Lock()
	s.trace = append(s.trace, stats)
	s.traceMu.Unlock()
	s.health.round.Store(int64(stats.Round + 1))
	if s.cfg.Hooks.RoundClosed != nil {
		s.cfg.Hooks.RoundClosed(stats)
	}
}

// mergeTelemetry folds a telemetry snapshot attached by a peer (tier
// "client" or "edge") into the server registry under tier/shard
// provenance labels. A snapshot that fails to decode is dropped
// silently — telemetry must never fail a round.
func (s *Server) mergeTelemetry(tier, peer string, blob []byte) {
	if s.cfg.Metrics == nil || len(blob) == 0 {
		return
	}
	snap, err := obs.DecodeSnapshot(blob)
	if err != nil {
		return
	}
	s.cfg.Metrics.MergeSnapshot(snap, "tier", tier, "shard", peer)
}

// buildModelDown assembles one client's round message, splitting
// protected tensors into the sealed path when the client has a trusted
// channel.
func (s *Server) buildModelDown(round int, sess *session, protected map[int]bool, planBlob []byte) (*ModelDown, error) {
	down := &ModelDown{Round: round, Plan: planBlob, Version: uint64(round), Trace: s.curTrace}
	down.Plain = make([]*tensor.Tensor, len(s.state))
	var secretIdx []int
	var secretTs []*tensor.Tensor
	for i, p := range s.state {
		if protected[i] && sess.channel != nil {
			secretIdx = append(secretIdx, i)
			secretTs = append(secretTs, p)
		} else {
			down.Plain[i] = p
		}
	}
	if len(secretIdx) > 0 {
		down.Sealed = sess.channel.Seal(wire.EncodeSealedUpdate(secretIdx, secretTs))
	}
	return down, nil
}

// mergeUpdate reassembles a client's full flat update from its plain and
// sealed halves and validates it against the model shapes.
func (s *Server) mergeUpdate(sess *session, up *GradUp) ([]*tensor.Tensor, error) {
	full := make([]*tensor.Tensor, len(s.state))
	copy(full, up.Tensors())
	if len(up.Sealed) > 0 {
		if sess.channel == nil {
			return nil, errors.New("sealed update without an established channel")
		}
		blob, err := sess.channel.Open(up.Sealed)
		if err != nil {
			return nil, fmt.Errorf("unsealing update: %w", err)
		}
		idx, ts, err := wire.DecodeSealedUpdate(blob)
		if err != nil {
			return nil, fmt.Errorf("parsing sealed update: %w", err)
		}
		for j, id := range idx {
			if id < 0 || id >= len(full) {
				return nil, fmt.Errorf("sealed update index %d out of range", id)
			}
			full[id] = ts[j]
		}
	}
	for i, u := range full {
		if u == nil {
			return nil, fmt.Errorf("update missing tensor %d", i)
		}
		if !u.SameShape(s.state[i]) {
			return nil, fmt.Errorf("update tensor %d has shape %v, want %v", i, u.Shape, s.state[i].Shape)
		}
	}
	return full, nil
}

// FedAvg returns the elementwise mean of the client updates — the
// buffered reference implementation. The round engine itself streams
// through an Aggregator; for unit weights and equal fold order the two
// are bit-for-bit identical. All updates must be complete and
// shape-consistent (the server validates before calling).
func FedAvg(updates [][]*tensor.Tensor) []*tensor.Tensor {
	if len(updates) == 0 {
		return nil
	}
	out := make([]*tensor.Tensor, len(updates[0]))
	for i := range out {
		acc := updates[0][i].Clone()
		for _, u := range updates[1:] {
			tensor.AddInPlace(acc, u[i])
		}
		out[i] = tensor.Scale(acc, 1/float64(len(updates)))
	}
	return out
}

// ApplyUpdate adds scale×update to state in place. Updates are weight
// deltas (W_local − W_global), so scale 1 performs standard FedAvg.
func ApplyUpdate(state, update []*tensor.Tensor, scale float64) {
	for i, u := range update {
		tensor.AxPy(scale, u, state[i])
	}
}

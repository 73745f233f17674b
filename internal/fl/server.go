package fl

import (
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
	// pre-codec decoders simply never read). Validate refuses a codec
	// the wire does not know.
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
	// 0 selects secagg.DefaultScaleBits, and Validate refuses anything
	// outside [0, secagg.MaxScaleBits].
	SecAggScaleBits int
	// MaskDegree is the degree k of the per-round k-regular mask graph
	// in SecAgg sessions: each client masks against k neighbours and
	// double-masks with a self seed Shamir-shared among them, so masking
	// costs O(k·cohort) and a round survives any ⌊(k−1)/2⌋ dropouts. 0
	// (secagg.AutoDegree, the default) sizes k from each round's cohort
	// — secagg.DegreeFor: ≈ ⌈log₂ cohort⌉, never below 6, i.e. at least
	// 2 arbitrary dropouts per round; a positive value pins k
	// (deployments expecting heavier churn). Either is capped at the
	// complete graph. Validate rejects negative values.
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
	// mutually exclusive with SecAgg, Partials and Async — Validate
	// rejects the combinations.
	Aggregation AggMethod
	// TrimFraction is the per-tail trim for AggTrimmedMean: the
	// ⌈TrimFraction·n⌉ largest and smallest values of every coordinate
	// are discarded before averaging. Must be in (0, 0.5).
	TrimFraction float64

	// Journal, when set, makes the session crash-durable: roster
	// admissions, quarantine/probation transitions, release-floor
	// raises and round opens/folds/closes are written through it, and
	// Recover rebuilds a resumable server from the log after a crash.
	// A failed append (an I/O error, a record too large to replay) is
	// sticky in Journal.Err, and the round that saw it returns it:
	// StepRound and Run fail rather than run on without durability.
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

	// Async configures the asynchronous buffered-federation mode
	// (FedBuff-style), which Run paces when Async.Enabled: no round
	// barrier, clients push updates whenever ready and the server folds
	// them into a staleness-weighted buffer applied every
	// Async.GoalUpdates arrivals. Rounds then counts buffered
	// applications (model versions) rather than synchronous cycles.
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
	// Rejoin, in an edge-peer session, is polled by Run before every
	// round for edge connections re-entering the session (a recovered
	// edge redialling after a crash). Each runs the ordinary enrolment
	// handshake; a name still live in the session is turned away, and
	// the dead session it replaces stays dead, so stale arrivals from its
	// old read loop keep filtering out by session identity. It runs on
	// the round goroutine and may block — in simulations that is what
	// makes rejoin timing deterministic. Device sessions never poll it:
	// their cohort draws permute a roster that recovery must be able to
	// replay.
	Rejoin func(round int) []Conn

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
	// the whole sequence at the configured pace; hierarchical edges step
	// rounds under upstream control.
	sessions []*session
	arrivals chan arrival
	done     chan struct{}
	readers  sync.WaitGroup
	opened   bool
	shut     bool
	// adapted latches the one-shot adaptive codec downgrade.
	adapted bool
	// agg is the session's FedAvg aggregator (fedAvg), built on first
	// use and reset by every round or window that folds through it.
	agg *Aggregator
	// spare is the shared broadcast frame a synchronous round handed
	// back at its close (syncRound.recycle), which the next round
	// encodes its model into.
	spare frameSlot
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
	// roster, on a journal-recovered server until its session reopens,
	// holds the crashed session's admissions in selection order: Open
	// matches devices against it instead of verifying them from scratch
	// and rebuilds s.sessions in exactly this order so sampling draws
	// line up.
	roster []*journal.Record
}

// deviceHistory is a device's durable standing across sessions.
type deviceHistory struct {
	quarantined    bool
	probationUntil int
}

// NewServer creates a server owning the given initial global model state
// (flat parameter tensors; the slice is used in place). It fills zero
// settings with their defaults; Open refuses a configuration Validate
// rejects.
func NewServer(state []*tensor.Tensor, cfg ServerConfig) *Server {
	if cfg.Planner == nil {
		cfg.Planner = NoProtection{}
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 1
	}
	if cfg.MinClients == 0 {
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
	if cfg.SecAggScaleBits == 0 {
		cfg.SecAggScaleBits = secagg.DefaultScaleBits
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
		if cfg.Async.GoalUpdates == 0 {
			cfg.Async.GoalUpdates = cfg.MinClients
		}
		if cfg.Async.Buffer == 0 {
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
		spare:   newFrameSlot(),
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

// Run is the session driver: Open over the given connections — a fresh
// selection, or on a journal-recovered server (Recover) the rejoin of
// the crashed session — then cfg.Rounds rounds at the configured pace,
// from the first uncommitted one: barrier-free version windows when
// Async.Enabled (runAsync), synchronous rounds otherwise, each preceded
// in an edge-peer session by the Rejoin poll. Every surviving peer ends
// with a Done carrying the final model. It returns the number of
// admitted peers.
func (s *Server) Run(conns []Conn) (int, error) {
	n, err := s.Open(conns)
	if err != nil {
		return n, err
	}
	if s.cfg.Async.Enabled {
		// runAsync hands each surviving device its Done; Abort only tears
		// the session down.
		err = s.runAsync()
		s.Abort()
		if err == nil {
			err = s.journalErr()
		}
		if err != nil {
			return n, fmt.Errorf("fl: async: %w", err)
		}
		return n, nil
	}
	for round := s.nextRound; round < s.cfg.Rounds; round++ {
		if s.cfg.EdgePeers && s.cfg.Rejoin != nil {
			s.admit(s.cfg.Rejoin(round))
		}
		if _, err := s.StepRound(round); err != nil {
			s.Abort()
			return n, fmt.Errorf("fl: round %d: %w", round, err)
		}
	}
	return n, s.Close(nil)
}

// StepRound executes one FL cycle over the open session. In the default
// mode the round's weighted-mean update is applied to the server state
// and StepRound returns (nil, nil); in hierarchical partial mode
// (ServerConfig.Partials) the state is left untouched and the round's
// PartialUp — the un-normalised sum with the shard accounting filled in
// — is returned for upstream forwarding; its Sum aliases the session's
// aggregator and stays valid until the next StepRound. A partial-mode
// round that failed after it opened returns its accounting-only
// PartialUp together with the error. A round that left the journal
// failed (Journal.Err) returns that error. Rounds must be stepped with
// strictly increasing indices.
func (s *Server) StepRound(round int) (*PartialUp, error) {
	if !s.opened || s.shut {
		return nil, errors.New("fl: StepRound outside an open session")
	}
	// Write-ahead: mark the round in flight. Records between this open
	// and the round's close commit atomically at the close; a crash
	// leaves them uncommitted and recovery re-runs the round.
	s.journalAppend(&journal.Record{Type: journal.RecRoundOpen, Round: round})
	up, err := s.runRound(round)
	if round+1 > s.nextRound {
		s.nextRound = round + 1
	}
	if err == nil {
		err = s.journalErr()
	}
	if err == nil {
		s.maybeAdaptCodec()
	}
	return up, err
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
	frames := make(map[wire.Codec][]byte)
	for _, sess := range s.sessions {
		if !sess.quarantined {
			_ = sendDone(frames, sess, final)
		}
	}
	s.shutdown()
	return nil
}

// sendDone hands sess the session's closing Done through frames, its
// encode-once cache: one serialisation of final per negotiated codec,
// shared by every peer that speaks it.
func sendDone(frames map[wire.Codec][]byte, sess *session, final []*tensor.Tensor) error {
	payload, ok := frames[sess.codec]
	if !ok {
		payload = EncodeMessageCodec(&Done{Final: final}, sess.codec)
		frames[sess.codec] = payload
	}
	return sess.conn.SendFrame(MsgDone, payload)
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

// SetState adopts new global model values in place from the views of a
// received model (hierarchical edges take the root's ShardDown each
// round). Every view must fit the construction-time state (View.Fits)
// before any is decoded into it.
func (s *Server) SetState(model []*wire.View) error {
	if len(model) != len(s.state) {
		return fmt.Errorf("fl: model has %d tensors, state has %d", len(model), len(s.state))
	}
	for i, v := range model {
		if !v.Fits(s.state[i]) {
			return fmt.Errorf("fl: model tensor %d does not match state shape %v", i, s.state[i].Shape)
		}
	}
	for i, v := range model {
		v.Decode(s.state[i].Data, 0)
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

// mergeUpdate reassembles a client's full flat update from its plain
// views and its sealed half, which is read through f64 views into the
// freshly opened blob; the aggregator validates the result.
func (s *Server) mergeUpdate(sess *session, up *GradUp) ([]*wire.View, error) {
	if len(up.Sealed) == 0 {
		return up.Views, nil
	}
	if sess.channel == nil {
		return nil, errors.New("sealed update without an established channel")
	}
	blob, err := sess.channel.Open(up.Sealed)
	if err != nil {
		return nil, fmt.Errorf("unsealing update: %w", err)
	}
	idx, sealed, err := wire.DecodeSealedViews(blob)
	if err != nil {
		return nil, fmt.Errorf("parsing sealed update: %w", err)
	}
	full := make([]*wire.View, len(s.state))
	copy(full, up.Views)
	for j, id := range idx {
		if id < 0 || id >= len(full) {
			return nil, fmt.Errorf("sealed update index %d out of range", id)
		}
		full[id] = sealed[j]
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

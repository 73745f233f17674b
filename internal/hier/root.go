package hier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// ErrNotEnoughShards is returned when enrolment leaves fewer edges than
// MinShards, or when fewer than MinShards shard partials fold before a
// round closes.
var ErrNotEnoughShards = errors.New("hier: not enough shards")

// RootConfig configures the hierarchy root.
type RootConfig struct {
	// Rounds is the number of FL cycles to run.
	Rounds int
	// MinShards is the per-round partial floor: a round fails when
	// fewer shards contribute a non-empty partial. 0 requires every
	// enrolled edge.
	MinShards int
	// ShardDeadline bounds each round at the root: shards that have not
	// forwarded their partial when it expires are dropped for the round
	// (they stay enrolled). 0 waits for every live shard — per-round
	// wall time is then exactly the slowest shard's. Edges pace their
	// own clients with their own RoundDeadline.
	ShardDeadline time.Duration
	// Codec is the tensor codec offered to edges for the downstream
	// model broadcast (ShardDown); an edge may negotiate down. Partial
	// sums always travel exactly, whatever is negotiated.
	Codec wire.Codec
	// SecAgg announces masked secure aggregation for the whole
	// hierarchy: each edge runs its shard in masked mode with a
	// shard-scoped mask roster and forwards ring-sum partials.
	SecAgg bool
	// SecAggScaleBits is the fleet-wide fixed-point precision; every
	// shard must quantise identically or the ring sums would not
	// compose. 0 selects secagg.DefaultScaleBits.
	SecAggScaleBits int
	// MaskDegree is the fleet-wide mask-graph degree, adopted by every
	// edge for its shard-scoped rosters (fl.ServerConfig.MaskDegree): 0
	// (secagg.AutoDegree) sizes each shard round's k-regular graph from
	// its cohort, >0 pins the degree; Run rejects a negative value.
	// Shard graphs are independent (each shard's roster seeds its own
	// graph), and their reconciled ring sums compose additively at the
	// root.
	MaskDegree int
	// MinRelease, in secure-aggregation sessions, is the fleet-wide
	// release floor: a round whose composed partials fold fewer client
	// updates never publishes its aggregate (secagg.ErrCohortTooSmall).
	// Shard-level floors are the edges' own ServerConfig.MinRelease.
	// 0 disables.
	MinRelease int
	// IOTimeout bounds enrolment reads and broadcast writes on
	// deadline-capable transports. 0 disables.
	IOTimeout time.Duration
	// Clock supplies wall time for shard deadlines. Defaults to the
	// real clock; flsim injects a virtual one.
	Clock simclock.WallClock
	// Journal, when set, receives the root's write-ahead records —
	// enrolments, round opens, and committed closes carrying the
	// applied fleet mean — so a crashed root recovers with RecoverRoot
	// to the same model and round, bit for bit.
	Journal *journal.Journal
	// Rejoin, when set, is polled at the start of every round for edge
	// connections re-entering the session (a recovered edge redialling
	// after a crash). Each returned connection runs the ordinary
	// enrolment handshake; a name already live in the session is turned
	// away. The callback runs on the root's round goroutine and may
	// block — in simulations that is what makes rejoin timing
	// deterministic.
	Rejoin func(round int) []fl.Conn
	// Hooks observe the root lifecycle; all callbacks fire from the
	// root's round goroutine.
	Hooks Hooks
	// Metrics, when set, receives the root's fleet telemetry: round
	// counters, fan-in duration, and per-shard partial latency. Nil
	// disables metrics with no hot-path cost.
	Metrics *obs.Registry
	// Spans, when set, receives root round spans timed on Clock.
	Spans *obs.TraceSink
}

// Hooks observe the hierarchy root. Any field may be nil.
type Hooks struct {
	// RoundStarted fires after the round's ShardDown broadcast is
	// prepared, before it is distributed.
	RoundStarted func(round int, shards []string)
	// PartialFolded fires after a shard's partial is folded into the
	// round accumulator.
	PartialFolded func(round int, shard string)
	// ShardDropped fires when an edge is removed from the session
	// (transport failure or protocol violation).
	ShardDropped func(shard string, reason error)
	// RoundClosed fires after the round's aggregate is applied (or the
	// round failed).
	RoundClosed func(stats fl.RoundStats)
}

// Root drives a hierarchical FL session over a set of edge-aggregator
// connections: per round it broadcasts the global model once per
// negotiated codec, folds O(shards) partial aggregates, normalises once
// over the fleet, and applies the update.
type Root struct {
	cfg   RootConfig
	state []*tensor.Tensor
	ob    *rootObs

	// traceMu guards trace: the round goroutine appends, Trace (callable
	// from any goroutine, e.g. an admin health handler) copies.
	traceMu sync.Mutex
	trace   []fl.RoundStats

	// Session state lives on the struct (not Run's stack) so Abort can
	// tear a crashed-and-recovered harness down from outside Run.
	sessions  []*edgeSess
	arrivals  chan edgeArrival
	done      chan struct{}
	readers   sync.WaitGroup
	opened    bool
	shut      bool
	nextRound int
	recovered bool
}

// NewRoot creates a root owning the given global model state (flat
// parameter tensors; the slice is updated in place).
func NewRoot(state []*tensor.Tensor, cfg RootConfig) *Root {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.MinShards < 0 {
		cfg.MinShards = 0 // resolved to the enrolled edge count in Run
	}
	if !cfg.Codec.Valid() {
		cfg.Codec = wire.CodecF64
	}
	if cfg.SecAggScaleBits <= 0 || cfg.SecAggScaleBits > secagg.MaxScaleBits {
		cfg.SecAggScaleBits = secagg.DefaultScaleBits
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real()
	}
	return &Root{cfg: cfg, state: state, ob: newRootObs(&cfg)}
}

// State returns the current global model parameters.
func (r *Root) State() []*tensor.Tensor { return r.state }

// Trace returns a copy of the per-round statistics for the session so
// far, in round order. Sampled/Responded/Dropped/… are fleet-wide
// sums over the shard accounting carried by each PartialUp; Shards
// counts the partials folded. Safe to call from any goroutine while
// the session is running.
func (r *Root) Trace() []fl.RoundStats {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	out := make([]fl.RoundStats, len(r.trace))
	copy(out, r.trace)
	return out
}

// rootObs holds the root's pre-resolved telemetry handles; nil when
// observability is disabled, and every method is nil-receiver-safe.
type rootObs struct {
	clock simclock.WallClock
	spans *obs.TraceSink

	roundsOK     *obs.Counter
	roundsFailed *obs.Counter
	fanIn        *obs.Histogram
	partial      *obs.Histogram

	// bcastAt is the current round's broadcast completion instant;
	// owned by the round goroutine.
	bcastAt time.Time
}

func newRootObs(cfg *RootConfig) *rootObs {
	if cfg.Metrics == nil && cfg.Spans == nil {
		return nil
	}
	r := cfg.Metrics // nil registry hands out nil (no-op) instruments
	return &rootObs{
		clock:        cfg.Clock,
		spans:        cfg.Spans,
		roundsOK:     r.Counter("gradsec_hier_rounds_total", "hierarchical rounds closed at the root by result", "result", "ok"),
		roundsFailed: r.Counter("gradsec_hier_rounds_total", "hierarchical rounds closed at the root by result", "result", "failed"),
		fanIn:        r.Histogram("gradsec_hier_fanin_ns", "root fan-in latency (broadcast end to collect end) in nanoseconds"),
		partial:      r.Histogram("gradsec_hier_partial_ns", "per-shard partial latency from broadcast end in nanoseconds"),
	}
}

// startRound opens the root round span.
func (o *rootObs) startRound(round int) *obs.Span {
	if o == nil {
		return nil
	}
	return o.spans.Start("hier_round", round)
}

// setTrace stamps the round-scoped trace ID on spans started from now
// on; forwarded to the sink, nil-safe end to end.
func (o *rootObs) setTrace(id uint64) {
	if o == nil {
		return
	}
	o.spans.SetTrace(id)
}

// markBroadcast stamps the end of the shard broadcast — the origin for
// fan-in and per-shard partial latency.
func (o *rootObs) markBroadcast() {
	if o == nil {
		return
	}
	o.bcastAt = o.clock.Now()
}

// notePartial records one shard partial's latency since broadcast end.
func (o *rootObs) notePartial() {
	if o == nil {
		return
	}
	o.partial.Observe(o.clock.Now().Sub(o.bcastAt).Nanoseconds())
}

// noteFanIn records the full fan-in duration for the round.
func (o *rootObs) noteFanIn() {
	if o == nil {
		return
	}
	o.fanIn.Observe(o.clock.Now().Sub(o.bcastAt).Nanoseconds())
}

// noteClose counts the round by result.
func (o *rootObs) noteClose(ok bool) {
	if o == nil {
		return
	}
	if ok {
		o.roundsOK.Inc()
	} else {
		o.roundsFailed.Inc()
	}
}

// edgeSess is the root's per-edge state, owned by the round goroutine.
type edgeSess struct {
	conn  fl.Conn
	name  string
	codec wire.Codec
	dead  bool
}

// edgeArrival is one message (or terminal transport error) from an
// edge's read loop.
type edgeArrival struct {
	sess *edgeSess
	msg  fl.Message
	err  error
}

// Run enrols the given edge connections and executes cfg.Rounds
// hierarchical FL cycles, then closes the edges with a Done carrying
// the final model. It returns the number of enrolled edges. A root
// rebuilt by RecoverRoot starts at the first uncommitted round instead
// of round 0.
func (r *Root) Run(edges []fl.Conn) (int, error) {
	if r.cfg.MaskDegree < 0 {
		return 0, fmt.Errorf("%w: got %d", fl.ErrBadMaskDegree, r.cfg.MaskDegree)
	}
	sessions := r.enrol(edges)
	if r.cfg.MinShards == 0 {
		// "Every edge": whatever enrolled defines the floor — but never
		// less than one shard.
		r.cfg.MinShards = max(1, len(sessions))
	}
	if len(sessions) < r.cfg.MinShards {
		for _, sess := range sessions {
			r.reject(sess.conn, "not enough edge aggregators enrolled")
		}
		return len(sessions), fmt.Errorf("%w: %d of %d enrolled", ErrNotEnoughShards, len(sessions), r.cfg.MinShards)
	}
	r.journalSessionOpen(sessions)

	r.sessions = sessions
	r.arrivals = make(chan edgeArrival, len(sessions))
	r.done = make(chan struct{})
	for _, sess := range sessions {
		r.startReader(sess)
	}
	r.opened = true
	r.shut = false

	for round := r.nextRound; round < r.cfg.Rounds; round++ {
		r.admitRejoins(round)
		if err := r.runRound(round, r.arrivals); err != nil {
			r.shutdown()
			return len(sessions), fmt.Errorf("hier: round %d: %w", round, err)
		}
	}

	// Encode-once final broadcast, mirroring the flat engine.
	finalFrames := make(map[wire.Codec][]byte)
	for _, sess := range r.sessions {
		if sess.dead {
			continue
		}
		payload, ok := finalFrames[sess.codec]
		if !ok {
			payload = fl.EncodeMessageCodec(&fl.Done{Final: r.state}, sess.codec)
			finalFrames[sess.codec] = payload
		}
		_ = sess.conn.SendFrame(fl.MsgDone, payload)
	}
	r.shutdown()
	return len(sessions), nil
}

// startReader spawns the read loop for one enrolled edge.
func (r *Root) startReader(sess *edgeSess) {
	r.readers.Add(1)
	go func() {
		defer r.readers.Done()
		for {
			msg, err := sess.conn.Recv()
			select {
			case r.arrivals <- edgeArrival{sess: sess, msg: msg, err: err}:
			case <-r.done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// Abort tears the session down without a final broadcast: connections
// close, readers drain, the journal is flushed. Used by crash harnesses
// after recovering a panic out of Run.
func (r *Root) Abort() { r.shutdown() }

func (r *Root) shutdown() {
	if !r.opened || r.shut {
		return
	}
	r.shut = true
	close(r.done)
	for _, sess := range r.sessions {
		_ = sess.conn.Close()
	}
	r.readers.Wait()
	if r.cfg.Journal != nil {
		_ = r.cfg.Journal.Sync()
	}
	r.opened = false
}

// journalAppend writes one record through the configured journal; a
// no-op without one.
func (r *Root) journalAppend(rec *journal.Record) {
	if r.cfg.Journal != nil {
		_ = r.cfg.Journal.Append(rec)
	}
}

// journalSessionOpen writes the session fingerprint and the enrolled
// shard roster. A recovered root continues its old journal and does
// not re-fingerprint.
func (r *Root) journalSessionOpen(sessions []*edgeSess) {
	if r.cfg.Journal == nil || r.recovered {
		return
	}
	var flags uint64
	scale := 0
	if r.cfg.SecAgg {
		flags |= journal.FlagSecAgg
		scale = r.cfg.SecAggScaleBits
	}
	r.journalAppend(&journal.Record{
		Type:   journal.RecSession,
		Flags:  flags,
		Rounds: r.cfg.Rounds,
		Scale:  scale,
		Floor:  r.cfg.MinRelease,
	})
	for _, sess := range sessions {
		r.journalAppend(&journal.Record{Type: journal.RecRoster, Device: sess.name, Codec: uint8(sess.codec)})
	}
	_ = r.cfg.Journal.Sync()
}

// admitRejoins enrols connections from the Rejoin callback into the
// running session — the path a crashed-and-recovered edge takes back
// in. A name still live in the session is turned away; the dead
// session it replaces stays dead, so stale arrivals from its old read
// loop keep filtering out by session identity.
func (r *Root) admitRejoins(round int) {
	if r.cfg.Rejoin == nil {
		return
	}
	for _, conn := range r.cfg.Rejoin(round) {
		sess := r.enrolOne(conn)
		if sess == nil {
			continue
		}
		dup := false
		for _, s := range r.sessions {
			if !s.dead && s.name == sess.name {
				dup = true
				break
			}
		}
		if dup {
			r.reject(sess.conn, fmt.Sprintf("edge %q is already enrolled", sess.name))
			continue
		}
		r.journalAppend(&journal.Record{Type: journal.RecRoster, Device: sess.name, Codec: uint8(sess.codec)})
		r.sessions = append(r.sessions, sess)
		r.startReader(sess)
	}
}

// enrol runs the enrolment handshake with every edge in parallel,
// preserving input order and turning away duplicates, so shard
// identity is deterministic.
func (r *Root) enrol(edges []fl.Conn) []*edgeSess {
	results := make([]*edgeSess, len(edges))
	var wg sync.WaitGroup
	for i, conn := range edges {
		wg.Add(1)
		go func(i int, conn fl.Conn) {
			defer wg.Done()
			results[i] = r.enrolOne(conn)
		}(i, conn)
	}
	wg.Wait()

	seen := make(map[string]bool, len(edges))
	var out []*edgeSess
	for _, sess := range results {
		if sess == nil {
			continue
		}
		if seen[sess.name] {
			r.reject(sess.conn, fmt.Sprintf("duplicate edge name %q", sess.name))
			continue
		}
		seen[sess.name] = true
		out = append(out, sess)
	}
	return out
}

// enrolOne performs the enrolment handshake with a single edge,
// returning nil when it is rejected or unreachable.
func (r *Root) enrolOne(conn fl.Conn) *edgeSess {
	if dc, ok := conn.(fl.DeadlineConn); ok && r.cfg.IOTimeout > 0 {
		dc.SetReadTimeout(r.cfg.IOTimeout)
		dc.SetWriteTimeout(r.cfg.IOTimeout)
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		r.reject(conn, fmt.Sprintf("generating nonce: %v", err))
		return nil
	}
	ch := &fl.Challenge{Nonce: nonce, Codec: r.cfg.Codec}
	if r.cfg.SecAgg {
		ch.SecAgg = true
		ch.ScaleBits = uint8(r.cfg.SecAggScaleBits)
		ch.MaskDegree = r.cfg.MaskDegree
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
	att, ok := msg.(*fl.Attest)
	if !ok {
		r.reject(conn, fmt.Sprintf("sent %T instead of Attest", msg))
		return nil
	}
	if att.DeviceID == "" {
		r.reject(conn, "edge enrolment without a name")
		return nil
	}
	if !att.Codec.Valid() || att.Codec > r.cfg.Codec {
		r.reject(conn, fmt.Sprintf("codec %s exceeds offered %s", att.Codec, r.cfg.Codec))
		return nil
	}
	conn.SetCodec(att.Codec)
	if dc, ok := conn.(fl.DeadlineConn); ok {
		dc.SetReadTimeout(0) // reads are round-paced from here on
	}
	return &edgeSess{conn: conn, name: att.DeviceID, codec: att.Codec}
}

func (r *Root) reject(conn fl.Conn, reason string) {
	_ = conn.Send(&fl.Reject{Reason: reason})
	_ = conn.Close()
}

// dropEdge removes an edge from the session permanently.
func (r *Root) dropEdge(sess *edgeSess, reason error) {
	if sess.dead {
		return
	}
	sess.dead = true
	_ = sess.conn.Close()
	if r.cfg.Hooks.ShardDropped != nil {
		r.cfg.Hooks.ShardDropped(sess.name, reason)
	}
}

// roundAccum folds shard partials for one round. Exactly one of sum
// (plain) or levels (masked) is populated.
type roundAccum struct {
	sum    []*tensor.Tensor
	levels [][]uint64
	weight float64
	count  int
	shards int
}

// runRound executes one hierarchical FL cycle.
func (r *Root) runRound(round int, arrivals <-chan edgeArrival) error {
	var live []*edgeSess
	for _, sess := range r.sessions {
		if !sess.dead {
			live = append(live, sess)
		}
	}
	if len(live) < r.cfg.MinShards {
		return fmt.Errorf("%w: %d live shards, need %d", ErrNotEnoughShards, len(live), r.cfg.MinShards)
	}
	// Write-ahead: the round is in flight; records before its close
	// stay uncommitted if the root dies, and recovery re-runs it.
	r.journalAppend(&journal.Record{Type: journal.RecRoundOpen, Round: round})
	if round+1 > r.nextRound {
		r.nextRound = round + 1
	}

	stats := fl.RoundStats{Round: round}
	var reasons []string
	// The root mints the fleet-wide trace ID for the round: it rides the
	// ShardDown to every edge (and from there to every client), so spans
	// emitted at any tier this round share one correlation ID.
	trace := obs.RoundTrace(round)
	r.ob.setTrace(trace)
	roundSpan := r.ob.startRound(round)
	defer roundSpan.End()

	var deadlineC <-chan time.Time
	if r.cfg.ShardDeadline > 0 {
		timer := r.cfg.Clock.NewTimer(r.cfg.ShardDeadline)
		defer timer.Stop()
		deadlineC = timer.C
	}

	if r.cfg.Hooks.RoundStarted != nil {
		names := make([]string, len(live))
		for i, sess := range live {
			names[i] = sess.name
		}
		r.cfg.Hooks.RoundStarted(round, names)
	}

	// Encode-once shard broadcast: every edge on the same codec shares
	// one ShardDown frame.
	shared := make(map[wire.Codec][]byte)
	pending := make(map[*edgeSess]bool, len(live))
	for _, sess := range live {
		payload, ok := shared[sess.codec]
		if !ok {
			payload = fl.EncodeMessageCodec(&fl.ShardDown{Round: round, Model: r.state, Trace: trace}, sess.codec)
			shared[sess.codec] = payload
		}
		if err := sess.conn.SendFrame(fl.MsgShardDown, payload); err != nil {
			r.dropEdge(sess, fmt.Errorf("sending model: %w", err))
			reasons = append(reasons, fmt.Sprintf("%s: send: %v", sess.name, err))
			continue
		}
		pending[sess] = true
	}
	r.ob.markBroadcast()

	acc := &roundAccum{}
collect:
	for len(pending) > 0 {
		select {
		case a := <-arrivals:
			r.handleArrival(round, a, pending, acc, &stats, &reasons)
		case <-deadlineC:
			for {
				select {
				case a := <-arrivals:
					r.handleArrival(round, a, pending, acc, &stats, &reasons)
				default:
					break collect
				}
			}
		}
	}
	r.ob.noteFanIn()
	stats.Shards = acc.shards
	stats.Responded = acc.count
	stats.WeightTotal = acc.weight

	if acc.shards < r.cfg.MinShards || acc.count == 0 {
		detail := ""
		if len(reasons) > 0 {
			detail = " (" + strings.Join(reasons, "; ") + ")"
		}
		err := fmt.Errorf("%w: %d shard partials folded (%d updates), need %d shards%s",
			ErrNotEnoughShards, acc.shards, acc.count, r.cfg.MinShards, detail)
		r.closeRound(stats, false, nil)
		return err
	}
	if r.cfg.SecAgg && r.cfg.MinRelease > 0 && acc.count < r.cfg.MinRelease {
		// Below the fleet-wide release floor the composed aggregate
		// approaches an individual shard's (or client's) update; refuse
		// to dequantise it, mirroring the flat engine's policy.
		err := fmt.Errorf("%w: %d of %d required for release", secagg.ErrCohortTooSmall, acc.count, r.cfg.MinRelease)
		r.closeRound(stats, false, nil)
		return err
	}

	mean := r.mean(acc)
	stats.UpdateNorm = fl.UpdateNorm(mean)
	fl.ApplyUpdate(r.state, mean, 1.0)
	r.closeRound(stats, true, mean)
	return nil
}

// mean normalises the round accumulator over the fleet weight. The
// arithmetic mirrors the flat engine exactly — dequantise the composed
// ring sum (masked) or take the composed float sum (plain), then one
// Scale by 1/weight — so dyadic fleets reproduce flat FedAvg bit for
// bit.
func (r *Root) mean(acc *roundAccum) []*tensor.Tensor {
	inv := 1 / acc.weight
	out := make([]*tensor.Tensor, len(r.state))
	if acc.sum != nil {
		for i, s := range acc.sum {
			out[i] = tensor.Scale(s, inv)
		}
		return out
	}
	scale := secagg.ScaleFor(r.cfg.SecAggScaleBits)
	for i, lv := range acc.levels {
		t := tensor.New(r.state[i].Shape...)
		secagg.Dequantise(lv, scale, t.Data)
		out[i] = tensor.Scale(t, inv)
	}
	return out
}

// closeRound commits the round: journal close record (with the applied
// fleet mean for successful rounds), trace, observer hook — in that
// order, so a crash inside a hook still finds the round durable.
func (r *Root) closeRound(stats fl.RoundStats, ok bool, applied []*tensor.Tensor) {
	if r.cfg.Journal != nil {
		r.journalAppend(&journal.Record{
			Type:   journal.RecRoundClose,
			Round:  stats.Round,
			OK:     ok,
			Stats:  rootJournalStats(stats),
			Update: applied,
		})
		_ = r.cfg.Journal.Sync()
	}
	r.ob.noteClose(ok)
	r.traceMu.Lock()
	r.trace = append(r.trace, stats)
	r.traceMu.Unlock()
	if r.cfg.Hooks.RoundClosed != nil {
		r.cfg.Hooks.RoundClosed(stats)
	}
}

func rootJournalStats(st fl.RoundStats) journal.Stats {
	return journal.Stats{
		Round:         st.Round,
		Sampled:       st.Sampled,
		Responded:     st.Responded,
		Dropped:       st.Dropped,
		Quarantined:   st.Quarantined,
		Probation:     st.Probation,
		LateDiscarded: st.LateDiscarded,
		Duplicates:    st.Duplicates,
		Reconciled:    st.Reconciled,
		WeightTotal:   st.WeightTotal,
		UpdateNorm:    st.UpdateNorm,
		Shards:        st.Shards,
	}
}

// handleArrival routes one edge message during a round: fold a valid
// partial, discard stale ones, drop the edge on failure.
func (r *Root) handleArrival(round int, a edgeArrival, pending map[*edgeSess]bool, acc *roundAccum, stats *fl.RoundStats, reasons *[]string) {
	sess := a.sess
	if sess.dead {
		return // residue from an already-closed connection
	}
	if a.err != nil {
		delete(pending, sess)
		r.dropEdge(sess, fmt.Errorf("transport: %w", a.err))
		*reasons = append(*reasons, fmt.Sprintf("%s: transport: %v", sess.name, a.err))
		return
	}
	switch m := a.msg.(type) {
	case *fl.PartialUp:
		if m.Round < round {
			// A slow shard's answer to an earlier round it was dropped
			// from: stale, the fleet has moved on.
			stats.LateDiscarded++
			return
		}
		if m.Round > round || !pending[sess] {
			delete(pending, sess)
			r.dropEdge(sess, fmt.Errorf("unexpected partial for round %d during round %d", m.Round, round))
			*reasons = append(*reasons, fmt.Sprintf("%s: protocol violation", sess.name))
			return
		}
		delete(pending, sess)
		// Shard accounting folds into the fleet-wide stats whether or
		// not the shard contributed updates.
		stats.Sampled += int(m.Sampled)
		stats.Dropped += int(m.Dropped)
		stats.Quarantined += int(m.Quarantined)
		stats.LateDiscarded += int(m.LateDiscarded)
		stats.Reconciled += int(m.Reconciled)
		stats.Probation += int(m.Probation)
		// Fold the shard's telemetry delta into the fleet registry before
		// the empty-partial check: a degraded shard round's accounting is
		// exactly what the fleet view must not lose. Decode failures drop
		// the blob, never the partial — telemetry must not perturb
		// training.
		if len(m.Telemetry) > 0 && r.cfg.Metrics != nil {
			if snap, err := obs.DecodeSnapshot(m.Telemetry); err == nil {
				r.cfg.Metrics.MergeSnapshot(snap, "tier", "edge", "shard", sess.name)
			}
		}
		if m.Count == 0 {
			*reasons = append(*reasons, fmt.Sprintf("%s: empty partial (shard round failed)", sess.name))
			return
		}
		if err := r.fold(acc, m); err != nil {
			r.dropEdge(sess, err)
			*reasons = append(*reasons, fmt.Sprintf("%s: %v", sess.name, err))
			return
		}
		r.ob.notePartial()
		if r.cfg.Hooks.PartialFolded != nil {
			r.cfg.Hooks.PartialFolded(round, sess.name)
		}
	case *fl.ErrorMsg:
		delete(pending, sess)
		r.dropEdge(sess, fmt.Errorf("edge error: %s", m.Text))
		*reasons = append(*reasons, fmt.Sprintf("%s: %s", sess.name, m.Text))
	default:
		delete(pending, sess)
		r.dropEdge(sess, fmt.Errorf("unexpected %T mid-round", a.msg))
		*reasons = append(*reasons, fmt.Sprintf("%s: protocol violation", sess.name))
	}
}

// fold validates one shard partial against the session mode and model
// layout, then composes it into the accumulator. Validation precedes
// every mutation, so a rejected partial leaves the round consistent.
func (r *Root) fold(acc *roundAccum, m *fl.PartialUp) error {
	if !(m.Weight > 0) || math.IsInf(m.Weight, 0) {
		return fmt.Errorf("hier: partial with weight %v", m.Weight)
	}
	if r.cfg.SecAgg {
		if len(m.Sum) != 0 {
			return errors.New("hier: plain partial in a secure-aggregation session")
		}
		if int(m.ScaleBits) != r.cfg.SecAggScaleBits {
			return fmt.Errorf("hier: partial quantised at %d bits, session runs %d", m.ScaleBits, r.cfg.SecAggScaleBits)
		}
		if len(m.Levels) != len(r.state) {
			return fmt.Errorf("hier: partial covers %d tensors, model has %d", len(m.Levels), len(r.state))
		}
		for i, lv := range m.Levels {
			if lv == nil || len(lv.Levels) != r.state[i].Size() || lv.Size() != r.state[i].Size() {
				return fmt.Errorf("hier: partial levels for tensor %d do not match the model", i)
			}
		}
		if acc.levels == nil {
			acc.levels = make([][]uint64, len(r.state))
			for i, t := range r.state {
				acc.levels[i] = make([]uint64, t.Size())
			}
		}
		for i, lv := range m.Levels {
			dst := acc.levels[i]
			for j, l := range lv.Levels {
				dst[j] += l
			}
		}
	} else {
		if len(m.Levels) != 0 {
			return errors.New("hier: masked partial in a plain session")
		}
		if len(m.Sum) != len(r.state) {
			return fmt.Errorf("hier: partial covers %d tensors, model has %d", len(m.Sum), len(r.state))
		}
		for i, t := range m.Sum {
			if t == nil || !t.SameShape(r.state[i]) {
				return fmt.Errorf("hier: partial tensor %d does not match the model", i)
			}
		}
		if acc.sum == nil {
			acc.sum = make([]*tensor.Tensor, len(r.state))
			for i, t := range r.state {
				acc.sum[i] = tensor.New(t.Shape...)
			}
		}
		for i, t := range m.Sum {
			tensor.AddInPlace(acc.sum[i], t)
		}
	}
	acc.weight += m.Weight
	acc.count += int(m.Count)
	acc.shards++
	return nil
}

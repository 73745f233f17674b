package fl

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// syncRound is the state one round (or one asynchronous version
// window) carries between its steps. runRound, runSecAggRound,
// runEdgeRound and runAsync drive it through the same skeleton — open,
// send, wait on handleArrival, gate, applyMean — and add only their own
// pacing, fold and close (docs/ROUNDS.md).
type syncRound struct {
	round   int
	sampled []*session
	// pending holds the reached peers still owed an answer. In an
	// asynchronous session it outlives the version window: a device
	// armed in one version may answer in a later one.
	pending map[*session]bool
	// frames is the encode-once cache of the window's shared model
	// frame, one serialisation per negotiated codec.
	frames  map[wire.Codec][]byte
	stats   RoundStats
	reasons []string
	// deadline fires when RoundDeadline expires; nil waits forever.
	deadline <-chan time.Time
	timer    *simclock.Timer
	ptRound  phaseTimer
	ptSample phaseTimer
}

// openRound is the prologue of a synchronous round: resolve the trace
// ID, open the round and sample phases, draw the cohort, arm the
// deadline and announce the round. The caller defers finish.
func (s *Server) openRound(round int) (*syncRound, error) {
	alive := live(s.sessions, round)
	if len(alive) < s.cfg.MinClients {
		return nil, fmt.Errorf("%w: %d live clients, need %d", ErrNotEnoughClients, len(alive), s.cfg.MinClients)
	}
	// Resolve the round's trace ID before the first span opens: adopted
	// from upstream (hierarchical edge) or minted deterministically here.
	s.curTrace = s.roundTrace
	if s.curTrace == 0 {
		s.curTrace = obs.RoundTrace(round)
	}
	s.ob.setTrace(s.curTrace)
	rd := &syncRound{round: round, pending: make(map[*session]bool), frames: make(map[wire.Codec][]byte)}
	rd.ptRound = s.ob.startPhase("round", round)
	rd.ptSample = s.ob.startPhase("sample", round)
	rd.sampled = s.sample(alive)
	rd.stats = RoundStats{Round: round, Sampled: len(rd.sampled)}

	// Arm the deadline before any model leaves the server so time spent
	// distributing counts against the round budget.
	s.armDeadline(rd)
	if s.cfg.Hooks.RoundStarted != nil {
		s.cfg.Hooks.RoundStarted(round, deviceNames(rd.sampled))
	}
	return rd, nil
}

// armDeadline starts the RoundDeadline timer, when one is configured.
func (s *Server) armDeadline(rd *syncRound) {
	if s.cfg.RoundDeadline > 0 {
		rd.timer = s.cfg.Clock.NewTimer(s.cfg.RoundDeadline)
		rd.deadline = rd.timer.C
	}
}

// finish ends the round phase and disarms the deadline.
func (rd *syncRound) finish() {
	rd.ptRound.end()
	if rd.timer != nil {
		rd.timer.Stop()
	}
}

// deviceNames lists the sessions' device names in order.
func deviceNames(sessions []*session) []string {
	names := make([]string, len(sessions))
	for i, sess := range sessions {
		names[i] = sess.device
	}
	return names
}

// distribute is the synchronous broadcast: the round's model (a
// ModelDown, or a ShardDown to edge peers) goes to the whole cohort. The
// shared frames are serialised inside the sample phase, so the
// broadcast phase times the fan-out alone.
func (s *Server) distribute(rd *syncRound, down Message, sealed func(*session) bool, seal func(*session) (*ModelDown, error)) {
	rd.encode(down, rd.sampled, sealed)
	rd.ptSample.end()
	ptBroadcast := s.ob.startPhase("broadcast", rd.round)
	s.send(rd, rd.sampled, down, sealed, seal)
	ptBroadcast.end()
}

// encode serialises down once per negotiated codec among the peers that
// take the shared frame (sealed reports false); codecs the window has
// already serialised cost nothing.
func (rd *syncRound) encode(down Message, to []*session, sealed func(*session) bool) {
	for _, sess := range to {
		if _, ok := rd.frames[sess.codec]; !ok && !sealed(sess) {
			rd.frames[sess.codec] = EncodeMessageCodec(down, sess.codec)
		}
	}
}

// unsealed is the sealed predicate of a window without protected
// tensors: every peer takes the shared frame.
func unsealed(*session) bool { return false }

// send hands the window's model to the given peers — in parallel, or
// inline when there is one — and marks every reached peer pending; one
// that cannot be reached is quarantined. Encode-once broadcast: every
// peer for which sealed reports false receives the identical bytes,
// serialised from down once per negotiated codec instead of once per
// peer. Only the rest need a per-client build from seal — their sealed
// payload is keyed to their own trusted channel. The sends are not
// interruptible by the round deadline; on deadline-capable transports
// (TCP) each write is bounded by cfg.IOTimeout instead.
func (s *Server) send(rd *syncRound, to []*session, down Message, sealed func(*session) bool, seal func(*session) (*ModelDown, error)) {
	rd.encode(down, to, sealed) // the fan-out below only reads the cache
	sendOne := func(sess *session) error {
		if !sealed(sess) {
			return sess.conn.SendFrame(down.Kind(), rd.frames[sess.codec])
		}
		own, err := seal(sess)
		if err != nil {
			return err
		}
		return sess.conn.Send(own)
	}
	sendErrs := make([]error, len(to))
	if len(to) == 1 {
		sendErrs[0] = sendOne(to[0])
	} else {
		var sends sync.WaitGroup
		for i, sess := range to {
			sends.Add(1)
			go func(i int, sess *session) {
				defer sends.Done()
				sendErrs[i] = sendOne(sess)
			}(i, sess)
		}
		sends.Wait()
	}
	for i, sess := range to {
		if sendErrs[i] != nil {
			s.quarantineAt(sess, rd.round, false, fmt.Errorf("sending model: %w", sendErrs[i]), &rd.stats, &rd.reasons)
			continue
		}
		rd.pending[sess] = true
		sess.sentVersion = rd.round
	}
}

// await routes arrivals through handleArrival until nobody is pending
// or the deadline fires; answers that raced the deadline are still
// taken, then the wait is over for whoever is left pending.
func (s *Server) await(rd *syncRound, lose func(*session, bool, error), take func(*session, Message) bool) {
	for len(rd.pending) > 0 {
		select {
		case a := <-s.arrivals:
			s.handleArrival(a, lose, take)
		case <-rd.deadline:
			for {
				select {
				case a := <-s.arrivals:
					s.handleArrival(a, lose, take)
				default:
					return
				}
			}
		}
	}
}

// collect is the synchronous wait: the cohort's answers fold through
// update until the deadline, and whoever is still pending then is
// dropped for the round.
func (s *Server) collect(rd *syncRound, update func(*session, Message) bool) {
	ptCollect := s.ob.startPhase("collect", rd.round)
	s.await(rd, func(sess *session, probationable bool, reason error) {
		s.failClient(rd, sess, probationable, reason)
	}, update)
	ptCollect.end()
	rd.stats.Dropped = len(rd.pending)
}

// handleArrival is the one place the server classifies what a peer's
// read loop delivered, for every wait of every mode: collect,
// reconciliation, an asynchronous version window and its drain. Residue
// of a closed connection and codec acks are dropped; a failed read, a
// client error and a message the caller does not take are handed to
// lose — the caller's sanction — with whether the failure is
// probationable; everything else goes to take, which reports false for
// a message type the wait has no use for.
func (s *Server) handleArrival(a arrival, lose func(*session, bool, error), take func(*session, Message) bool) {
	sess := a.sess
	if sess.quarantined {
		return // residue from an already-closed connection
	}
	if a.err != nil {
		// A frame that failed to decode is a client protocol fault on a
		// still-usable connection (probationable); anything else means
		// the transport is gone (permanent).
		lose(sess, errors.Is(a.err, ErrDecode), fmt.Errorf("transport: %w", a.err))
		return
	}
	switch m := a.msg.(type) {
	case *CodecSwitch:
		// The client's ack of an adaptive downgrade; the receive codec
		// already flipped in the read loop. Nothing to fold.
	case *ErrorMsg:
		lose(sess, true, fmt.Errorf("client error: %s", m.Text))
	default:
		if !take(sess, a.msg) {
			lose(sess, true, fmt.Errorf("unexpected %T", a.msg))
		}
	}
}

// failClient takes a client out of the round and quarantines it (or
// puts it on probation, when the failure is probationable): the lose
// rule of every wait but reconciliation.
func (s *Server) failClient(rd *syncRound, sess *session, probationable bool, reason error) {
	delete(rd.pending, sess)
	s.quarantineAt(sess, rd.round, probationable, reason, &rd.stats, &rd.reasons)
}

// admitUpdate applies the checks every update message passes before it
// may fold: it must answer this round, from a client still pending.
// what names the message in the refusal ("update", "masked update").
func (s *Server) admitUpdate(rd *syncRound, sess *session, msgRound int, what string) bool {
	if msgRound < rd.round {
		if msgRound < sess.reconDoneRound {
			// The target round's masks were already reconciled with this
			// device counted as dropped: the survivors' revealed seeds
			// would strip this very update, so accepting — or silently
			// keeping — it is the unmasking window.
			s.failClient(rd, sess, true, fmt.Errorf("%w: %s for round %d", ErrLateAfterRecon, what, msgRound))
			return false
		}
		// A straggler's answer to an earlier round: discard, but keep
		// the client pending — its answer to this round may follow.
		rd.stats.LateDiscarded++
		return false
	}
	if msgRound > rd.round || !rd.pending[sess] {
		s.failClient(rd, sess, true, fmt.Errorf("unexpected %s for round %d during round %d", what, msgRound, rd.round))
		return false
	}
	return true
}

// noteFolded records a folded update: the client has answered, the fold
// is journaled and announced.
func (s *Server) noteFolded(rd *syncRound, sess *session) {
	delete(rd.pending, sess)
	s.journalAppend(&journal.Record{Type: journal.RecFold, Round: rd.round, Device: sess.device})
	if s.cfg.Hooks.UpdateFolded != nil {
		s.cfg.Hooks.UpdateFolded(rd.round, sess.device)
	}
}

// minClientsGate fails the round when fewer than MinClients cohort
// members folded an answer before the deadline, naming what went wrong
// with the rest.
func (s *Server) minClientsGate(rd *syncRound, folded int) error {
	if folded >= s.cfg.MinClients {
		return nil
	}
	err := fmt.Errorf("%w: %d of %d sampled peers responded, need %d%s",
		ErrNotEnoughClients, folded, len(rd.sampled), s.cfg.MinClients, rd.failures())
	s.closeRound(rd.stats, false, nil)
	return err
}

// failures renders what went wrong with the window's peers as an error
// suffix; empty when nothing did.
func (rd *syncRound) failures() string {
	if len(rd.reasons) == 0 {
		return ""
	}
	return " (" + strings.Join(rd.reasons, "; ") + ")"
}

// releaseGate fails a secure-aggregation round whose folded cohort is
// below the release floor: such an aggregate approaches an individual
// update, so the round ends before anything is dequantised. (The
// aggregation enclave enforces the same floor independently at Finish.)
func (s *Server) releaseGate(rd *syncRound, folded int) error {
	if !s.cfg.SecAgg || s.cfg.MinRelease <= 0 || folded >= s.cfg.MinRelease {
		return nil
	}
	s.closeRound(rd.stats, false, nil)
	return fmt.Errorf("%w: %d of %d required for release", secagg.ErrCohortTooSmall, folded, s.cfg.MinRelease)
}

// applyMean commits a successful round: the mean update is applied to
// the model and journaled with the round's close.
func (s *Server) applyMean(rd *syncRound, mean []*tensor.Tensor) {
	rd.stats.UpdateNorm = UpdateNorm(mean)
	ApplyUpdate(s.state, mean, 1.0)
	s.closeRound(rd.stats, true, mean)
}

// updateWeight is the FedAvg weight of an update reporting the given
// local example count: absent (0) means unit weight, and the count is
// clamped so a hostile or buggy client cannot claim an absurd weight
// and drown out the rest of the cohort.
func updateWeight(examples uint64) uint64 {
	if examples == 0 {
		return 1
	}
	return min(examples, MaxExampleWeight)
}

// foldGradUp folds one plaintext update into the aggregate at the given
// weight. A purely-plain update that arrived in the lazy q8 form folds
// its levels straight into the running sum — no per-client float64
// model is ever materialised. Updates with a sealed half take the merge
// path (the sealed tensors are f64 anyway).
func (s *Server) foldGradUp(agg UpdateAggregator, sess *session, m *GradUp, weight float64) error {
	if m.Q8 != nil && len(m.Sealed) == 0 {
		return agg.AccumulateQ8(m.Q8, weight)
	}
	update, err := s.mergeUpdate(sess, m)
	if err != nil {
		return err
	}
	return agg.Add(update, weight)
}

// runRound executes one FL cycle: sample a cohort, distribute the model,
// fold updates as they arrive (streaming FedAvg), and close the round at
// the deadline with whoever responded. In partial mode the aggregate is
// returned un-normalised instead of being applied.
func (s *Server) runRound(round int) (*Partial, error) {
	rd, err := s.openRound(round)
	if err != nil {
		return nil, err
	}
	defer rd.finish()

	protected, planBlob := s.cfg.Planner.PlanRound(round)
	hasProtected := false
	for _, p := range protected {
		if p {
			hasProtected = true
			break
		}
	}
	// Only clients with a trusted channel AND a non-empty protection plan
	// take a sealed payload.
	down := &ModelDown{Round: round, Plain: s.state, Plan: planBlob, Version: uint64(round), Trace: s.curTrace}
	s.distribute(rd, down,
		func(sess *session) bool { return hasProtected && sess.channel != nil },
		func(sess *session) (*ModelDown, error) { return s.buildModelDown(round, sess, protected, planBlob) })

	agg := s.newAggregator()
	s.collect(rd, func(sess *session, msg Message) bool {
		m, ok := msg.(*GradUp)
		if !ok {
			return false
		}
		if !s.admitUpdate(rd, sess, m.Round, "update") {
			return true
		}
		if err := s.foldGradUp(agg, sess, m, float64(updateWeight(m.Examples))); err != nil {
			s.failClient(rd, sess, true, err)
			return true
		}
		if s.cfg.ClientTelemetry {
			s.mergeTelemetry("client", sess.device, m.Telemetry)
		}
		s.noteFolded(rd, sess)
		return true
	})
	rd.stats.Responded = agg.Count()
	rd.stats.WeightTotal = agg.Weight()

	ptClose := s.ob.startPhase("close", round)
	defer ptClose.end()
	if err := s.minClientsGate(rd, rd.stats.Responded); err != nil {
		return nil, err
	}
	if s.cfg.Partials {
		// Hierarchical edge: hand the raw weighted sum upstream; the
		// root normalises once over the whole fleet, so the hierarchy's
		// arithmetic composes exactly.
		s.closeRound(rd.stats, true, nil)
		return &Partial{Round: round, Sum: agg.Sum(), Weight: agg.Weight(), Count: agg.Count(), Stats: rd.stats}, nil
	}
	mean, err := agg.Mean()
	if err != nil {
		s.closeRound(rd.stats, false, nil)
		return nil, err
	}
	s.applyMean(rd, mean)
	return nil, nil
}

package fl

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
// window) carries between its steps. runRound drives every synchronous
// round through it — open, distribute, collect, then publish's gate and
// commit — with the mode supplying only its model frame and its fold
// (collectUpdates, collectMasked, collectPartials); runAsync paces the
// same skeleton without a barrier (docs/ROUNDS.md).
type syncRound struct {
	round   int
	sampled []*session
	// pending holds the reached peers still owed an answer. In an
	// asynchronous session it outlives the version window: a device
	// armed in one version may answer in a later one.
	pending map[*session]bool
	// folded counts the peers whose answer folded (noteFolded): clients,
	// or shards on an edge-peer tier — what MinClients gates.
	folded int
	// frames is the encode-once cache of the window's shared model
	// frame, one serialisation per negotiated codec. A synchronous round
	// encodes it into the server's spare frame and hands it back there
	// at its close when every peer it reached has answered (recycle);
	// an async window's spare is nil.
	frames map[wire.Codec][]byte
	spare  frameSlot
	// reached counts the peers send handed the window's model to.
	reached int
	// sealed is the round's protected half, encoded once (nil when the
	// round protects nothing), and bare the ModelDown a sealing peer
	// takes around its sealed copy of it (protect, seals).
	sealed []byte
	bare   *ModelDown
	// done is the asynchronous drain's encode-once cache of the closing
	// Done (sendDone).
	done    map[wire.Codec][]byte
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
	rd := &syncRound{round: round, pending: make(map[*session]bool), frames: make(map[wire.Codec][]byte), spare: s.spare}
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
func (s *Server) distribute(rd *syncRound, down Message) {
	rd.encode(down, rd.sampled)
	rd.ptSample.end()
	ptBroadcast := s.ob.startPhase("broadcast", rd.round)
	s.send(rd, rd.sampled, down)
	ptBroadcast.end()
}

// encode serialises down once per negotiated codec among the peers that
// take the shared frame, into the spare frame when one fits; codecs the
// window has already serialised cost nothing.
func (rd *syncRound) encode(down Message, to []*session) {
	for _, sess := range to {
		if _, ok := rd.frames[sess.codec]; !ok && !rd.seals(sess) {
			rd.frames[sess.codec] = wire.EncodeInto(rd.spare.take(), sess.codec, down.walk)
		}
	}
}

// recycle hands a synchronous round's shared frames back to the spare
// slot, at its close, if every peer they reached has answered: an
// in-process peer reads the frame itself, through views, until it has
// decoded the model, and it answers only after that (Client releases its
// model before it trains, the edge before its shard round). A round with
// a straggler, a drop or a refused answer leaves its frames to the
// garbage collector — a peer still holding one may read it at any time.
func (rd *syncRound) recycle() {
	if rd.folded != rd.reached {
		return
	}
	for _, f := range rd.frames {
		rd.spare.put(f)
	}
}

// protect arms the round's sealing rule for down: when idx names
// protected tensors, their half is encoded once for the round and bare
// is down with them withheld.
func (rd *syncRound) protect(down *ModelDown, idx []int) {
	if len(idx) == 0 {
		return
	}
	bare := *down
	bare.Plain = slices.Clone(down.Plain)
	half := make([]*tensor.Tensor, len(idx))
	for k, i := range idx {
		half[k], bare.Plain[i] = down.Plain[i], nil
	}
	rd.bare = &bare
	rd.sealed = wire.EncodeSealedUpdate(idx, half)
}

// seals is the one sealing rule: a peer takes a sealed ModelDown if and
// only if the round protects tensors and the peer holds a trusted
// channel, its own or one inside the aggregation enclave.
func (rd *syncRound) seals(sess *session) bool {
	return rd.sealed != nil && (sess.channel != nil || sess.enclaveChannel)
}

// send hands the window's model to the given peers — in parallel, or
// inline when there is one — and marks every reached peer pending; one
// that cannot be reached is quarantined. Encode-once broadcast: every
// peer the round does not seal receives the identical bytes, serialised
// from down once per negotiated codec instead of once per peer; a
// sealing peer takes the bare frame with the protected half sealed on
// its trusted channel — its own, or the one the aggregation enclave
// holds for it. The sends are not interruptible by the round
// deadline; on deadline-capable transports (TCP) each write is bounded
// by cfg.IOTimeout instead.
func (s *Server) send(rd *syncRound, to []*session, down Message) {
	rd.encode(down, to) // the fan-out below only reads the cache
	sendOne := func(sess *session) error {
		if !rd.seals(sess) {
			return sess.conn.SendFrame(down.Kind(), rd.frames[sess.codec])
		}
		own := *rd.bare
		var err error
		if sess.channel != nil {
			own.Sealed = sess.channel.Seal(rd.sealed)
		} else if own.Sealed, err = s.cfg.Enclave.Seal(sess.device, rd.sealed); err != nil {
			return err
		}
		return sess.conn.Send(&own)
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
		rd.reached++
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
// a message type the wait has no use for. It is also the server's
// release point: take folds, or discards, a message's views before it
// returns and keeps nothing that references the frame, so the frame is
// released once the arrival is classified, whatever the verdict. (An
// async push releases earlier, before its reply; asyncPush.)
func (s *Server) handleArrival(a arrival, lose func(*session, bool, error), take func(*session, Message) bool) {
	defer releaseFrame(a.msg)
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

// noteFolded records a folded update: the peer has answered, the fold
// is counted, journaled and announced.
func (s *Server) noteFolded(rd *syncRound, sess *session) {
	delete(rd.pending, sess)
	rd.folded++
	s.journalAppend(&journal.Record{Type: journal.RecFold, Round: rd.round, Device: sess.device})
	if s.cfg.Hooks.UpdateFolded != nil {
		s.cfg.Hooks.UpdateFolded(rd.round, sess.device)
	}
}

// failures renders what went wrong with the window's peers as an error
// suffix; empty when nothing did.
func (rd *syncRound) failures() string {
	if len(rd.reasons) == 0 {
		return ""
	}
	return " (" + strings.Join(rd.reasons, "; ") + ")"
}

// gate refuses to publish an aggregate over too few folds: fewer than
// MinClients peers folded (clients, or shards on an edge-peer tier),
// naming what went wrong with the rest; or, under SecAgg, fewer than
// MinRelease client updates — an aggregate that approaches an individual
// update. (The aggregation enclave enforces the release floor
// independently at Finish.)
func (s *Server) gate(rd *syncRound, count int) error {
	if rd.folded < s.cfg.MinClients {
		return fmt.Errorf("%w: %d of %d sampled peers responded, need %d%s",
			ErrNotEnoughClients, rd.folded, len(rd.sampled), s.cfg.MinClients, rd.failures())
	}
	if s.cfg.SecAgg && s.cfg.MinRelease > 0 && count < s.cfg.MinRelease {
		return fmt.Errorf("%w: %d of %d required for release", secagg.ErrCohortTooSmall, count, s.cfg.MinRelease)
	}
	return nil
}

// applyMean commits a successful round: the mean update — sum, a
// weighted sum of total weight w, times 1/w — is applied to the model
// and journaled with the round's close. A FedAvg round and an async
// window pass the session aggregator's sum; a robust or masked round
// has taken its mean already and passes it with w = 1. It is one pass
// over sum: each element is rounded as Mean rounds it, written back so
// sum holds the mean, squared into UpdateNorm's sum and added to the
// model as ApplyUpdate adds it at scale 1 — so a close reads its sum
// once, not three times, and allocates no mean.
func (s *Server) applyMean(rd *syncRound, sum []*tensor.Tensor, w float64) {
	inv := 1 / w
	var ss float64
	for i, t := range sum {
		model := s.state[i].Data[:len(t.Data)]
		for j, v := range t.Data {
			m := float64(v * inv) // Mean's rounding: v·(1/w)
			t.Data[j] = m
			ss += float64(m * m) // UpdateNorm's: no fused multiply-add
			model[j] += m        // ApplyUpdate's: 1·m is m
		}
	}
	rd.stats.UpdateNorm = math.Sqrt(ss)
	s.closeRound(rd.stats, true, sum)
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
// weight, as views into its frames: no per-client float64 update is
// ever materialised, whatever the codec and whether or not it has a
// sealed half.
func (s *Server) foldGradUp(agg UpdateAggregator, sess *session, m *GradUp, weight float64) error {
	update, err := s.mergeUpdate(sess, m)
	if err != nil {
		return err
	}
	return agg.Accumulate(update, weight)
}

// runRound executes one synchronous FL cycle — the only round body, for
// devices, masked cohorts and edge peers alike: open the round, let the
// mode distribute its model and fold the answers until the deadline
// (collectUpdates, collectMasked, collectPartials), then publish.
func (s *Server) runRound(round int) (*PartialUp, error) {
	rd, err := s.openRound(round)
	if err != nil {
		return nil, err
	}
	defer rd.finish()
	var sum roundSum
	switch {
	case s.cfg.EdgePeers:
		sum = s.collectPartials(rd)
	case s.cfg.SecAgg:
		mr, err := s.openMasked(rd)
		if err != nil {
			return s.fail(rd, err)
		}
		// An enclave half publish does not finish — a failed gate or
		// reconciliation, a hook panicking mid-collect — is aborted.
		defer mr.abort()
		s.collectMasked(rd, mr)
		sum = mr
	default:
		sum = s.collectUpdates(rd)
	}
	up, err := s.publish(rd, sum)
	rd.recycle()
	return up, err
}

// collectUpdates is a plain round's distribute and collect: the model
// goes out under the sealing rule, and each pending client's GradUp for
// this round folds into the configured aggregation strategy — its views,
// merged with a sealed half, in place — then its telemetry.
func (s *Server) collectUpdates(rd *syncRound) UpdateAggregator {
	down, idx := s.planRound(rd)
	down.Version = uint64(rd.round)
	rd.protect(down, idx)
	s.distribute(rd, down)
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
	return agg
}

// planRound asks the planner for the round's protection and builds the
// ModelDown a device round sends — the whole model, the plan blob and
// the round's trace ID — with the protected flat indices in order.
func (s *Server) planRound(rd *syncRound) (*ModelDown, []int) {
	protected, planBlob := s.cfg.Planner.PlanRound(rd.round)
	var idx []int
	for i := range s.state {
		if protected[i] {
			idx = append(idx, i)
		}
	}
	return &ModelDown{Round: rd.round, Plain: s.state, Plan: planBlob, Trace: s.curTrace}, idx
}

// publish ends every synchronous round, inside its close phase: gate,
// then a masked round's reconciliation — strictly after the gates, so no
// seed is revealed for a round that fails its floors — then the commit.
// The mean is applied, or in partial mode the un-normalised sum is
// returned as the round's PartialUp: the tier above normalises once over
// the whole fleet, so the hierarchy's arithmetic composes exactly.
func (s *Server) publish(rd *syncRound, sum roundSum) (*PartialUp, error) {
	ptClose := s.ob.startPhase("close", rd.round)
	defer ptClose.end()
	rd.stats.Responded, rd.stats.WeightTotal = sum.Count(), sum.Weight()
	if err := s.gate(rd, sum.Count()); err != nil {
		return s.fail(rd, err)
	}
	mr, masked := sum.(*maskedRound)
	if masked {
		if err := s.reconcile(rd, mr); err != nil {
			return s.fail(rd, err)
		}
	}
	if s.cfg.Partials {
		up := rd.partial()
		up.Weight, up.Count = sum.Weight(), uint64(sum.Count())
		if masked {
			up.Levels, up.ScaleBits = mr.Levels(), uint8(s.cfg.SecAggScaleBits)
		} else {
			up.Sum = sum.(*Aggregator).Sum()
		}
		s.closeRound(rd.stats, true, nil)
		return up, nil
	}
	if agg, ok := sum.(*Aggregator); ok {
		// The session's aggregator closes like an async window: the mean
		// is taken into its own sum, in the same pass that applies it.
		if agg.Count() == 0 {
			return s.fail(rd, errNoUpdates)
		}
		s.applyMean(rd, agg.sum, agg.Weight())
		return nil, nil
	}
	mean, err := sum.Mean()
	if err != nil {
		return s.fail(rd, err)
	}
	s.applyMean(rd, mean, 1)
	return nil, nil
}

// fail closes a round that failed after it opened. In partial mode the
// round's accounting still goes upstream: the PartialUp returned with
// the error carries it, with nothing folded.
func (s *Server) fail(rd *syncRound, err error) (*PartialUp, error) {
	s.closeRound(rd.stats, false, nil)
	if !s.cfg.Partials {
		return nil, err
	}
	return rd.partial(), err
}

// partial is the round's PartialUp as far as its accounting goes.
func (rd *syncRound) partial() *PartialUp {
	st := rd.stats
	return &PartialUp{Round: rd.round, Sampled: uint64(st.Sampled), Dropped: uint64(st.Dropped),
		Quarantined: uint64(st.Quarantined), Probation: uint64(st.Probation),
		LateDiscarded: uint64(st.LateDiscarded), Reconciled: uint64(st.Reconciled)}
}

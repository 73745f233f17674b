package fl

import (
	"fmt"
	"math"
	"time"

	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/wire"
)

// AsyncConfig parameterises the asynchronous buffered-federation mode
// (ServerConfig.Async, paced by Server.Run). The design follows
// FedBuff, which differs from a synchronous round only in pacing: there
// is no round barrier — every client always holds a model tagged with
// the version it was cut from, trains at its own pace, and pushes its
// update whenever ready; the server folds arrivals into a
// staleness-weighted buffer and applies the buffered aggregate as soon
// as GoalUpdates have accumulated, which bumps the model version. A
// device is re-armed with the then-current model the moment its push is
// processed, so fast devices contribute often and slow devices
// contribute late-but-discounted instead of idling the fleet behind a
// deadline. A version window runs on the round skeleton of round.go
// (docs/ROUNDS.md): same fan-out, same arrival classification, same
// commit.
type AsyncConfig struct {
	// Enabled turns the asynchronous mode on: Run paces the session
	// barrier-free, and ServerConfig.Rounds counts buffered applications
	// (model versions) instead of synchronous cycles. Validate refuses it
	// under SecAgg, Partials or EdgePeers (ErrAsyncMode), and the
	// protection Planner and AdaptiveCodec are ignored.
	Enabled bool
	// GoalUpdates (K) is the buffer goal: the buffered aggregate is
	// applied once this many updates have been folded since the last
	// application. Defaults to MinClients.
	GoalUpdates int
	// MaxStaleness, when positive, discards updates trained on a model
	// more than this many versions behind the current one
	// (RoundStats.LateDiscarded); the pushing device is immediately
	// re-armed with a fresh model and stays healthy. 0 folds any
	// staleness, discounted.
	MaxStaleness int
	// Buffer caps the arrival fan-in channel shared by the
	// per-connection readers. When the server falls behind, readers
	// block — backpressure reaches the transports instead of growing
	// server memory. Defaults to 2×GoalUpdates; values above the fleet
	// size are clamped to it.
	Buffer int
	// MinPushInterval, when positive, rate-limits folds per device: a
	// push arriving within the interval of the device's previous
	// accepted fold is discarded (RoundStats.Duplicates) though the
	// device is still re-armed, so one fast device cannot flood the
	// buffer and crowd out the rest of the fleet.
	MinPushInterval time.Duration
}

// maxAsyncStrikes is the per-device health budget: this many
// consecutive protocol violations (duplicate pushes without an
// outstanding model) sanction the device — probation under
// QuarantineRounds, permanent quarantine otherwise. A folded update
// resets the count.
const maxAsyncStrikes = 3

// DefaultStalenessDiscount maps an update's staleness s (current
// version minus the version it trained on, ≥0) to a weight multiplier
// in (0,1]; the folded weight is the FedAvg example weight times this.
// It is the polynomial discount 1/√(1+s) (FedBuff's choice with a=½):
// a fresh update folds at full weight, one trained 3 versions back at
// half.
func DefaultStalenessDiscount(s int) float64 {
	return 1 / math.Sqrt(1+float64(s))
}

// RunAsync is Run.
//
// Deprecated: Run paces by configuration (Async.Enabled).
func (s *Server) RunAsync(conns []Conn) (int, error) { return s.Run(conns) }

// asyncWindow is one version's window: the round skeleton's state, whose
// pending set — the devices holding a model, each owing exactly one
// push — carries over from window to window, plus the window's buffer,
// model frame and span.
type asyncWindow struct {
	*syncRound
	// agg is the buffer, one for the session: a window's close writes
	// the mean into its sum, and the next window's open resets it, so a
	// version turnover allocates no model-sized tensor.
	agg  *Aggregator
	down *ModelDown
	// span covers the window (async has no sync phases). Its
	// version-scoped trace ID correlates it with the ModelDown frames
	// cut from the version across the fleet.
	span *obs.Span
}

// runAsync paces the round skeleton without a barrier: windows follow
// one another until cfg.Rounds versions are applied, then the session
// drains. The round trace holds one entry per applied version:
// Responded counts folded updates, LateDiscarded over-stale pushes,
// Duplicates duplicate or rate-limited ones, and WeightTotal the
// discounted weight actually applied. Single-goroutine by design:
// arrivals from every connection reader funnel through the bounded
// channel, so folds, version bumps and replies are totally ordered and
// the trace is deterministic for a deterministic arrival order.
func (s *Server) runAsync() error {
	w := &asyncWindow{syncRound: &syncRound{
		pending: make(map[*session]bool, len(s.sessions)),
		done:    make(map[wire.Codec][]byte),
	}, agg: NewAggregator(s.state)}
	// 0 fresh; the first unwatermarked version after recovery.
	s.openVersion(w, s.nextRound)
	lose := func(sess *session, probationable bool, reason error) {
		s.failClient(w.syncRound, sess, probationable, reason)
	}
	take := func(sess *session, msg Message) bool {
		m, ok := msg.(*GradUp)
		if ok {
			s.asyncPush(w, sess, m)
		}
		return ok
	}
	for w.round < s.cfg.Rounds {
		if err := s.asyncStalled(w.syncRound); err != nil {
			s.closeRound(w.stats, false, nil)
			return err
		}
		s.handleArrival(<-s.arrivals, lose, take)
	}
	s.asyncDrain(w.syncRound)
	return nil
}

// openVersion opens the window of a version: journal the boundary,
// announce the eligible devices, and hand the version's model to each of
// them that holds none — the whole fleet at the first window; later the
// pusher whose fold closed the previous window and devices whose
// probation just elapsed (their last interaction was a failure).
func (s *Server) openVersion(w *asyncWindow, version int) {
	w.round, w.sampled = version, live(s.sessions, version)
	w.stats = RoundStats{Round: version, Sampled: len(w.sampled)}
	w.reasons, w.frames = nil, make(map[wire.Codec][]byte)
	w.agg.reset()
	s.journalAppend(&journal.Record{Type: journal.RecRoundOpen, Round: version})
	if s.cfg.Hooks.RoundStarted != nil {
		s.cfg.Hooks.RoundStarted(version, deviceNames(w.sampled))
	}
	s.ob.setTrace(obs.RoundTrace(version))
	w.span = s.ob.spanStart("version", version)
	w.down = &ModelDown{Round: version, Plain: s.state, Version: uint64(version), Trace: obs.RoundTrace(version)}
	var idle []*session
	for _, sess := range w.sampled {
		if !w.pending[sess] {
			idle = append(idle, sess)
		}
	}
	s.send(w.syncRound, idle, w.down)
}

// asyncPush is the window's take: one device's push is checked against
// the model it was handed, folded at its staleness discount (or
// discarded), and answered with the current model — fresh if the fold
// just closed the window, the Done once the version budget is
// exhausted.
func (s *Server) asyncPush(w *asyncWindow, sess *session, m *GradUp) {
	cfg, rd, pushStart := s.cfg.Async, w.syncRound, s.ob.now()
	pushed := func(folded bool) {
		if s.cfg.Hooks.UpdatePushed != nil {
			s.cfg.Hooks.UpdatePushed(rd.round, sess.device, folded)
		}
	}
	if !rd.pending[sess] {
		// Duplicate push: nothing is outstanding for this device.
		// Discard without a reply (none is owed) and strike its health
		// budget.
		rd.stats.Duplicates++
		sess.strikes++
		pushed(false)
		if sess.strikes >= maxAsyncStrikes {
			s.ob.observeStrikes(sess.strikes)
			s.failClient(rd, sess, true, fmt.Errorf("%d consecutive duplicate pushes", sess.strikes))
		}
		return
	}
	delete(rd.pending, sess)
	if int(m.Version) != sess.sentVersion {
		s.failClient(rd, sess, true, fmt.Errorf("update for version %d, expected %d", m.Version, sess.sentVersion))
		pushed(false)
		return
	}
	staleness := rd.round - sess.sentVersion
	s.ob.observeStaleness(staleness)
	now := s.cfg.Clock.Now()
	folded := false
	switch {
	case cfg.MaxStaleness > 0 && staleness > cfg.MaxStaleness:
		rd.stats.LateDiscarded++
	case cfg.MinPushInterval > 0 && !sess.lastFold.IsZero() && now.Sub(sess.lastFold) < cfg.MinPushInterval:
		rd.stats.Duplicates++
	default:
		weight := float64(updateWeight(m.Examples)) * DefaultStalenessDiscount(staleness)
		if err := s.foldGradUp(w.agg, sess, m, weight); err != nil {
			s.failClient(rd, sess, true, err)
			pushed(false)
			return
		}
		if s.cfg.ClientTelemetry {
			s.mergeTelemetry("client", sess.device, m.Telemetry)
		}
		folded = true
		sess.strikes, sess.lastFold = 0, now
		if s.cfg.Hooks.UpdateFolded != nil {
			s.cfg.Hooks.UpdateFolded(rd.round, sess.device)
		}
	}
	// The push is folded or discarded: its frame goes back now, not when
	// handleArrival returns, so it is the spare the device's next push
	// is encoded into, however fast the reply below is answered.
	releaseFrame(m)
	pushed(folded)
	if folded && w.agg.Count() >= cfg.GoalUpdates {
		// Goal reached: apply the buffered aggregate, bump the version,
		// open the next window.
		rd.stats.Responded, rd.stats.WeightTotal = w.agg.Count(), w.agg.Weight()
		s.applyMean(rd, w.agg.sum, w.agg.Weight())
		w.span.End()
		if rd.round++; rd.round < s.cfg.Rounds {
			s.openVersion(w, rd.round)
		}
	}
	switch {
	case !sess.eligible(rd.round) || rd.pending[sess]:
		// A probationed device is re-engaged when its window ends; one
		// the new window already armed owes its one push.
	case rd.round >= s.cfg.Rounds:
		s.asyncSendDone(rd, sess)
	default:
		s.send(rd, []*session{sess}, w.down)
	}
	s.ob.observePush(pushStart)
}

// asyncStalled fails the session when it can no longer make progress:
// fewer surviving devices than MinClients, or no device owes a push
// (every survivor idle or stuck on probation) so the buffer can never
// fill.
func (s *Server) asyncStalled(rd *syncRound) error {
	surviving := 0
	for _, sess := range s.sessions {
		if !sess.quarantined {
			surviving++
		}
	}
	switch {
	case surviving < s.cfg.MinClients:
		return fmt.Errorf("%w: %d surviving clients, need %d%s", ErrNotEnoughClients, surviving, s.cfg.MinClients, rd.failures())
	case len(rd.pending) == 0:
		return fmt.Errorf("%w: no client owes an update%s", ErrNotEnoughClients, rd.failures())
	}
	return nil
}

// asyncSendDone delivers the end-of-session Done with the final model,
// best effort, at most once per device, serialised once per codec for
// the whole drain (rd.done).
func (s *Server) asyncSendDone(rd *syncRound, sess *session) {
	if sess.doneSent || sess.quarantined {
		return
	}
	sess.doneSent = true
	_ = sendDone(rd.done, sess, s.state)
}

// asyncDrain finishes the session after the last application: idle
// devices get their Done immediately; devices still training get it as
// the reply to their final push. The wait for in-flight trainers is
// bounded by RoundDeadline when one is configured — those past it are
// abandoned, and Abort closes their connections. A failure during drain
// is sanctioned like a mid-session one, so the ClientQuarantined hook,
// the journal record and the device history all still happen — a device
// that dies while we wait for its last push must not silently vanish.
// (The accounting lands nowhere: the final version's trace entry is
// already committed.)
func (s *Server) asyncDrain(rd *syncRound) {
	for _, sess := range s.sessions {
		if !rd.pending[sess] {
			s.asyncSendDone(rd, sess)
		}
	}
	s.armDeadline(rd)
	defer rd.finish()
	s.await(rd, func(sess *session, probationable bool, reason error) {
		s.failClient(rd, sess, probationable, fmt.Errorf("during drain: %w", reason))
		s.asyncSendDone(rd, sess) // on probation the connection is still open
	}, func(sess *session, msg Message) bool {
		if _, ok := msg.(*GradUp); !ok {
			return false
		}
		releaseFrame(msg) // before the reply, as in asyncPush
		if rd.pending[sess] {
			delete(rd.pending, sess)
			s.asyncSendDone(rd, sess)
		}
		return true // an idle device's duplicate is ignored
	})
}

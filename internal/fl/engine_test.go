package fl

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// gateTrainer is a testTrainer whose TrainRound blocks on specific
// rounds until released — a controllable straggler.
type gateTrainer struct {
	*testTrainer
	mu      sync.Mutex
	blockOn map[int]chan struct{}
}

func newGateTrainer(id string, delta float64, blockRounds ...int) *gateTrainer {
	g := &gateTrainer{testTrainer: newTestTrainer(id, false, delta), blockOn: map[int]chan struct{}{}}
	for _, r := range blockRounds {
		g.blockOn[r] = make(chan struct{})
	}
	return g
}

// release unblocks the trainer for the given round.
func (g *gateTrainer) release(round int) {
	g.mu.Lock()
	gate := g.blockOn[round]
	g.mu.Unlock()
	if gate != nil {
		close(gate)
	}
}

func (g *gateTrainer) TrainRound(round int, plain []*tensor.Tensor, sealed []byte, plan []byte) ([]*tensor.Tensor, []byte, error) {
	g.mu.Lock()
	gate := g.blockOn[round]
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return g.testTrainer.TrainRound(round, plain, sealed, plan)
}

// engineEvent is one hook firing, serialised for test assertions.
type engineEvent struct {
	kind    string // "started", "folded", "quarantined", "probation", "closed"
	round   int
	device  string
	sampled []string
	stats   RoundStats
}

func eventHooks(events chan engineEvent) Hooks {
	return Hooks{
		RoundStarted: func(round int, sampled []string) {
			events <- engineEvent{kind: "started", round: round, sampled: sampled}
		},
		UpdateFolded: func(round int, device string) {
			events <- engineEvent{kind: "folded", round: round, device: device}
		},
		ClientQuarantined: func(device string, reason error) {
			events <- engineEvent{kind: "quarantined", device: device}
		},
		ClientProbationed: func(device string, reason error) {
			events <- engineEvent{kind: "probation", device: device}
		},
		RoundClosed: func(stats RoundStats) {
			events <- engineEvent{kind: "closed", round: stats.Round, stats: stats}
		},
	}
}

func waitEvent(t *testing.T, events <-chan engineEvent, kind string) engineEvent {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case e := <-events:
			if e.kind == kind {
				return e
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %q event", kind)
		}
	}
}

// startSession wires trainers to the server over pipes without failing
// the test on client-side errors (quarantine scenarios produce them).
func startSession(srv *Server, trainers []Trainer) (serverErr chan error, clients []*Client, clientErrs []error, wg *sync.WaitGroup) {
	serverConns := make([]Conn, len(trainers))
	clients = make([]*Client, len(trainers))
	clientErrs = make([]error, len(trainers))
	wg = &sync.WaitGroup{}
	for i, tr := range trainers {
		sc, cc := Pipe()
		serverConns[i] = sc
		clients[i] = NewClient(cc, tr)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = clients[i].Run()
		}(i)
	}
	serverErr = make(chan error, 1)
	go func() {
		_, err := srv.Run(serverConns)
		serverErr <- err
	}()
	return serverErr, clients, clientErrs, wg
}

// TestAllClientsStraggle: when every sampled client misses the round
// deadline the round fails with ErrNotEnoughClients.
func TestAllClientsStraggle(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	straggler := newGateTrainer("slow", 1, 0)
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 2, MinClients: 1, RoundDeadline: time.Second, Clock: clk,
	})
	serverErr, _, _, wg := startSession(srv, []Trainer{straggler})

	// The deadline timer is armed before models go out; once it exists
	// the round is in flight and advancing fires it.
	for clk.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(time.Second)

	err := <-serverErr
	if !errors.Is(err, ErrNotEnoughClients) {
		t.Fatalf("err = %v, want ErrNotEnoughClients", err)
	}
	straggler.release(0)
	wg.Wait()

	trace := srv.Trace()
	if len(trace) != 1 {
		t.Fatalf("trace has %d rounds, want 1", len(trace))
	}
	if trace[0].Responded != 0 || trace[0].Dropped != 1 {
		t.Fatalf("round 0 stats = %+v", trace[0])
	}
}

// TestStragglerDroppedSessionContinues: a straggler is dropped for the
// round (≥ MinClients responders still succeed), its late update is
// discarded, and it participates again in the next round.
func TestStragglerDroppedSessionContinues(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	events := make(chan engineEvent, 64)
	fast := newTestTrainer("fast", false, 2)
	slow := newGateTrainer("slow", 4, 0)
	state := newState(0)
	srv := NewServer(state, ServerConfig{
		Rounds: 2, MinClients: 1, RoundDeadline: time.Second, Clock: clk,
		Hooks: eventHooks(events),
	})
	serverErr, clients, _, wg := startSession(srv, []Trainer{fast, slow})

	// Round 0: fast responds, slow blocks. Fire the deadline only after
	// fast's update folded so the drop set is deterministic.
	waitEvent(t, events, "folded")
	clk.Advance(time.Second)
	closed := waitEvent(t, events, "closed")
	if closed.stats.Responded != 1 || closed.stats.Dropped != 1 {
		t.Fatalf("round 0 stats = %+v", closed.stats)
	}

	// Round 1: release the straggler; its stale round-0 update must be
	// discarded, then both clients answer round 1.
	waitEvent(t, events, "started")
	slow.release(0)
	closed = waitEvent(t, events, "closed")
	if closed.stats.Responded != 2 || closed.stats.Dropped != 0 {
		t.Fatalf("round 1 stats = %+v", closed.stats)
	}
	if closed.stats.LateDiscarded != 1 {
		t.Fatalf("round 1 discarded %d late updates, want 1", closed.stats.LateDiscarded)
	}

	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Round 0 applied only fast's +2; round 1 applied mean(2,4) = +3.
	if got := state[0].Data[0]; got != 5 {
		t.Fatalf("state = %v, want 5", got)
	}
	if clients[1].Rounds != 2 {
		t.Fatalf("straggler completed %d rounds, want 2 (dropped, not quarantined)", clients[1].Rounds)
	}
}

// TestSampledOutClientReceivesNoTraffic: a client outside the round's
// cohort sees no ModelDown for that round — its local round count equals
// exactly the number of times the engine sampled it.
func TestSampledOutClientReceivesNoTraffic(t *testing.T) {
	events := make(chan engineEvent, 64)
	trainers := []Trainer{
		newTestTrainer("c0", false, 1),
		newTestTrainer("c1", false, 2),
		newTestTrainer("c2", false, 4),
	}
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 4, SampleCount: 2, SampleSeed: 7, Hooks: eventHooks(events),
	})
	serverErr, clients, clientErrs, wg := startSession(srv, trainers)

	sampledTimes := map[string]int{}
	for rounds := 0; rounds < 4; {
		e := <-events
		switch e.kind {
		case "started":
			for _, d := range e.sampled {
				sampledTimes[d]++
			}
		case "closed":
			rounds++
			if e.stats.Sampled != 2 || e.stats.Responded != 2 {
				t.Fatalf("round %d stats = %+v", e.round, e.stats)
			}
		}
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, c := range clients {
		if clientErrs[i] != nil {
			t.Fatalf("client %d: %v", i, clientErrs[i])
		}
		want := sampledTimes[[]string{"c0", "c1", "c2"}[i]]
		if c.Rounds != want {
			t.Fatalf("client %d trained %d rounds, sampled %d times", i, c.Rounds, want)
		}
	}
	total := sampledTimes["c0"] + sampledTimes["c1"] + sampledTimes["c2"]
	if total != 8 {
		t.Fatalf("total participations = %d, want 4 rounds × 2 sampled", total)
	}
}

// TestQuarantinedClientExcludedFromLaterRounds: a client whose training
// fails is quarantined — the session survives and the client is never
// sampled again.
func TestQuarantinedClientExcludedFromLaterRounds(t *testing.T) {
	events := make(chan engineEvent, 64)
	bad := newTestTrainer("bad", false, 100)
	bad.failOnRound = 0
	trainers := []Trainer{
		newTestTrainer("good1", false, 1),
		newTestTrainer("good2", false, 3),
		bad,
	}
	state := newState(0)
	srv := NewServer(state, ServerConfig{Rounds: 3, Hooks: eventHooks(events)})
	serverErr, _, clientErrs, wg := startSession(srv, trainers)

	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	trace := srv.Trace()
	if len(trace) != 3 {
		t.Fatalf("trace has %d rounds", len(trace))
	}
	if trace[0].Sampled != 3 || trace[0].Responded != 2 || trace[0].Quarantined != 1 {
		t.Fatalf("round 0 stats = %+v", trace[0])
	}
	for r := 1; r < 3; r++ {
		if trace[r].Sampled != 2 || trace[r].Responded != 2 || trace[r].Quarantined != 0 {
			t.Fatalf("round %d stats = %+v", r, trace[r])
		}
	}
	// Drain hook events: no round after 0 may sample the quarantined client.
	close(events)
	for e := range events {
		if e.kind == "started" && e.round > 0 {
			for _, d := range e.sampled {
				if d == "bad" {
					t.Fatalf("quarantined client sampled in round %d", e.round)
				}
			}
		}
	}
	// All 3 rounds averaged only the good clients: mean(1,3) = 2 each.
	if got := state[0].Data[0]; got != 6 {
		t.Fatalf("state = %v, want 6", got)
	}
	if clientErrs[2] == nil {
		t.Fatal("failed client should see an error")
	}
}

// TestQuarantineProbationReadmission: with QuarantineRounds set, a
// training failure excludes the client from sampling for exactly that
// many rounds, after which it is eligible (and trains) again. The
// connection survives the probation.
func TestQuarantineProbationReadmission(t *testing.T) {
	events := make(chan engineEvent, 64)
	flaky := newTestTrainer("flaky", false, 4)
	flaky.failOnRound = 0
	good := newTestTrainer("good", false, 2)
	state := newState(0)
	srv := NewServer(state, ServerConfig{
		Rounds: 4, QuarantineRounds: 1, Hooks: eventHooks(events),
	})
	serverErr, clients, clientErrs, wg := startSession(srv, []Trainer{good, flaky})

	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	trace := srv.Trace()
	if len(trace) != 4 {
		t.Fatalf("trace has %d rounds", len(trace))
	}
	// Round 0: both sampled, flaky fails and goes on probation — booked
	// under Probation, not Quarantined (the exclusion is temporary).
	if trace[0].Sampled != 2 || trace[0].Responded != 1 || trace[0].Probation != 1 || trace[0].Quarantined != 0 {
		t.Fatalf("round 0 stats = %+v", trace[0])
	}
	// Round 1: flaky is on probation — not eligible for sampling.
	if trace[1].Sampled != 1 || trace[1].Responded != 1 {
		t.Fatalf("round 1 stats = %+v", trace[1])
	}
	// Rounds 2-3: probation over, flaky re-admitted and responding.
	for r := 2; r < 4; r++ {
		if trace[r].Sampled != 2 || trace[r].Responded != 2 || trace[r].Quarantined != 0 || trace[r].Probation != 0 {
			t.Fatalf("round %d stats = %+v", r, trace[r])
		}
	}
	// Sampling eligibility, per round, via the engine's own hook stream.
	sampledByRound := map[int][]string{}
	close(events)
	for e := range events {
		if e.kind == "started" {
			sampledByRound[e.round] = e.sampled
		}
	}
	for _, d := range sampledByRound[1] {
		if d == "flaky" {
			t.Fatal("client sampled while on probation")
		}
	}
	found := false
	for _, d := range sampledByRound[2] {
		if d == "flaky" {
			found = true
		}
	}
	if !found {
		t.Fatal("client not re-admitted after probation")
	}
	// r0: +2 (good alone) · r1: +2 · r2, r3: mean(2,4) = +3 each.
	if got := state[0].Data[0]; got != 10 {
		t.Fatalf("state = %v, want 10", got)
	}
	// The probationed client finished the session cleanly: it received
	// Done after training rounds 2 and 3.
	if clientErrs[1] != nil {
		t.Fatalf("probationed client errored: %v", clientErrs[1])
	}
	if clients[1].Rounds != 2 {
		t.Fatalf("probationed client trained %d rounds, want 2", clients[1].Rounds)
	}
	if len(clients[1].Final) == 0 {
		t.Fatal("probationed client missed the final model")
	}
}

// TestProbationRepeatFailureRenews: each failure during probationable
// rounds renews the exclusion window; a client that fails every time it
// is sampled never responds but also never kills the session.
func TestProbationRepeatFailureRenews(t *testing.T) {
	alwaysBad := newTestTrainer("bad", false, 8)
	state := newState(0)
	srv := NewServer(state, ServerConfig{Rounds: 5, QuarantineRounds: 1})
	// Fail on every round by reusing the trainer hook: failOnRound only
	// matches one round, so wrap TrainRound via a gate-style trainer.
	bad := &alwaysFailTrainer{testTrainer: alwaysBad}
	good := newTestTrainer("good", false, 2)
	serverErr, _, _, wg := startSession(srv, []Trainer{good, bad})
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	probations := 0
	for _, st := range srv.Trace() {
		probations += st.Probation
		if st.Responded != 1 {
			t.Fatalf("stats = %+v, want only the good client folding", st)
		}
		if st.Quarantined != 0 {
			t.Fatalf("stats = %+v, probation must not book a permanent quarantine", st)
		}
	}
	// Rounds 0, 2, 4 sample the bad client (probation covers 1 and 3).
	if probations != 3 {
		t.Fatalf("bad client failed %d times, want 3", probations)
	}
	if got := state[0].Data[0]; got != 10 {
		t.Fatalf("state = %v, want 10", got)
	}
}

// alwaysFailTrainer reports a training failure every round.
type alwaysFailTrainer struct{ *testTrainer }

func (a *alwaysFailTrainer) TrainRound(round int, plain []*tensor.Tensor, sealed []byte, plan []byte) ([]*tensor.Tensor, []byte, error) {
	return nil, nil, errors.New("chronic failure")
}

// TestStreamingEqualsBufferedFedAvg: folding a seeded set of updates
// through the streaming aggregator must reproduce buffered FedAvg
// bit-for-bit when fed in the same order.
func TestStreamingEqualsBufferedFedAvg(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ref := []*tensor.Tensor{tensor.New(3, 4), tensor.New(7), tensor.New(2, 2, 2)}
	const clients = 9
	updates := make([][]*tensor.Tensor, clients)
	for c := range updates {
		upd := make([]*tensor.Tensor, len(ref))
		for i, r := range ref {
			upd[i] = tensor.Randn(rng, 1.0, r.Shape...)
		}
		updates[c] = upd
	}

	buffered := FedAvg(updates)

	agg := NewAggregator(ref)
	for _, upd := range updates {
		if err := agg.Add(upd, 1); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := agg.Mean()
	if err != nil {
		t.Fatal(err)
	}

	for i := range ref {
		for j := range buffered[i].Data {
			if buffered[i].Data[j] != streamed[i].Data[j] {
				t.Fatalf("tensor %d elem %d: buffered %v != streamed %v",
					i, j, buffered[i].Data[j], streamed[i].Data[j])
			}
		}
	}
}

// TestWindowCloseMatchesMean: an async window closes with applyMean on
// its own buffer — the mean is taken into the aggregator's sum, applied
// and normed in one pass — and resets the aggregator for the next
// window. That close must equal Mean, UpdateNorm and ApplyUpdate bit
// for bit, as must a synchronous round's applyMean of a mean already
// taken; and the reset aggregator must then fold — through Add and
// Accumulate, at uneven weights — to exactly the sum of a fresh one.
func TestWindowCloseMatchesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := []*tensor.Tensor{tensor.New(3, 4), tensor.New(5000), tensor.New(2, 2, 2)}
	update := func() []*tensor.Tensor {
		upd := make([]*tensor.Tensor, len(ref))
		for i, r := range ref {
			upd[i] = tensor.Randn(rng, 1.0, r.Shape...)
		}
		upd[1].Data[0], upd[1].Data[1] = 3e-310, math.Copysign(0, -1) // subnormal, −0
		return upd
	}
	fold := func(agg *Aggregator, updates [][]*tensor.Tensor) {
		t.Helper()
		for c, upd := range updates {
			weight := 1 / float64(c+3)
			var err error
			if c%2 == 0 {
				err = agg.Add(upd, weight)
			} else {
				err = agg.Accumulate(views(wire.CodecF64, upd), weight)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(what string, got, want []*tensor.Tensor) {
		t.Helper()
		for i := range want {
			for j, w := range want[i].Data {
				if g := got[i].Data[j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: tensor %d elem %d = %v, want %v", what, i, j, g, w)
				}
			}
		}
	}
	model := []*tensor.Tensor{tensor.Randn(rng, 1.0, 3, 4), tensor.Randn(rng, 1.0, 5000), tensor.Randn(rng, 1.0, 2, 2, 2)}
	// closeWith runs applyMean on a server holding a copy of model and
	// checks it against the three-pass reference for mean.
	closeWith := func(what string, sum []*tensor.Tensor, w float64, mean []*tensor.Tensor) {
		t.Helper()
		srv := NewServer(cloneState(model), ServerConfig{})
		rd := &syncRound{}
		srv.applyMean(rd, sum, w)
		want := cloneState(model)
		ApplyUpdate(want, mean, 1.0)
		same(what+": mean left in the sum", sum, mean)
		same(what+": model", srv.state, want)
		if got, want := rd.stats.UpdateNorm, UpdateNorm(mean); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: norm %v, want %v", what, got, want)
		}
	}
	first, second := make([][]*tensor.Tensor, 5), make([][]*tensor.Tensor, 4)
	for c := range first {
		first[c] = update()
	}
	for c := range second {
		second[c] = update()
	}

	reused := NewAggregator(ref)
	fold(reused, first)
	mean, err := reused.Mean()
	if err != nil {
		t.Fatal(err)
	}
	closeWith("synchronous", cloneState(mean), 1, mean)
	closeWith("window", reused.Sum(), reused.Weight(), mean)

	reused.reset()
	if reused.Count() != 0 || reused.Weight() != 0 {
		t.Fatalf("reset left count %d, weight %v", reused.Count(), reused.Weight())
	}
	if _, err := reused.Mean(); err == nil {
		t.Fatal("mean of a reset aggregator must fail")
	}
	fresh := NewAggregator(ref)
	fold(reused, second)
	fold(fresh, second)
	if reused.Count() != fresh.Count() || reused.Weight() != fresh.Weight() {
		t.Fatalf("reset folds %d at %v, fresh %d at %v", reused.Count(), reused.Weight(), fresh.Count(), fresh.Weight())
	}
	same("sum after reset", reused.Sum(), fresh.Sum())
	freshMean, err := fresh.Mean()
	if err != nil {
		t.Fatal(err)
	}
	closeWith("window after reset", reused.Sum(), reused.Weight(), freshMean)
}

// TestAggregatorRejectsBadUpdates covers the streaming validation path.
func TestAggregatorRejectsBadUpdates(t *testing.T) {
	ref := newState(0, 0)
	agg := NewAggregator(ref)
	if err := agg.Add([]*tensor.Tensor{tensor.Full(1, 2, 2)}, 1); err == nil {
		t.Fatal("short update must be rejected")
	}
	if err := agg.Add([]*tensor.Tensor{tensor.Full(1, 3), tensor.Full(1, 2, 2)}, 1); err == nil {
		t.Fatal("misshapen update must be rejected")
	}
	if err := agg.Add([]*tensor.Tensor{nil, tensor.Full(1, 2, 2)}, 1); err == nil {
		t.Fatal("nil tensor must be rejected")
	}
	if err := agg.Add([]*tensor.Tensor{tensor.Full(1, 2, 2), tensor.Full(1, 2, 2)}, 0); err == nil {
		t.Fatal("zero weight must be rejected")
	}
	if _, err := agg.Mean(); err == nil {
		t.Fatal("mean of zero updates must fail")
	}
}

// TestSampleFractionCohortSize checks ⌈fraction·live⌉ cohort sizing and
// the MinClients floor.
func TestSampleFractionCohortSize(t *testing.T) {
	trainers := make([]Trainer, 5)
	for i := range trainers {
		trainers[i] = newTestTrainer(string(rune('a'+i)), false, 1)
	}
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 2, SampleFraction: 0.5, MinClients: 2,
	})
	serverErr, _, _, wg := startSession(srv, trainers)
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, st := range srv.Trace() {
		if st.Sampled != 3 { // ceil(0.5 × 5)
			t.Fatalf("round %d sampled %d, want 3", st.Round, st.Sampled)
		}
	}
}

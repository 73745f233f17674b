package fl

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// TestSecAggSessionMatchesPlaintext: the same weighted fleet run under
// plaintext FedAvg and under masked secure aggregation must land on
// bit-identical models — masks cancel in the ring, and the dyadic
// updates survive fixed-point quantisation exactly.
func TestSecAggSessionMatchesPlaintext(t *testing.T) {
	build := func() []*testTrainer {
		small := newTestTrainer("small", false, 2)
		small.examples = 1
		big := newTestTrainer("big", false, 6)
		big.examples = 3
		return []*testTrainer{small, big}
	}

	plainState := newState(1, 10)
	plainSrv := NewServer(plainState, ServerConfig{Rounds: 3})
	if _, err := runSession(t, plainSrv, build()); err != nil {
		t.Fatal(err)
	}

	maskedState := newState(1, 10)
	maskedSrv := NewServer(maskedState, ServerConfig{Rounds: 3, SecAgg: true})
	clients, err := runSession(t, maskedSrv, build())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if !c.SecAgg {
			t.Fatalf("client %d did not negotiate secure aggregation", i)
		}
	}

	for i := range plainState {
		for j := range plainState[i].Data {
			if plainState[i].Data[j] != maskedState[i].Data[j] {
				t.Fatalf("tensor %d elem %d: plaintext %v != masked %v",
					i, j, plainState[i].Data[j], maskedState[i].Data[j])
			}
		}
	}
	for r, st := range maskedSrv.Trace() {
		want := plainSrv.Trace()[r]
		if st.Responded != want.Responded || st.WeightTotal != want.WeightTotal {
			t.Fatalf("round %d stats diverged: plaintext %+v, masked %+v", r, want, st)
		}
		if st.Reconciled != 0 {
			t.Fatalf("full cohort must need no reconciliation: %+v", st)
		}
	}
}

// fastAndSlow builds the smallest cohort whose mask graph survives one
// dropout: three on-time trainers (delta 2 each, so their mean is 2)
// and one gated straggler. Four members form the complete graph, k = 3,
// which tolerates ⌊(k−1)/2⌋ = 1 dropout at Shamir threshold 2.
func fastAndSlow(blockRounds ...int) ([]Trainer, *gateTrainer) {
	slow := newGateTrainer("slow", 4, blockRounds...)
	return []Trainer{
		newTestTrainer("fast-0", false, 2),
		newTestTrainer("fast-1", false, 2),
		newTestTrainer("fast-2", false, 2),
		slow,
	}, slow
}

// waitFolds waits for n UpdateFolded events.
func waitFolds(t *testing.T, events <-chan engineEvent, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		waitEvent(t, events, "folded")
	}
}

// TestSecAggStragglerReconciliation: a straggler is dropped at the
// deadline and its surviving neighbours reveal their round seeds with
// it, so the round closes on exactly the survivors' updates. When the
// straggler's stale masked update finally arrives in the next round,
// the revealed seeds would strip its pair masks — accepting (or even
// silently ignoring) it is the unmasking window, so it is refused with
// ErrLateAfterRecon and the device quarantined.
func TestSecAggStragglerReconciliation(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	events := make(chan engineEvent, 64)
	trainers, slow := fastAndSlow(0)
	state := newState(0)
	var mu sync.Mutex
	var quarantineReason error
	hooks := eventHooks(events)
	forward := hooks.ClientQuarantined
	hooks.ClientQuarantined = func(device string, reason error) {
		mu.Lock()
		quarantineReason = reason
		mu.Unlock()
		forward(device, reason)
	}
	srv := NewServer(state, ServerConfig{
		Rounds: 2, MinClients: 1, RoundDeadline: time.Second, Clock: clk,
		SecAgg: true, Hooks: hooks,
	})
	serverErr, _, clientErrs, wg := startSession(srv, trainers)

	waitFolds(t, events, 3)
	clk.Advance(time.Second)
	closed := waitEvent(t, events, "closed")
	if closed.stats.Responded != 3 || closed.stats.Dropped != 1 {
		t.Fatalf("round 0 stats = %+v", closed.stats)
	}
	if closed.stats.Reconciled != 1 {
		t.Fatalf("round 0 reconciled %d masks, want 1", closed.stats.Reconciled)
	}

	waitEvent(t, events, "started")
	slow.release(0)
	q := waitEvent(t, events, "quarantined")
	if q.device != "slow" {
		t.Fatalf("quarantined %q, want the late straggler", q.device)
	}
	closed = waitEvent(t, events, "closed")
	if closed.stats.Responded != 3 || closed.stats.Quarantined != 1 {
		t.Fatalf("round 1 stats = %+v", closed.stats)
	}
	if closed.stats.LateDiscarded != 0 || closed.stats.Reconciled != 1 {
		t.Fatalf("round 1 stats = %+v", closed.stats)
	}

	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	mu.Lock()
	reason := quarantineReason
	mu.Unlock()
	if !errors.Is(reason, ErrLateAfterRecon) {
		t.Fatalf("quarantine reason = %v, want ErrLateAfterRecon", reason)
	}
	// Only the fast trainers' +2 folded each round — the straggler's
	// stale round-0 update was refused, never folded.
	if got := state[0].Data[0]; got != 4 {
		t.Fatalf("state = %v, want 4", got)
	}
	if clientErrs[3] == nil {
		t.Fatal("quarantined straggler must see its session torn down")
	}
}

// TestSecAggLateAfterReconProbation: with QuarantineRounds configured
// the late-after-reconciliation refusal routes through the probation
// machinery — the device keeps its connection and sits out the window
// instead of losing the session.
func TestSecAggLateAfterReconProbation(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	events := make(chan engineEvent, 64)
	// Gated on both rounds: round 0 makes it a straggler, round 1 keeps
	// it silent after probation so the round's accounting stays exact.
	trainers, slow := fastAndSlow(0, 1)
	state := newState(0)
	var mu sync.Mutex
	var probationReason error
	hooks := eventHooks(events)
	forward := hooks.ClientProbationed
	hooks.ClientProbationed = func(device string, reason error) {
		mu.Lock()
		probationReason = reason
		mu.Unlock()
		forward(device, reason)
	}
	srv := NewServer(state, ServerConfig{
		Rounds: 2, MinClients: 1, RoundDeadline: time.Second, Clock: clk,
		SecAgg: true, QuarantineRounds: 2, Hooks: hooks,
	})
	serverErr, _, _, wg := startSession(srv, trainers)

	waitFolds(t, events, 3)
	clk.Advance(time.Second)
	closed := waitEvent(t, events, "closed")
	if closed.stats.Responded != 3 || closed.stats.Dropped != 1 || closed.stats.Probation != 0 {
		t.Fatalf("round 0 stats = %+v", closed.stats)
	}

	waitEvent(t, events, "started")
	slow.release(0)
	p := waitEvent(t, events, "probation")
	if p.device != "slow" {
		t.Fatalf("probationed %q, want the late straggler", p.device)
	}
	closed = waitEvent(t, events, "closed")
	if closed.stats.Responded != 3 || closed.stats.Probation != 1 || closed.stats.Quarantined != 0 {
		t.Fatalf("round 1 stats = %+v", closed.stats)
	}
	if closed.stats.LateDiscarded != 0 || closed.stats.Reconciled != 1 {
		t.Fatalf("round 1 stats = %+v", closed.stats)
	}

	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	reason := probationReason
	mu.Unlock()
	if !errors.Is(reason, ErrLateAfterRecon) {
		t.Fatalf("probation reason = %v, want ErrLateAfterRecon", reason)
	}
	if got := state[0].Data[0]; got != 4 {
		t.Fatalf("state = %v, want 4", got)
	}
	slow.release(1)
	wg.Wait()
}

// TestSecAggLateAfterReconTCP: the late-after-reconciliation refusal
// must hold on the real stream transport, not just in-memory pipes —
// TCP buffering delays and reorders nothing the protocol relies on.
func TestSecAggLateAfterReconTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	clk := simclock.NewVirtual(time.Unix(0, 0))
	events := make(chan engineEvent, 64)
	trainers, slow := fastAndSlow(0)
	var wg sync.WaitGroup
	clientErrs := make([]error, len(trainers))
	for i, tr := range trainers {
		wg.Add(1)
		go func(i int, tr Trainer) {
			defer wg.Done()
			conn, err := Dial(l.Addr())
			if err != nil {
				clientErrs[i] = err
				return
			}
			defer conn.Close()
			clientErrs[i] = NewClient(conn, tr).Run()
		}(i, tr)
	}
	conns := make([]Conn, 0, len(trainers))
	for len(conns) < len(trainers) {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}

	state := newState(0)
	var mu sync.Mutex
	var quarantineReason error
	hooks := eventHooks(events)
	forward := hooks.ClientQuarantined
	hooks.ClientQuarantined = func(device string, reason error) {
		mu.Lock()
		quarantineReason = reason
		mu.Unlock()
		forward(device, reason)
	}
	srv := NewServer(state, ServerConfig{
		Rounds: 2, MinClients: 1, RoundDeadline: time.Second, Clock: clk,
		SecAgg: true, Hooks: hooks,
	})
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(conns)
		serverErr <- err
	}()

	waitFolds(t, events, 3)
	clk.Advance(time.Second)
	closed := waitEvent(t, events, "closed")
	if closed.stats.Responded != 3 || closed.stats.Dropped != 1 || closed.stats.Reconciled != 1 {
		t.Fatalf("round 0 stats = %+v", closed.stats)
	}

	waitEvent(t, events, "started")
	slow.release(0)
	q := waitEvent(t, events, "quarantined")
	if q.device != "slow" {
		t.Fatalf("quarantined %q, want the late straggler", q.device)
	}
	closed = waitEvent(t, events, "closed")
	if closed.stats.Responded != 3 || closed.stats.Quarantined != 1 ||
		closed.stats.LateDiscarded != 0 || closed.stats.Reconciled != 1 {
		t.Fatalf("round 1 stats = %+v", closed.stats)
	}

	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	mu.Lock()
	reason := quarantineReason
	mu.Unlock()
	if !errors.Is(reason, ErrLateAfterRecon) {
		t.Fatalf("quarantine reason = %v, want ErrLateAfterRecon", reason)
	}
	if got := state[0].Data[0]; got != 4 {
		t.Fatalf("state = %v, want 4", got)
	}
}

// TestSecAggKRegularAutoDegreeTCP: auto degree over the real stream
// transport with a cohort smaller than the degree floor. DegreeFor(3)
// is 6, so both sides must clamp the announced degree to the complete
// graph (2 neighbours) identically — a divergence here makes the
// server expect a share count the clients never produce.
func TestSecAggKRegularAutoDegreeTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	trainers := make([]*testTrainer, 3)
	for i := range trainers {
		trainers[i] = newTestTrainer(fmt.Sprintf("pi-%d", i), false, float64(i+1))
	}
	var wg sync.WaitGroup
	clientErrs := make([]error, len(trainers))
	for i, tr := range trainers {
		wg.Add(1)
		go func(i int, tr Trainer) {
			defer wg.Done()
			conn, err := Dial(l.Addr())
			if err != nil {
				clientErrs[i] = err
				return
			}
			defer conn.Close()
			clientErrs[i] = NewClient(conn, tr).Run()
		}(i, tr)
	}
	conns := make([]Conn, 0, len(trainers))
	for len(conns) < len(trainers) {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}

	state := newState(1, 10)
	srv := NewServer(state, ServerConfig{
		Rounds: 3, SecAgg: true, MaskDegree: secagg.AutoDegree,
	})
	if _, err := srv.Run(conns); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for r, st := range srv.Trace() {
		if st.Responded != 3 || st.Quarantined != 0 || st.Reconciled != 0 {
			t.Fatalf("round %d stats = %+v", r, st)
		}
	}
	// avg delta = 2 per round, 3 rounds → +6 on every element.
	if got := state[0].Data[0]; got != 7 {
		t.Fatalf("state[0] = %v, want 7", got)
	}
}

// TestSecAggKRegularMatchesPlaintext: with a k-regular mask graph (a
// proper subgraph of the complete cohort graph) and double masking,
// the full-cohort session still lands bit-identically on the
// plaintext model — pairwise masks cancel along graph edges and every
// self mask is removed via the reconstructed Shamir seeds.
func TestSecAggKRegularMatchesPlaintext(t *testing.T) {
	build := func() []*testTrainer {
		trainers := make([]*testTrainer, 8)
		for i := range trainers {
			trainers[i] = newTestTrainer(fmt.Sprintf("dev-%d", i), false, float64(i+1))
		}
		return trainers
	}

	plainState := newState(1, 10)
	plainSrv := NewServer(plainState, ServerConfig{Rounds: 3})
	if _, err := runSession(t, plainSrv, build()); err != nil {
		t.Fatal(err)
	}

	// Degree 4 over 8 devices: each member masks against 4 of its 7
	// possible peers, so cancellation genuinely follows the graph.
	maskedState := newState(1, 10)
	maskedSrv := NewServer(maskedState, ServerConfig{Rounds: 3, SecAgg: true, MaskDegree: 4})
	if _, err := runSession(t, maskedSrv, build()); err != nil {
		t.Fatal(err)
	}

	for i := range plainState {
		for j := range plainState[i].Data {
			if plainState[i].Data[j] != maskedState[i].Data[j] {
				t.Fatalf("tensor %d elem %d: plaintext %v != k-regular masked %v",
					i, j, plainState[i].Data[j], maskedState[i].Data[j])
			}
		}
	}
	for r, st := range maskedSrv.Trace() {
		want := plainSrv.Trace()[r]
		if st.Responded != want.Responded || st.WeightTotal != want.WeightTotal {
			t.Fatalf("round %d stats diverged: plaintext %+v, masked %+v", r, want, st)
		}
		// A full k-regular fold removes its self masks without counting
		// them as reconciled dropouts.
		if st.Reconciled != 0 {
			t.Fatalf("full cohort must report no reconciled dropouts: %+v", st)
		}
	}
}

// TestSecAggKRegularStragglerDropout: under a k-regular graph a
// dropped straggler is reconciled from its surviving neighbours alone
// — pair seeds for its edges, Shamir shares for the survivors' self
// masks — and the weighted aggregate of the survivors comes out
// exactly.
func TestSecAggKRegularStragglerDropout(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	events := make(chan engineEvent, 64)
	// Five responders with dyadic weighted mean: (1+2+3+4+6·4)/8 = 4.25.
	deltas := []float64{1, 2, 3, 4, 6}
	weights := []int{1, 1, 1, 1, 4}
	trainers := make([]Trainer, 0, 6)
	for i, d := range deltas {
		tr := newTestTrainer(fmt.Sprintf("dev-%d", i), false, d)
		tr.examples = weights[i]
		trainers = append(trainers, tr)
	}
	// Gated on both rounds: drops at each deadline, never reports late.
	slow := newGateTrainer("slow", 9, 0, 1)
	trainers = append(trainers, slow)

	state := newState(0)
	srv := NewServer(state, ServerConfig{
		Rounds: 2, MinClients: 1, RoundDeadline: time.Second, Clock: clk,
		SecAgg: true, MaskDegree: 4, Hooks: eventHooks(events),
	})
	serverErr, _, _, wg := startSession(srv, trainers)

	for round := 0; round < 2; round++ {
		for i := 0; i < len(deltas); i++ {
			waitEvent(t, events, "folded")
		}
		clk.Advance(time.Second)
		closed := waitEvent(t, events, "closed")
		if closed.stats.Responded != 5 || closed.stats.Dropped != 1 {
			t.Fatalf("round %d stats = %+v", round, closed.stats)
		}
		if closed.stats.Reconciled != 1 {
			t.Fatalf("round %d reconciled %d, want 1", round, closed.stats.Reconciled)
		}
	}

	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	if got := state[0].Data[0]; got != 8.5 {
		t.Fatalf("state = %v, want 8.5 (two rounds of the exact 4.25 survivor mean)", got)
	}
	slow.release(0)
	slow.release(1)
	wg.Wait()
}

// TestSecAggEnclaveProtectedSession: with a protection plan, sealed
// updates are folded inside the aggregation enclave and the final model
// still matches a plaintext TEE session bit for bit.
func TestSecAggEnclaveProtectedSession(t *testing.T) {
	build := func() []*testTrainer {
		return []*testTrainer{
			newTestTrainer("tee-a", true, 2),
			newTestTrainer("tee-b", true, 6),
		}
	}

	plainState := newState(5, 50)
	plainTr := build()
	plainSrv := NewServer(plainState, ServerConfig{
		Rounds: 2, RequireTEE: true, Verifier: setupVerifier(plainTr...),
		Planner: staticPlanner{0: true},
	})
	if _, err := runSession(t, plainSrv, plainTr); err != nil {
		t.Fatal(err)
	}

	enclave, err := secagg.NewEnclave("aggregator")
	if err != nil {
		t.Fatal(err)
	}
	defer enclave.Close()
	secState := newState(5, 50)
	secTr := build()
	secSrv := NewServer(secState, ServerConfig{
		Rounds: 2, RequireTEE: true, Verifier: setupVerifier(secTr...),
		Planner: staticPlanner{0: true}, SecAgg: true, Enclave: enclave,
	})
	if _, err := runSession(t, secSrv, secTr); err != nil {
		t.Fatal(err)
	}

	for i := range plainState {
		for j := range plainState[i].Data {
			if plainState[i].Data[j] != secState[i].Data[j] {
				t.Fatalf("tensor %d elem %d: plaintext %v != enclave %v",
					i, j, plainState[i].Data[j], secState[i].Data[j])
			}
		}
	}
	// The protection split must have reached the clients through the
	// enclave-sealed path.
	for _, tr := range secTr {
		if !tr.sawNilAt[0] || tr.sawNilAt[1] {
			t.Fatalf("protection split wrong: %v", tr.sawNilAt)
		}
		if len(tr.openedBlobs) != 2 {
			t.Fatalf("opened %d sealed payloads, want 2", len(tr.openedBlobs))
		}
	}
	if enclave.Device().SMCCount() == 0 {
		t.Fatal("enclave saw no world switches — sealed path bypassed it")
	}
	if got := enclave.Device().SecureMemory().InUse(); got != 0 {
		t.Fatalf("enclave leaked %d bytes of secure memory", got)
	}
}

// TestSecAggClientVerifiesEnclaveQuote: a client configured with an
// enclave verifier accepts a provisioned aggregator and refuses an
// unprovisioned one.
func TestSecAggClientVerifiesEnclaveQuote(t *testing.T) {
	enclave, err := secagg.NewEnclave("attested-agg")
	if err != nil {
		t.Fatal(err)
	}
	defer enclave.Close()

	run := func(provision bool) (clientErr error, serverErr error) {
		v := tz.NewVerifier()
		if provision {
			v.RegisterDevice(enclave.Device().Identity().ID(), enclave.Device().Identity().RootKey())
			m, err := enclave.Measurement()
			if err != nil {
				t.Fatal(err)
			}
			v.AllowMeasurement(m)
		}
		tr := newTestTrainer("tee", true, 2)
		srv := NewServer(newState(0), ServerConfig{
			Rounds: 1, SecAgg: true, Enclave: enclave,
			RequireTEE: true, Verifier: setupVerifier(tr),
		})
		sc, cc := Pipe()
		client := NewClient(cc, tr)
		client.EnclaveVerifier = v
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cc.Close() // a refusing client must release the transport
			clientErr = client.Run()
		}()
		_, serverErr = srv.Run([]Conn{sc})
		wg.Wait()
		return clientErr, serverErr
	}

	if cErr, sErr := run(true); cErr != nil || sErr != nil {
		t.Fatalf("provisioned enclave refused: client=%v server=%v", cErr, sErr)
	}
	cErr, sErr := run(false)
	if cErr == nil || !strings.Contains(cErr.Error(), "enclave attestation") {
		t.Fatalf("unprovisioned enclave accepted: %v", cErr)
	}
	if !errors.Is(sErr, ErrNotEnoughClients) {
		t.Fatalf("server err = %v", sErr)
	}
}

// TestSecAggRejectsMissingMaskPub: a client that answers a secagg
// challenge without a mask key is turned away at selection.
func TestSecAggRejectsMissingMaskPub(t *testing.T) {
	sc, cc := Pipe()
	srv := NewServer(newState(0), ServerConfig{Rounds: 1, SecAgg: true})

	var rejected string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer cc.Close()
		msg, err := cc.Recv()
		if err != nil {
			return
		}
		ch, ok := msg.(*Challenge)
		if !ok || !ch.SecAgg {
			return
		}
		_ = cc.Send(&Attest{DeviceID: "bare"})
		if m, err := cc.Recv(); err == nil {
			if rej, ok := m.(*Reject); ok {
				rejected = rej.Reason
			}
		}
	}()
	_, err := srv.Run([]Conn{sc})
	wg.Wait()
	if !errors.Is(err, ErrNotEnoughClients) {
		t.Fatalf("server err = %v", err)
	}
	if !strings.Contains(rejected, "mask") {
		t.Fatalf("rejection reason = %q", rejected)
	}
}

// TestSecAggRejectsGarbageMaskPub: an unparseable mask key would abort
// every honest peer's masking if it reached the roster, so it is
// rejected at selection like an absent one.
func TestSecAggRejectsGarbageMaskPub(t *testing.T) {
	sc, cc := Pipe()
	srv := NewServer(newState(0), ServerConfig{Rounds: 1, SecAgg: true})

	var rejected string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer cc.Close()
		if _, err := cc.Recv(); err != nil {
			return
		}
		_ = cc.Send(&Attest{DeviceID: "garbled", MaskPub: []byte{1, 2, 3}})
		if m, err := cc.Recv(); err == nil {
			if rej, ok := m.(*Reject); ok {
				rejected = rej.Reason
			}
		}
	}()
	_, err := srv.Run([]Conn{sc})
	wg.Wait()
	if !errors.Is(err, ErrNotEnoughClients) {
		t.Fatalf("server err = %v", err)
	}
	if !strings.Contains(rejected, "mask") {
		t.Fatalf("rejection reason = %q", rejected)
	}
}

// TestMaskSharesRejectsShortSeed: a truncated seed must fail decoding
// rather than zero-pad into a wrong-mask subtraction.
func TestMaskSharesRejectsShortSeed(t *testing.T) {
	good := &MaskShares{Round: 1, Shares: []secagg.PairShare{{Device: "d", Seed: [32]byte{9}}}}
	if _, err := DecodeMessage(MsgMaskShares, EncodeMessage(good)); err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter()
	w.Uvarint(1) // round
	w.Uvarint(1) // one share
	w.String("d")
	w.Blob([]byte{1, 2, 3}) // 3-byte seed
	if _, err := DecodeMessage(MsgMaskShares, w.Bytes()); err == nil {
		t.Fatal("short seed must fail decoding")
	}
}

// TestSecAggRejectsDuplicateDevices: pairwise masking keys masks to
// device names, so a second client with the same name is turned away.
func TestSecAggRejectsDuplicateDevices(t *testing.T) {
	state := newState(0)
	srv := NewServer(state, ServerConfig{Rounds: 1, SecAgg: true, MinClients: 1})
	a := newTestTrainer("twin", false, 2)
	b := newTestTrainer("twin", false, 4)
	clients, err := runSession(t, srv, []*testTrainer{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if clients[0].RejectedReason != "" {
		t.Fatalf("first twin rejected: %s", clients[0].RejectedReason)
	}
	if !strings.Contains(clients[1].RejectedReason, "duplicate") {
		t.Fatalf("second twin reason = %q", clients[1].RejectedReason)
	}
	if got := state[0].Data[0]; got != 2 {
		t.Fatalf("state = %v, want only the first twin's update", got)
	}
}

// TestSecAggRejectsNamelessDevice: a device's name is its place in the
// mask graph, and a roster with an empty name is one every client
// refuses to decode — so a client with no name is turned away at the
// handshake, and the named clients mask and finish the round.
func TestSecAggRejectsNamelessDevice(t *testing.T) {
	state := newState(0)
	// The deadline only bounds a failure: every client that was admitted
	// answers at once.
	srv := NewServer(state, ServerConfig{Rounds: 1, SecAgg: true, MinClients: 2, RoundDeadline: 10 * time.Second})
	nameless := newTestTrainer("", false, 8)
	a := newTestTrainer("a", false, 2)
	b := newTestTrainer("b", false, 4)
	clients, err := runSession(t, srv, []*testTrainer{nameless, a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(clients[0].RejectedReason, "name") {
		t.Fatalf("nameless client reason = %q", clients[0].RejectedReason)
	}
	for i, c := range clients[1:] {
		if c.RejectedReason != "" || c.Rounds != 1 {
			t.Fatalf("named client %d: rejected %q, %d rounds", i+1, c.RejectedReason, c.Rounds)
		}
	}
	if got := state[0].Data[0]; got != 3 {
		t.Fatalf("state = %v, want the mean of the named clients' updates", got)
	}
}

// TestSecAggDuplicateDeviceCannotClobberEnclaveChannel: with an
// enclave, the first establisher of a device name keeps its channel;
// the duplicate is rejected during selection and the surviving twin's
// sealed path still works end to end.
func TestSecAggDuplicateDeviceCannotClobberEnclaveChannel(t *testing.T) {
	enclave, err := secagg.NewEnclave("twin-agg")
	if err != nil {
		t.Fatal(err)
	}
	defer enclave.Close()
	a := newTestTrainer("twin", true, 2)
	b := newTestTrainer("twin", true, 2)
	state := newState(5, 50)
	srv := NewServer(state, ServerConfig{
		Rounds: 2, SecAgg: true, Enclave: enclave, MinClients: 1,
		RequireTEE: true, Verifier: setupVerifier(a, b),
		Planner: staticPlanner{0: true},
	})
	clients, err := runSession(t, srv, []*testTrainer{a, b})
	if err != nil {
		t.Fatal(err)
	}
	rejections := 0
	for _, c := range clients {
		if c.RejectedReason != "" {
			rejections++
		}
	}
	if rejections != 1 {
		t.Fatalf("%d twins rejected, want exactly 1 (reasons: %q / %q)",
			rejections, clients[0].RejectedReason, clients[1].RejectedReason)
	}
	// The survivor's trusted channel must still work: both tensors
	// advanced by +2 per round across 2 rounds, protected one included.
	if state[0].Data[0] != 9 || state[1].Data[0] != 54 {
		t.Fatalf("state = %v / %v, want 9 / 54", state[0].Data[0], state[1].Data[0])
	}
}

// TestSecAggProtectionWithoutEnclaveFails: the server must refuse to
// run a protected plan without an enclave rather than unseal updates
// itself.
func TestSecAggProtectionWithoutEnclaveFails(t *testing.T) {
	tr := newTestTrainer("tee", true, 2)
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 1, SecAgg: true, Planner: staticPlanner{0: true},
		RequireTEE: true, Verifier: setupVerifier(tr),
	})
	_, err := runSession(t, srv, []*testTrainer{tr})
	if !errors.Is(err, ErrSecAggNeedsEnclave) {
		t.Fatalf("err = %v, want ErrSecAggNeedsEnclave", err)
	}
}

// TestSecAggEnclaveRequiresChannel: in enclave-backed sessions a client
// without a trusted channel would fracture the uniform masked layout
// and is rejected at selection.
func TestSecAggEnclaveRequiresChannel(t *testing.T) {
	enclave, err := secagg.NewEnclave("strict-agg")
	if err != nil {
		t.Fatal(err)
	}
	defer enclave.Close()
	srv := NewServer(newState(0), ServerConfig{Rounds: 1, SecAgg: true, Enclave: enclave})
	plain := newTestTrainer("no-tee", false, 2)
	clients, err := runSession(t, srv, []*testTrainer{plain})
	if !errors.Is(err, ErrNotEnoughClients) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(clients[0].RejectedReason, "trusted channel") {
		t.Fatalf("reason = %q", clients[0].RejectedReason)
	}
}

// tapConn records every message crossing the server side of a
// connection, decoded, so a test can assert on what the engine actually
// put on (and took off) the wire.
type tapConn struct {
	Conn
	mu       sync.Mutex
	sent     []Message
	received []Message
}

func (c *tapConn) note(dst *[]Message, m Message) {
	c.mu.Lock()
	*dst = append(*dst, m)
	c.mu.Unlock()
}

func (c *tapConn) Send(m Message) error {
	c.note(&c.sent, m)
	return c.Conn.Send(m)
}

func (c *tapConn) SendFrame(mt MsgType, payload []byte) error {
	if m, err := DecodeMessage(mt, payload); err == nil {
		c.note(&c.sent, m)
	}
	return c.Conn.SendFrame(mt, payload)
}

// Recv records a copy of what it receives: the engine releases a
// message's frame once it has classified it, and the tap reads its
// record after the session.
func (c *tapConn) Recv() (Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		own, _ := DecodeMessage(m.Kind(), EncodeMessage(m))
		c.note(&c.received, own)
	}
	return m, err
}

// runTapped runs a full session of the trainers against srv over pipes
// whose server side is tapped.
func runTapped(t *testing.T, srv *Server, trainers []*testTrainer) ([]*tapConn, error) {
	t.Helper()
	taps := make([]*tapConn, len(trainers))
	conns := make([]Conn, len(trainers))
	var wg sync.WaitGroup
	for i, tr := range trainers {
		sc, cc := Pipe()
		taps[i] = &tapConn{Conn: sc}
		conns[i] = taps[i]
		wg.Add(1)
		go func(tr *testTrainer) {
			defer wg.Done()
			defer cc.Close()
			_ = NewClient(cc, tr).Run()
		}(tr)
	}
	_, err := srv.Run(conns)
	wg.Wait()
	return taps, err
}

// TestSecAggDefaultDegreeIsKRegular: a session that enables SecAgg and
// says nothing else — flserver -secagg — runs k-regular double-masked
// rounds: the resolved degree on the wire is positive, every upload
// carries one self-seed share per graph neighbour, and every round
// reconciles. A negative degree is a configuration error.
func TestSecAggDefaultDegreeIsKRegular(t *testing.T) {
	trainers := []*testTrainer{
		newTestTrainer("pi-0", false, 1),
		newTestTrainer("pi-1", false, 2),
		newTestTrainer("pi-2", false, 3),
	}
	state := newState(0)
	taps, err := runTapped(t, NewServer(state, ServerConfig{Rounds: 2, SecAgg: true}), trainers)
	if err != nil {
		t.Fatal(err)
	}
	for i, tap := range taps {
		downs, recons := 0, 0
		for _, m := range tap.sent {
			switch m := m.(type) {
			case *ModelDown:
				downs++
				if m.MaskDegree != secagg.DegreeFor(3) || m.MaskDegree < 1 {
					t.Fatalf("client %d round %d: resolved MaskDegree = %d, want DegreeFor(3) = %d", i, m.Round, m.MaskDegree, secagg.DegreeFor(3))
				}
			case *MaskRecon:
				recons++
			}
		}
		if downs != 2 || recons != 2 {
			t.Fatalf("client %d saw %d models and %d reconciliation requests, want 2 and 2", i, downs, recons)
		}
		for _, m := range tap.received {
			if up, ok := m.(*MaskedUp); ok && len(up.Shares) != 2 {
				t.Fatalf("client %d round %d uploaded %d self-seed shares, want 2 (complete graph over 3)", i, up.Round, len(up.Shares))
			}
		}
	}
	if got := state[0].Data[0]; got != 4 {
		t.Fatalf("state = %v, want 4 (two rounds of mean 2)", got)
	}

	bad := NewServer(newState(0), ServerConfig{SecAgg: true, MaskDegree: -1})
	if _, err := bad.Run(nil); !errors.Is(err, ErrBadMaskDegree) {
		t.Fatalf("negative MaskDegree: err = %v, want ErrBadMaskDegree", err)
	}
}

// TestSecAggOneMemberCohort: the one cohort the mask graph has nothing
// to say about. A single member has no pairs and needs no self mask, so
// its upload carries no shares, the round has no reconciliation phase,
// and the levels are the plain quantised update — which is why the
// release floor, not the masking, is what protects it.
func TestSecAggOneMemberCohort(t *testing.T) {
	state := newState(0)
	taps, err := runTapped(t, NewServer(state, ServerConfig{Rounds: 2, SecAgg: true}),
		[]*testTrainer{newTestTrainer("solo", false, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range taps[0].sent {
		switch m := m.(type) {
		case *ModelDown:
			if m.MaskDegree != 0 || m.Cohort.N != 1 {
				t.Fatalf("round %d: MaskDegree %d over %d members, want 0 over 1", m.Round, m.MaskDegree, m.Cohort.N)
			}
		case *MaskRecon:
			t.Fatalf("one-member round %d ran a reconciliation phase", m.Round)
		}
	}
	ups := 0
	for _, m := range taps[0].received {
		up, ok := m.(*MaskedUp)
		if !ok {
			continue
		}
		ups++
		if len(up.Shares) != 0 {
			t.Fatalf("round %d upload carries %d self-seed shares", up.Round, len(up.Shares))
		}
		want := secagg.Quantise(newState(2)[0], secagg.ScaleFor(secagg.DefaultScaleBits), 1)
		got := make([]uint64, up.Levels[0].Size())
		up.Levels[0].AddTo(got)
		if got[0] != want.Levels[0] {
			t.Fatalf("round %d levels are masked: %d, want the plain quantised %d", up.Round, got[0], want.Levels[0])
		}
	}
	if ups != 2 {
		t.Fatalf("saw %d masked uploads, want 2", ups)
	}
	if got := state[0].Data[0]; got != 4 {
		t.Fatalf("state = %v, want 4", got)
	}

	// MinRelease still applies: with a floor of 2 the lone update is never
	// published.
	floored := newState(0)
	srv := NewServer(floored, ServerConfig{Rounds: 1, SecAgg: true, MinRelease: 2})
	_, err = runTapped(t, srv, []*testTrainer{newTestTrainer("solo", false, 2)})
	if !errors.Is(err, secagg.ErrCohortTooSmall) {
		t.Fatalf("err = %v, want ErrCohortTooSmall", err)
	}
	if got := floored[0].Data[0]; got != 0 {
		t.Fatalf("state = %v: an under-floor aggregate was published", got)
	}
}

// TestSecAggClientRefusesMaskDowngrade: a curious server that announces
// MaskDegree 0 for a multi-member cohort is asking for an update
// without its self mask, and a follow-up MaskRecon naming cohort
// members would then collect the pair seeds that strip the rest. The
// client must refuse at the first step: no MaskedUp, no seed, session
// over with ErrMaskDowngrade.
func TestSecAggClientRefusesMaskDowngrade(t *testing.T) {
	sc, cc := Pipe()
	client := NewClient(cc, newTestTrainer("victim", false, 2))
	clientErr := make(chan error, 1)
	go func() {
		defer cc.Close()
		clientErr <- client.Run()
	}()

	if err := sc.Send(&Challenge{Nonce: make([]byte, 16), SecAgg: true}); err != nil {
		t.Fatal(err)
	}
	msg, err := sc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	att, ok := msg.(*Attest)
	if !ok || len(att.MaskPub) == 0 {
		t.Fatalf("handshake answer = %#v, want an Attest with a mask key", msg)
	}
	peer, err := secagg.MaskKeyFromSeed([]byte("peer"))
	if err != nil {
		t.Fatal(err)
	}
	cohort := roster(secagg.Peer{Device: "victim", Pub: att.MaskPub}, secagg.Peer{Device: "peer", Pub: peer.Public()})
	if err := sc.Send(&ModelDown{Round: 0, Plain: newState(1), Cohort: cohort, MaskDegree: 0}); err != nil {
		t.Fatal(err)
	}
	// The client may already have hung up; the request is best effort.
	_ = sc.Send(&MaskRecon{Round: 0, Dropped: []string{"peer"}})

	for {
		msg, err := sc.Recv()
		if err != nil {
			break // client closed: nothing more can leak
		}
		switch msg.(type) {
		case *MaskedUp, *MaskShares:
			t.Fatalf("client answered a downgraded round with %T", msg)
		}
	}
	if err := <-clientErr; !errors.Is(err, secagg.ErrMaskDowngrade) {
		t.Fatalf("client err = %v, want ErrMaskDowngrade", err)
	}
	if client.Rounds != 0 {
		t.Fatalf("client counted %d completed rounds", client.Rounds)
	}
}

// TestSecAggFoldedClientLostBeforeReconciliation: a client that uploads
// and then hangs up while stragglers are still pending is already
// quarantined when reconciliation starts. That loss is judged exactly
// like one during the phase: survivable when the client owed no pair
// seeds (no dropped neighbour) and every owner still reaches its Shamir
// threshold — the round commits bit-identically to plaintext FedAvg
// over the folded updates — and fatal, with nothing published, when a
// dropped neighbour's pair seed died with it.
func TestSecAggFoldedClientLostBeforeReconciliation(t *testing.T) {
	const n = 9 // auto degree 6: each member has two non-neighbours
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("dev-%d", i)
	}
	straggler := names[n-1]
	graph, err := secagg.NewGraph(0, names, secagg.DegreeFor(n))
	if err != nil {
		t.Fatal(err)
	}
	owes := make(map[string]bool)
	for _, d := range graph.Neighbors(straggler) {
		owes[d] = true
	}
	pick := func(neighbour bool) int {
		for i, d := range names[:n-1] {
			if owes[d] == neighbour {
				return i
			}
		}
		t.Fatalf("no responder with neighbour=%v of %s", neighbour, straggler)
		return -1
	}
	responders := func() []*testTrainer {
		out := make([]*testTrainer, n-1)
		for i := range out {
			out[i] = newTestTrainer(names[i], false, float64(i+1))
		}
		return out
	}
	plainState := newState(1, 10)
	if _, err := runSession(t, NewServer(plainState, ServerConfig{Rounds: 1}), responders()); err != nil {
		t.Fatal(err)
	}

	sameState := func(a, b []*tensor.Tensor) bool {
		for i := range a {
			for j := range a[i].Data {
				if a[i].Data[j] != b[i].Data[j] {
					return false
				}
			}
		}
		return true
	}

	run := func(t *testing.T, closer int) ([]*tensor.Tensor, RoundStats, error) {
		clk := simclock.NewVirtual(time.Unix(0, 0))
		events := make(chan engineEvent, 64)
		slow := newGateTrainer(straggler, 9, 0)
		trainers := make([]Trainer, 0, n)
		for _, tr := range responders() {
			trainers = append(trainers, tr)
		}
		trainers = append(trainers, slow)

		state := newState(1, 10)
		srv := NewServer(state, ServerConfig{
			Rounds: 1, MinClients: 1, RoundDeadline: time.Second, Clock: clk,
			SecAgg: true, Hooks: eventHooks(events),
		})
		conns := make([]Conn, n)
		clientConns := make([]Conn, n)
		var wg sync.WaitGroup
		for i, tr := range trainers {
			conns[i], clientConns[i] = Pipe()
			wg.Add(1)
			go func(cc Conn, tr Trainer) {
				defer wg.Done()
				defer cc.Close()
				_ = NewClient(cc, tr).Run()
			}(clientConns[i], tr)
		}
		serverErr := make(chan error, 1)
		go func() {
			_, err := srv.Run(conns)
			serverErr <- err
		}()

		waitFolds(t, events, n-1)
		// Hang up after the upload folded, while the straggler keeps the
		// collect phase open; the deadline fires only once the server has
		// noticed.
		clientConns[closer].Close()
		if q := waitEvent(t, events, "quarantined"); q.device != names[closer] {
			t.Fatalf("quarantined %q, want %q", q.device, names[closer])
		}
		clk.Advance(time.Second)
		closed := waitEvent(t, events, "closed")
		runErr := <-serverErr
		slow.release(0)
		wg.Wait()
		return state, closed.stats, runErr
	}

	t.Run("no dropped neighbour", func(t *testing.T) {
		got, stats, err := run(t, pick(false))
		if err != nil {
			t.Fatalf("survivable loss failed the round: %v", err)
		}
		if stats.Responded != n-1 || stats.Dropped != 1 || stats.Quarantined != 1 || stats.Reconciled != 1 {
			t.Fatalf("stats = %+v", stats)
		}
		if !sameState(got, plainState) {
			t.Fatalf("masked %v / %v != plaintext %v / %v", got[0].Data, got[1].Data, plainState[0].Data, plainState[1].Data)
		}
	})
	t.Run("dropped neighbour", func(t *testing.T) {
		got, _, err := run(t, pick(true))
		if !errors.Is(err, ErrSecAggRecon) {
			t.Fatalf("err = %v, want ErrSecAggRecon", err)
		}
		if !sameState(got, newState(1, 10)) {
			t.Fatalf("state = %v / %v: a round that failed closed published an update", got[0].Data, got[1].Data)
		}
	})
}

package fl

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// testTA is the minimal trusted app used for attestation in tests.
type testTA struct{ uuid tz.UUID }

func (t *testTA) UUID() tz.UUID                                   { return t.uuid }
func (t *testTA) Version() string                                 { return "test-1" }
func (t *testTA) OpenSession(*tz.TAEnv) (any, error)              { return nil, nil }
func (t *testTA) Invoke(*tz.TAEnv, any, uint32, any) (any, error) { return nil, nil }
func (t *testTA) CloseSession(*tz.TAEnv, any)                     {}

// testTrainer implements Trainer with a constant additive update.
type testTrainer struct {
	id     string
	hasTEE bool
	delta  float64

	dev  *tz.Device
	app  *testTA
	chMu sync.Mutex
	ch   *tz.Channel

	// sawNilAt records which plain positions arrived nil per round.
	sawNilAt map[int]bool
	// openedBlobs records the plaintext of every sealed model payload
	// this trainer opened, in round order.
	openedBlobs [][]byte
	// sentBlobs records the plaintext of every sealed update this
	// trainer produced, in round order.
	sentBlobs [][]byte
	// failOnRound injects a training failure.
	failOnRound int
	// examples is reported through the ExampleCounter extension; 0
	// leaves the update unit-weighted.
	examples int
	// maxCodec caps the client's codec negotiation (default f64).
	maxCodec wire.Codec
}

// NumExamples implements the optional ExampleCounter extension.
func (t *testTrainer) NumExamples() int { return t.examples }

func newTestTrainer(id string, hasTEE bool, delta float64) *testTrainer {
	t := &testTrainer{id: id, hasTEE: hasTEE, delta: delta, sawNilAt: map[int]bool{}, failOnRound: -1}
	if hasTEE {
		t.dev = tz.NewDevice(id)
		t.app = &testTA{uuid: tz.NameUUID("trainer-ta")}
		if err := t.dev.Install(t.app); err != nil {
			panic(err)
		}
	}
	return t
}

func (t *testTrainer) DeviceID() string { return t.id }
func (t *testTrainer) HasTEE() bool     { return t.hasTEE }

func (t *testTrainer) Attest(nonce []byte) (tz.Quote, error) {
	return t.dev.Attest(t.app.UUID(), nonce)
}

func (t *testTrainer) OpenChannel(serverPub []byte) ([]byte, error) {
	offer, err := tz.NewChannelOffer()
	if err != nil {
		return nil, err
	}
	ch, err := offer.Establish(serverPub, false)
	if err != nil {
		return nil, err
	}
	t.chMu.Lock()
	t.ch = ch
	t.chMu.Unlock()
	return offer.Public, nil
}

func (t *testTrainer) TrainRound(round int, plain []*tensor.Tensor, sealed []byte, plan []byte) ([]*tensor.Tensor, []byte, error) {
	if round == t.failOnRound {
		return nil, nil, errors.New("injected failure")
	}
	full := make([]*tensor.Tensor, len(plain))
	copy(full, plain)
	var protIdx []int
	if len(sealed) > 0 {
		blob, err := t.ch.Open(sealed)
		if err != nil {
			return nil, nil, err
		}
		t.openedBlobs = append(t.openedBlobs, append([]byte(nil), blob...))
		idx, ts, err := wire.DecodeSealedUpdate(blob)
		if err != nil {
			return nil, nil, err
		}
		for j, id := range idx {
			full[id] = ts[j]
			protIdx = append(protIdx, id)
		}
	}
	for i, p := range plain {
		if p == nil {
			t.sawNilAt[i] = true
		}
	}
	plainUpd := make([]*tensor.Tensor, len(full))
	var secretTs []*tensor.Tensor
	prot := map[int]bool{}
	for _, id := range protIdx {
		prot[id] = true
	}
	for i, w := range full {
		if w == nil {
			return nil, nil, fmt.Errorf("missing weights for %d", i)
		}
		upd := tensor.Full(t.delta, w.Shape...)
		if prot[i] {
			secretTs = append(secretTs, upd)
		} else {
			plainUpd[i] = upd
		}
	}
	var sealedUpd []byte
	if len(protIdx) > 0 {
		blob := wire.EncodeSealedUpdate(protIdx, secretTs)
		t.sentBlobs = append(t.sentBlobs, blob)
		sealedUpd = t.ch.Seal(blob)
	}
	return plainUpd, sealedUpd, nil
}

func newState(vals ...float64) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(vals))
	for i, v := range vals {
		out[i] = tensor.Full(v, 2, 2)
	}
	return out
}

// runSession wires n trainers to a server over in-memory pipes.
func runSession(t *testing.T, srv *Server, trainers []*testTrainer) ([]*Client, error) {
	t.Helper()
	serverConns := make([]Conn, len(trainers))
	clients := make([]*Client, len(trainers))
	var wg sync.WaitGroup
	cErrs := make([]error, len(trainers))
	for i, tr := range trainers {
		sc, cc := Pipe()
		serverConns[i] = sc
		clients[i] = NewClient(cc, tr)
		clients[i].MaxCodec = tr.maxCodec
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cErrs[i] = clients[i].Run()
		}(i)
	}
	_, sErr := srv.Run(serverConns)
	wg.Wait()
	for i, err := range cErrs {
		if err != nil && sErr == nil {
			return clients, fmt.Errorf("client %d: %w", i, err)
		}
	}
	return clients, sErr
}

func TestSessionNoTEE(t *testing.T) {
	state := newState(1, 10)
	srv := NewServer(state, ServerConfig{Rounds: 3})
	trainers := []*testTrainer{
		newTestTrainer("c1", false, 1),
		newTestTrainer("c2", false, 3),
	}
	clients, err := runSession(t, srv, trainers)
	if err != nil {
		t.Fatal(err)
	}
	// avg delta = 2 per round, 3 rounds → +6 on every element.
	if got := state[0].Data[0]; got != 7 {
		t.Fatalf("state[0] = %v, want 7", got)
	}
	if got := state[1].Data[0]; got != 16 {
		t.Fatalf("state[1] = %v, want 16", got)
	}
	for i, c := range clients {
		if c.Rounds != 3 {
			t.Fatalf("client %d rounds = %d", i, c.Rounds)
		}
		if len(c.Final) != 2 || c.Final[0].Data[0] != 7 {
			t.Fatalf("client %d final = %v", i, c.Final)
		}
	}
}

func setupVerifier(trainers ...*testTrainer) *tz.Verifier {
	v := tz.NewVerifier()
	for _, tr := range trainers {
		if tr.hasTEE {
			v.RegisterDevice(tr.dev.Identity().ID(), tr.dev.Identity().RootKey())
			m, _ := tr.dev.Measurement(tr.app.UUID())
			v.AllowMeasurement(m)
		}
	}
	return v
}

func TestSelectionRejectsNonTEE(t *testing.T) {
	tee := newTestTrainer("tee", true, 1)
	plain := newTestTrainer("plain", false, 1)
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 1, RequireTEE: true, Verifier: setupVerifier(tee, plain),
	})
	clients, err := runSession(t, srv, []*testTrainer{tee, plain})
	if err != nil {
		t.Fatal(err)
	}
	if clients[0].RejectedReason != "" {
		t.Fatalf("TEE client rejected: %s", clients[0].RejectedReason)
	}
	if clients[1].RejectedReason == "" {
		t.Fatal("non-TEE client must be rejected when RequireTEE")
	}
}

func TestSelectionRejectsUnknownDevice(t *testing.T) {
	good := newTestTrainer("good", true, 1)
	rogue := newTestTrainer("rogue", true, 1)
	v := setupVerifier(good) // rogue not registered
	srv := NewServer(newState(0), ServerConfig{Rounds: 1, RequireTEE: true, Verifier: v})
	clients, err := runSession(t, srv, []*testTrainer{good, rogue})
	if err != nil {
		t.Fatal(err)
	}
	if clients[1].RejectedReason == "" {
		t.Fatal("unregistered device must be rejected")
	}
	if !strings.Contains(clients[1].RejectedReason, "attestation failed") {
		t.Fatalf("reason = %q", clients[1].RejectedReason)
	}
}

func TestNotEnoughClients(t *testing.T) {
	plain := newTestTrainer("plain", false, 1)
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 1, RequireTEE: true, Verifier: tz.NewVerifier(), MinClients: 1,
	})
	_, err := runSession(t, srv, []*testTrainer{plain})
	if !errors.Is(err, ErrNotEnoughClients) {
		t.Fatalf("err = %v", err)
	}
}

// staticPlanner protects a fixed set of flat indices every round.
type staticPlanner map[int]bool

func (p staticPlanner) PlanRound(int) (map[int]bool, []byte) { return p, []byte("plan") }

func TestSealedPathProtectsTensors(t *testing.T) {
	tee := newTestTrainer("tee", true, 2)
	state := newState(5, 50)
	srv := NewServer(state, ServerConfig{
		Rounds: 2, RequireTEE: true, Verifier: setupVerifier(tee),
		Planner: staticPlanner{0: true},
	})
	if _, err := runSession(t, srv, []*testTrainer{tee}); err != nil {
		t.Fatal(err)
	}
	// Protected tensor 0 must have arrived nil in the clear.
	if !tee.sawNilAt[0] {
		t.Fatal("protected tensor 0 was sent in the clear")
	}
	if tee.sawNilAt[1] {
		t.Fatal("unprotected tensor 1 went missing")
	}
	// Updates must still be applied to both tensors: +2 × 2 rounds.
	if state[0].Data[0] != 9 || state[1].Data[0] != 54 {
		t.Fatalf("state = %v / %v", state[0].Data[0], state[1].Data[0])
	}
}

func TestClientTrainingFailurePropagates(t *testing.T) {
	bad := newTestTrainer("bad", false, 1)
	bad.failOnRound = 1
	srv := NewServer(newState(0), ServerConfig{Rounds: 3})
	_, err := runSession(t, srv, []*testTrainer{bad})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPTransportSession(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	state := newState(1)
	srv := NewServer(state, ServerConfig{Rounds: 2})

	var wg sync.WaitGroup
	wg.Add(1)
	var clientErr error
	go func() {
		defer wg.Done()
		conn, err := Dial(l.Addr())
		if err != nil {
			clientErr = err
			return
		}
		defer conn.Close()
		clientErr = NewClient(conn, newTestTrainer("tcp-client", false, 5)).Run()
	}()

	sc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := srv.Run([]Conn{sc}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if clientErr != nil {
		t.Fatal(clientErr)
	}
	if state[0].Data[0] != 11 {
		t.Fatalf("state = %v, want 11", state[0].Data[0])
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	msgs := []Message{
		&Challenge{Nonce: []byte{1, 2}, ServerPub: []byte{3}, RequireTEE: true},
		&Attest{DeviceID: "d", HasTEE: true, ClientPub: []byte{9},
			Quote: tz.Quote{DeviceID: "d", Nonce: []byte{1}, MAC: []byte{2}}},
		&Reject{Reason: "no TEE"},
		&ModelDown{Round: 3, Plain: []*tensor.Tensor{nil, tensor.Full(1, 2)}, Sealed: []byte{7}, Plan: []byte{8}},
		&GradUp{Round: 3, Plain: []*tensor.Tensor{tensor.Full(2, 2), nil}, Sealed: []byte{6}},
		&Done{Final: []*tensor.Tensor{tensor.Full(3, 1)}},
		&ErrorMsg{Text: "boom"},
	}
	for _, m := range msgs {
		got, err := DecodeMessage(m.Kind(), EncodeMessage(m))
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got.Kind() != m.Kind() {
			t.Fatalf("%T kind mismatch", m)
		}
	}
	if _, err := DecodeMessage(200, nil); err == nil {
		t.Fatal("unknown message type must fail")
	}
	if _, err := DecodeMessage(MsgModelDown, []byte{0xFF}); err == nil {
		t.Fatal("corrupt payload must fail")
	}
}

// TestHostileListCountRejected: a list count the remaining payload
// cannot hold fails the frame. Before the one list rule, each of these
// decoded without error — the list as empty, and whatever followed the
// count as later fields (a ModelDown read Version 7, Trace 9).
func TestHostileListCountRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		mt   MsgType
		head []uint64 // uvarints before the hostile count
	}{
		{"ModelDown.Cohort", MsgModelDown, []uint64{3, 0, 0, 0}},
		{"MaskedUp.Shares", MsgMaskedUp, []uint64{3, 0, 0, 0}},
		{"MaskRecon.Dropped", MsgMaskRecon, []uint64{3}},
		{"MaskRecon.Survivors", MsgMaskRecon, []uint64{3, 0}},
		{"MaskShares.Shares", MsgMaskShares, []uint64{3}},
		{"MaskShares.SeedShares", MsgMaskShares, []uint64{3, 0}},
	} {
		w := wire.NewWriter()
		for _, v := range append(c.head, 200, 7, 9) {
			w.Uvarint(v)
		}
		m, err := DecodeMessageCodec(c.mt, w.Bytes(), wire.CodecF64)
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: count 200 over 2 bytes decoded as %+v, err %v; want wire.ErrCorrupt", c.name, m, err)
		}
	}
}

func TestFedAvgMath(t *testing.T) {
	u1 := []*tensor.Tensor{tensor.Full(1, 2), tensor.Full(10, 2)}
	u2 := []*tensor.Tensor{tensor.Full(3, 2), tensor.Full(30, 2)}
	avg := FedAvg([][]*tensor.Tensor{u1, u2})
	if avg[0].Data[0] != 2 || avg[1].Data[0] != 20 {
		t.Fatalf("FedAvg = %v / %v", avg[0].Data, avg[1].Data)
	}
	if FedAvg(nil) != nil {
		t.Fatal("FedAvg of nothing must be nil")
	}
	state := newStateScalar(100, 2)
	ApplyUpdate(state, avg, 0.5)
	if state[0].Data[0] != 101 {
		t.Fatalf("ApplyUpdate = %v", state[0].Data[0])
	}
}

func newStateScalar(v float64, n int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.Full(v, 2)
	}
	return out
}

func TestSealedUpdateRoundTrip(t *testing.T) {
	idx := []int{2, 5}
	ts := []*tensor.Tensor{tensor.Full(1, 2), tensor.Full(2, 3)}
	blob := wire.EncodeSealedUpdate(idx, ts)
	gotIdx, gotTs, err := wire.DecodeSealedUpdate(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotIdx) != 2 || gotIdx[0] != 2 || gotIdx[1] != 5 {
		t.Fatalf("idx = %v", gotIdx)
	}
	if !gotTs[1].EqualApprox(ts[1], 0) {
		t.Fatal("tensor mismatch")
	}
	if _, _, err := wire.DecodeSealedUpdate([]byte{0xFF, 0xFF}); err == nil {
		t.Fatal("corrupt sealed update must fail")
	}
}

func TestPipeCloseSemantics(t *testing.T) {
	a, b := Pipe()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&Reject{}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if _, err := b.Recv(); err == nil {
		t.Fatal("recv from closed peer must fail")
	}
}

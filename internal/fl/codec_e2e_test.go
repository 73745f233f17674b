package fl

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// TestCodecNegotiationCaps: the server offers q8; clients settle on
// min(offer, own cap) and the session still converges exactly (constant
// updates survive every codec bit-for-bit).
func TestCodecNegotiationCaps(t *testing.T) {
	state := newState(0)
	srv := NewServer(state, ServerConfig{Rounds: 2, Codec: wire.CodecQ8})
	t1 := newTestTrainer("full", false, 1)
	t1.maxCodec = wire.CodecQ8
	t2 := newTestTrainer("half", false, 3)
	t2.maxCodec = wire.CodecF32
	t3 := newTestTrainer("legacy", false, 5) // cap f64 (zero value)
	clients, err := runSession(t, srv, []*testTrainer{t1, t2, t3})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []wire.Codec{wire.CodecQ8, wire.CodecF32, wire.CodecF64} {
		if got := clients[i].NegotiatedCodec; got != want {
			t.Fatalf("client %d negotiated %s, want %s", i, got, want)
		}
	}
	// mean delta = 3 per round, 2 rounds; constant tensors are exact
	// under q8 and f32, so the aggregate is identical to an f64 session.
	if got := state[0].Data[0]; got != 6 {
		t.Fatalf("state = %v, want 6", got)
	}
}

// TestCodecAboveOfferRejected: a client answering with more compression
// than the server offered is a protocol violation and is turned away.
func TestCodecAboveOfferRejected(t *testing.T) {
	sc, cc := Pipe()
	srv := NewServer(newState(0), ServerConfig{Rounds: 1, Codec: wire.CodecF32})

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
		if _, ok := msg.(*Challenge); !ok {
			return
		}
		_ = cc.Send(&Attest{DeviceID: "greedy", Codec: wire.CodecQ8})
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
	if !strings.Contains(rejected, "codec") {
		t.Fatalf("rejection reason = %q", rejected)
	}
}

// TestWeightedFedAvgOnTheWire: GradUp example counts weight the
// aggregate — (1·2 + 3·6)/4 = 5 — and surface in the round trace.
func TestWeightedFedAvgOnTheWire(t *testing.T) {
	state := newState(0)
	srv := NewServer(state, ServerConfig{Rounds: 1})
	small := newTestTrainer("small", false, 2)
	small.examples = 1
	big := newTestTrainer("big", false, 6)
	big.examples = 3
	if _, err := runSession(t, srv, []*testTrainer{small, big}); err != nil {
		t.Fatal(err)
	}
	if got := state[0].Data[0]; got != 5 {
		t.Fatalf("weighted state = %v, want 5", got)
	}
	stats := srv.Trace()[0]
	if stats.WeightTotal != 4 || stats.Responded != 2 {
		t.Fatalf("stats = %+v, want weight 4 over 2 responders", stats)
	}
}

// TestUnweightedStaysUnitWeight: clients that do not report examples
// keep the plain FedAvg semantics (WeightTotal == Responded).
func TestUnweightedStaysUnitWeight(t *testing.T) {
	state := newState(0)
	srv := NewServer(state, ServerConfig{Rounds: 1})
	if _, err := runSession(t, srv, []*testTrainer{
		newTestTrainer("a", false, 2), newTestTrainer("b", false, 6),
	}); err != nil {
		t.Fatal(err)
	}
	if got := state[0].Data[0]; got != 4 {
		t.Fatalf("state = %v, want plain mean 4", got)
	}
	if stats := srv.Trace()[0]; stats.WeightTotal != 2 {
		t.Fatalf("WeightTotal = %v, want 2", stats.WeightTotal)
	}
}

// TestExampleWeightClamped: a client claiming an absurd example count
// is folded at MaxExampleWeight, not at its claimed weight, so it
// cannot fully drown out the cohort.
func TestExampleWeightClamped(t *testing.T) {
	state := newState(0)
	srv := NewServer(state, ServerConfig{Rounds: 1})
	greedy := newTestTrainer("greedy", false, 2)
	greedy.examples = 1 << 40
	honest := newTestTrainer("honest", false, 6)
	honest.examples = 1
	if _, err := runSession(t, srv, []*testTrainer{greedy, honest}); err != nil {
		t.Fatal(err)
	}
	if got, want := srv.Trace()[0].WeightTotal, float64(MaxExampleWeight+1); got != want {
		t.Fatalf("WeightTotal = %v, want clamped %v", got, want)
	}
	// The aggregate is still dominated by the clamped client, but the
	// honest update measurably participates (it would not at 2^40).
	got := state[0].Data[0]
	want := (float64(MaxExampleWeight)*2 + 6) * (1 / float64(MaxExampleWeight+1))
	if got != want {
		t.Fatalf("weighted state = %v, want %v", got, want)
	}
}

// TestSealedPathUnderQ8: quantised sessions must leave the sealed
// (trusted-channel) tensors at full precision and still fold exactly.
func TestSealedPathUnderQ8(t *testing.T) {
	tee := newTestTrainer("tee", true, 2)
	tee.maxCodec = wire.CodecQ8
	state := newState(5, 50)
	srv := NewServer(state, ServerConfig{
		Rounds: 2, RequireTEE: true, Verifier: setupVerifier(tee),
		Planner: staticPlanner{0: true}, Codec: wire.CodecQ8,
	})
	if _, err := runSession(t, srv, []*testTrainer{tee}); err != nil {
		t.Fatal(err)
	}
	if !tee.sawNilAt[0] || tee.sawNilAt[1] {
		t.Fatalf("protection split wrong: %v", tee.sawNilAt)
	}
	if state[0].Data[0] != 9 || state[1].Data[0] != 54 {
		t.Fatalf("state = %v / %v, want 9 / 54", state[0].Data[0], state[1].Data[0])
	}
}

// TestSealedPayloadsByteIdenticalAcrossCodecs: whatever codec the
// session negotiates, the sealed (trusted-channel) payloads in both
// directions must stay on the exact f64 encoding — the inner plaintext
// blobs are byte-identical across f64/f32/q8 sessions and decode to the
// exact tensors.
func TestSealedPayloadsByteIdenticalAcrossCodecs(t *testing.T) {
	type capture struct {
		opened [][]byte // server→client sealed model payloads (plaintext)
		sent   [][]byte // client→server sealed update payloads (plaintext)
	}
	run := func(codec wire.Codec) capture {
		tee := newTestTrainer("tee", true, 2)
		tee.maxCodec = codec
		state := newState(5, 50)
		srv := NewServer(state, ServerConfig{
			Rounds: 2, RequireTEE: true, Verifier: setupVerifier(tee),
			Planner: staticPlanner{0: true}, Codec: codec,
		})
		if _, err := runSession(t, srv, []*testTrainer{tee}); err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if state[0].Data[0] != 9 || state[1].Data[0] != 54 {
			t.Fatalf("%s: state = %v / %v", codec, state[0].Data[0], state[1].Data[0])
		}
		return capture{opened: tee.openedBlobs, sent: tee.sentBlobs}
	}

	ref := run(wire.CodecF64)
	if len(ref.opened) != 2 || len(ref.sent) != 2 {
		t.Fatalf("f64 session sealed %d down / %d up payloads, want 2 / 2", len(ref.opened), len(ref.sent))
	}
	// The sealed model payload must carry the exact f64 state (5 in
	// round 0), not a quantised copy.
	idx, ts, err := wire.DecodeSealedUpdate(ref.opened[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0] != 0 || ts[0].Data[0] != 5 {
		t.Fatalf("sealed round-0 model = idx %v, value %v", idx, ts[0].Data)
	}

	for _, codec := range []wire.Codec{wire.CodecF32, wire.CodecQ8} {
		got := run(codec)
		for r := range ref.opened {
			if string(got.opened[r]) != string(ref.opened[r]) {
				t.Fatalf("%s: sealed model payload for round %d differs from the f64 session", codec, r)
			}
			if string(got.sent[r]) != string(ref.sent[r]) {
				t.Fatalf("%s: sealed update payload for round %d differs from the f64 session", codec, r)
			}
		}
	}
}

// views encodes ts under codec and reads them back as wire views.
func views(codec wire.Codec, ts []*tensor.Tensor) (vs []*wire.View) {
	payload := wire.Encode(codec, func(f *wire.Fields) { f.Tensors(&ts) })
	if err := wire.Decode(payload, codec, func(f *wire.Fields) { wire.List(f, &vs, (*wire.Fields).View) }); err != nil {
		panic(err)
	}
	return vs
}

// TestAccumulateMatchesMaterialisedFold: under every codec, folding an
// update's wire views must be bit for bit the arithmetic of
// materialising them and calling Add, at unit and at non-dyadic weight;
// and a hostile update must be refused before it touches the sum, the
// weight or the count.
func TestAccumulateMatchesMaterialisedFold(t *testing.T) {
	// The last tensor spans more than one fold chunk.
	ref := []*tensor.Tensor{tensor.New(3, 4), tensor.New(7), tensor.New(foldChunk + 5)}
	update := func(codec wire.Codec, seed int64) []*wire.View {
		rng := rand.New(rand.NewSource(seed))
		upd := make([]*tensor.Tensor, len(ref))
		for i, r := range ref {
			upd[i] = tensor.Randn(rng, 1.0, r.Shape...)
		}
		return views(codec, upd)
	}
	type snapshot struct {
		bits   []uint64
		weight float64
		count  int
	}
	snap := func(a *Aggregator) snapshot { return snapshot{sumBits(a), a.Weight(), a.Count()} }
	for _, codec := range goldenCodecs {
		for _, weight := range []float64{1, 0.3} {
			t.Run(fmt.Sprintf("%s/w=%v", codec, weight), func(t *testing.T) {
				lazy, eager := NewAggregator(ref), NewAggregator(ref)
				for seed := int64(1); seed <= 5; seed++ {
					vs := update(codec, seed)
					if err := lazy.Accumulate(vs, weight); err != nil {
						t.Fatal(err)
					}
					mat := make([]*tensor.Tensor, len(vs))
					for i, v := range vs {
						mat[i] = v.Materialise()
					}
					if err := eager.Add(mat, weight); err != nil {
						t.Fatal(err)
					}
				}
				want := snap(eager)
				if got := snap(lazy); !reflect.DeepEqual(got, want) {
					t.Fatalf("Accumulate diverged from materialise-then-Add")
				}

				short := update(codec, 9)
				short[2] = &wire.View{Shape: short[2].Shape, Codec: codec, Raw: short[2].Raw[:len(short[2].Raw)-1]}
				shape := update(codec, 9)
				shape[1] = update(codec, 9)[0]
				missing := update(codec, 9)
				missing[2] = nil
				for name, hostile := range map[string]struct {
					vs     []*wire.View
					weight float64
				}{
					"wrong shape":     {shape, weight},
					"short raw":       {short, weight},
					"nil entry":       {missing, weight},
					"short list":      {update(codec, 9)[:2], weight},
					"zero weight":     {update(codec, 9), 0},
					"negative weight": {update(codec, 9), -weight},
				} {
					if err := lazy.Accumulate(hostile.vs, hostile.weight); err == nil {
						t.Errorf("%s: accepted", name)
					}
					if got := snap(lazy); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: refused update moved the aggregate", name)
					}
				}
			})
		}
	}
}

// TestIOTimeoutUnblocksSelection: a TCP client that connects and then
// goes silent can no longer stall selection — the handshake read
// deadline expires and the session proceeds with the healthy cohort.
func TestIOTimeoutUnblocksSelection(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Healthy participant.
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
		clientErr = NewClient(conn, newTestTrainer("healthy", false, 3)).Run()
	}()
	// Dead weight: dials, then never reads or writes.
	dead, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()

	conns := make([]Conn, 0, 2)
	for len(conns) < 2 {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}

	state := newState(0)
	srv := NewServer(state, ServerConfig{Rounds: 1, MinClients: 1, IOTimeout: 150 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(conns)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("selection still stalled despite IOTimeout")
	}
	wg.Wait()
	if clientErr != nil {
		t.Fatal(clientErr)
	}
	if got := state[0].Data[0]; got != 3 {
		t.Fatalf("state = %v, want 3", got)
	}
}

// TestWriteTimeoutUnblocksStalledSend: a peer that stops reading cannot
// block Send forever once a write timeout is armed (net.Pipe is fully
// synchronous, so the very first unread byte stalls the writer).
func TestWriteTimeoutUnblocksStalledSend(t *testing.T) {
	p1, p2 := net.Pipe()
	defer p1.Close()
	defer p2.Close()
	conn := NewNetConn(p1)
	dc := conn.(DeadlineConn)
	dc.SetWriteTimeout(100 * time.Millisecond)

	errc := make(chan error, 1)
	go func() { errc <- conn.Send(&ModelDown{Round: 0, Plain: newState(1, 2)}) }()
	select {
	case err := <-errc:
		var nerr net.Error
		if err == nil || !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("err = %v, want a net timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send still blocked despite write timeout")
	}
}

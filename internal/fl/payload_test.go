package fl

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// sumBits is an aggregator's running sum by bit pattern.
func sumBits(a *Aggregator) (bits []uint64) {
	for _, t := range a.Sum() {
		bits = append(bits, bitsOf(t.Data)...)
	}
	return bits
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestReceivedUpdatesOwnTheirFrames: a decoded GradUp reads its tensors
// through views into its frame, so a transport must never read the next
// frame into it. A peer sends two updates back to back and the server
// side receives both before folding either; the fold must equal the
// materialised one on every transport.
func TestReceivedUpdatesOwnTheirFrames(t *testing.T) {
	transports := map[string]func(t *testing.T) (server, peer Conn){
		"pipe": func(*testing.T) (Conn, Conn) { return Pipe() },
		"tcp": func(t *testing.T) (Conn, Conn) {
			l, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			peer, err := Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			server, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			return server, peer
		},
	}
	for name, connect := range transports {
		t.Run(name, func(t *testing.T) {
			server, peer := connect(t)
			defer server.Close()
			defer peer.Close()
			ups := []*GradUp{{Plain: newState(1.5, -2)}, {Plain: newState(0.25, 8)}}
			for _, up := range ups {
				if err := peer.Send(up); err != nil {
					t.Fatal(err)
				}
			}
			var got []*GradUp
			for range ups {
				m, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, m.(*GradUp))
			}
			lazy, eager := NewAggregator(newState(0, 0)), NewAggregator(newState(0, 0))
			for i, up := range ups {
				if err := lazy.Accumulate(got[i].Views, 1); err != nil {
					t.Fatal(err)
				}
				if err := eager.Add(up.Plain, 1); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := sumBits(lazy), sumBits(eager); !slices.Equal(a, b) {
				t.Fatalf("folded %v, want %v: the second frame overwrote the first", lazy.Sum(), eager.Sum())
			}
		})
	}
}

// inPlaceTrainer trains on the model buffer it is handed — it adds one
// to every parameter and returns the buffer itself as its update — and
// records the model it saw.
type inPlaceTrainer struct{ saw [][]float64 }

func (*inPlaceTrainer) DeviceID() string                   { return "in-place" }
func (*inPlaceTrainer) HasTEE() bool                       { return false }
func (*inPlaceTrainer) Attest([]byte) (tz.Quote, error)    { return tz.Quote{}, nil }
func (*inPlaceTrainer) OpenChannel([]byte) ([]byte, error) { return nil, nil }

func (tr *inPlaceTrainer) TrainRound(_ int, plain []*tensor.Tensor, _, _ []byte) ([]*tensor.Tensor, []byte, error) {
	for _, p := range plain {
		tr.saw = append(tr.saw, append([]float64(nil), p.Data...))
		for j := range p.Data {
			p.Data[j]++
		}
	}
	return plain, nil, nil
}

// TestBroadcastModelSharedAcrossClients: one encoded ModelDown is handed
// to many pipes by reference. Each client decodes it into a model
// buffer of its own and trains on that, so every later client still
// sees the broadcast model and the payload never changes.
func TestBroadcastModelSharedAcrossClients(t *testing.T) {
	state := newState(1.5, -2)
	payload := EncodeMessageCodec(&ModelDown{Plain: state}, wire.CodecF64)
	pristine := bytes.Clone(payload)
	for i := 0; i < 3; i++ {
		sc, cc := Pipe()
		tr := &inPlaceTrainer{}
		done := make(chan error, 1)
		go func() { done <- NewClient(cc, tr).Run() }()
		if err := sc.Send(&Challenge{}); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Recv(); err != nil { // Attest
			t.Fatal(err)
		}
		if err := sc.SendFrame(MsgModelDown, payload); err != nil {
			t.Fatal(err)
		}
		m, err := sc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Send(&Done{}); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		for k, v := range m.(*GradUp).Views {
			if saw, want := tr.saw[k][0], state[k].Data[0]; saw != want {
				t.Fatalf("client %d saw %v at tensor %d, want the broadcast %v", i, saw, k, want)
			}
			if got, want := v.Materialise().Data[0], state[k].Data[0]+1; got != want {
				t.Fatalf("client %d sent %v at tensor %d, want %v", i, got, k, want)
			}
		}
	}
	if !bytes.Equal(payload, pristine) {
		t.Fatal("a client mutated the shared broadcast payload")
	}
}

// doneTap records how the server delivers the session's Done on one
// connection: encoded for this peer alone (Send), or as a shared frame.
type doneTap struct {
	Conn
	mu      sync.Mutex
	sends   int
	payload []byte
}

func (c *doneTap) Send(m Message) error {
	if m.Kind() == MsgDone {
		c.mu.Lock()
		c.sends++
		c.mu.Unlock()
	}
	return c.Conn.Send(m)
}

func (c *doneTap) SendFrame(mt MsgType, payload []byte) error {
	if mt == MsgDone {
		c.mu.Lock()
		c.payload = payload
		c.mu.Unlock()
	}
	return c.Conn.SendFrame(mt, payload)
}

// TestAsyncDoneEncodedOnce: an asynchronous drain serialises the final
// model once per codec, not once per device — every device receives the
// same Done frame, byte for byte the one a per-device encode produced.
func TestAsyncDoneEncodedOnce(t *testing.T) {
	const devices = 6
	srv := NewServer(newState(0, 0), ServerConfig{
		Rounds: 3, MinClients: 3,
		Async: AsyncConfig{Enabled: true, GoalUpdates: 3},
	})
	taps := make([]*doneTap, devices)
	conns := make([]Conn, devices)
	clients := make([]*Client, devices)
	var wg sync.WaitGroup
	for i := range taps {
		sc, cc := Pipe()
		taps[i] = &doneTap{Conn: sc}
		conns[i] = taps[i]
		clients[i] = NewClient(cc, newTestTrainer(string(rune('a'+i)), false, float64(i+1)))
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			if err := c.Run(); err != nil {
				t.Error(err)
			}
		}(clients[i])
	}
	if _, err := srv.Run(conns); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	want := EncodeMessageCodec(&Done{Final: srv.State()}, wire.CodecF64)
	first := taps[0].payload
	for i, tap := range taps {
		if tap.sends != 0 || tap.payload == nil {
			t.Fatalf("device %d: Done sent %d times per device, shared frame %v", i, tap.sends, tap.payload != nil)
		}
		if &tap.payload[0] != &first[0] || !bytes.Equal(tap.payload, want) {
			t.Fatalf("device %d received a Done of its own, not the one shared frame", i)
		}
		for k, f := range clients[i].Final {
			if !slices.Equal(bitsOf(f.Data), bitsOf(srv.State()[k].Data)) {
				t.Fatalf("device %d final tensor %d = %v, want %v", i, k, f.Data, srv.State()[k].Data)
			}
		}
	}
}

// TestEncodeAllocatesExactly: Encode's sizing pass counts every schema
// exactly, so each payload is one allocation of its own size — every
// message under every codec, and every decoded message re-encoded under
// every codec, where a view under another codec re-encodes exactly as
// its materialised tensor would.
func TestEncodeAllocatesExactly(t *testing.T) {
	for _, m := range wireExamples() {
		for _, from := range goldenCodecs {
			p := EncodeMessageCodec(m, from)
			if cap(p) != len(p) {
				t.Errorf("%T/%s: %d-byte payload in a %d-byte buffer", m, from, len(p), cap(p))
			}
			for _, to := range goldenCodecs {
				dec, err := DecodeMessageCodec(m.Kind(), p, from)
				if err != nil {
					t.Fatal(err)
				}
				q := EncodeMessageCodec(dec, to)
				if cap(q) != len(q) {
					t.Errorf("%T %s→%s: %d-byte payload in a %d-byte buffer", m, from, to, len(q), cap(q))
				}
				if want := EncodeMessageCodec(materialised(dec), to); to != from && !bytes.Equal(q, want) {
					t.Errorf("%T %s→%s: views re-encoded unlike their tensors", m, from, to)
				}
			}
		}
	}
}

// stubTrainer answers every round with the same update from a buffer it
// owns, so a round's allocations are the engine's alone.
type stubTrainer struct {
	id  string
	upd []*tensor.Tensor
}

func (s *stubTrainer) DeviceID() string                 { return s.id }
func (*stubTrainer) HasTEE() bool                       { return false }
func (*stubTrainer) Attest([]byte) (tz.Quote, error)    { return tz.Quote{}, nil }
func (*stubTrainer) OpenChannel([]byte) ([]byte, error) { return nil, nil }
func (s *stubTrainer) TrainRound(int, []*tensor.Tensor, []byte, []byte) ([]*tensor.Tensor, []byte, error) {
	return s.upd, nil, nil
}

// TestRoundAllocationGuard pins the zero-materialisation update path: a
// warm f64 round of 32 clients on the LeNet-5 state over pipes allocates
// under 1.3 encoded GradUps per client plus four models — each update
// frame is one exact-size payload the server folds in place, and each
// client decodes the broadcast into its own model.
func TestRoundAllocationGuard(t *testing.T) {
	const clients, warm, measured = 32, 2, 4
	state := nn.NewLeNet5(rand.New(rand.NewSource(1)), nn.ActReLU).StateDict()
	upd := make([]*tensor.Tensor, len(state))
	modelBytes := 0
	for i, s := range state {
		upd[i] = tensor.Full(0.125, s.Shape...)
		modelBytes += 8 * s.Size()
	}
	gradUp := len(EncodeMessageCodec(&GradUp{Plain: upd}, wire.CodecF64))

	var closed []uint64
	srv := NewServer(state, ServerConfig{Rounds: warm + measured, Hooks: Hooks{RoundClosed: func(RoundStats) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		closed = append(closed, ms.TotalAlloc)
	}}})
	conns := make([]Conn, clients)
	var wg sync.WaitGroup
	for i := range conns {
		sc, cc := Pipe()
		conns[i] = sc
		c := NewClient(cc, &stubTrainer{id: string(rune('A' + i)), upd: upd})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	if _, err := srv.Run(conns); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	perRound := float64(closed[len(closed)-1]-closed[warm-1]) / measured
	bound := 1.3*float64(clients*gradUp) + 4*float64(modelBytes)
	t.Logf("%.2f MB per round, bound %.2f MB (%.2f× the bound)", perRound/1e6, bound/1e6, perRound/bound)
	if perRound >= bound {
		t.Fatalf("a warm round allocated %.2f MB, want < %.2f MB", perRound/1e6, bound/1e6)
	}
}

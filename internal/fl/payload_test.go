package fl

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/secagg"
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

// TestReceivedUpdatesOwnTheirFrames: a decoded GradUp reads its tensors,
// and a decoded MaskedUp or PartialUp its ring levels, through views into
// its frame, so a transport must never read the next frame into it. A
// peer sends two updates back to back and the server side receives both
// before folding either; the fold must equal the materialised one — the
// sent messages folded as built — word for word on every transport.
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
	// levels returns ring levels shaped like newState's tensors, one
	// pattern per value.
	levels := func(vals ...uint64) []*wire.U64Tensor {
		out := make([]*wire.U64Tensor, len(vals))
		for i, v := range vals {
			out[i] = &wire.U64Tensor{Shape: []int{2, 2}, Levels: []uint64{v, v + 1, v << 40, ^v}}
		}
		return out
	}
	// maskedFold folds each update's levels into a ring sum and returns
	// its words.
	maskedFold := func(t *testing.T, ups []Message, add func(*secagg.MaskedSum, Message) error) []uint64 {
		sum := secagg.NewMaskedSum(newState(0, 0), nil, 0)
		for _, up := range ups {
			if err := add(sum, up); err != nil {
				t.Fatal(err)
			}
		}
		var words []uint64
		for _, l := range sum.Levels() {
			words = append(words, l.Levels...)
		}
		return words
	}
	// Each kind sends two updates and folds a list of them, decoded or as
	// sent, into the words of its running sum.
	kinds := map[string]struct {
		ups  []Message
		fold func(t *testing.T, ups []Message) []uint64
	}{
		"GradUp": {
			ups: []Message{&GradUp{Plain: newState(1.5, -2)}, &GradUp{Plain: newState(0.25, 8)}},
			fold: func(t *testing.T, ups []Message) []uint64 {
				agg := NewAggregator(newState(0, 0))
				for _, m := range ups {
					up := m.(*GradUp)
					var err error
					if up.Views != nil {
						err = agg.Accumulate(up.Views, 1)
					} else {
						err = agg.Add(up.Plain, 1)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				return sumBits(agg)
			},
		},
		"MaskedUp": {
			ups: []Message{&MaskedUp{Levels: levels(3, 1<<63)}, &MaskedUp{Levels: levels(^uint64(0), 7)}},
			fold: func(t *testing.T, ups []Message) []uint64 {
				return maskedFold(t, ups, func(sum *secagg.MaskedSum, m Message) error { return sum.Add(m.(*MaskedUp).Levels, 1) })
			},
		},
		"PartialUp": {
			ups: []Message{
				&PartialUp{Levels: levels(5, 1<<62), Weight: 2, Count: 1},
				&PartialUp{Levels: levels(1<<33, ^uint64(4)), Weight: 3, Count: 2},
			},
			fold: func(t *testing.T, ups []Message) []uint64 {
				return maskedFold(t, ups, func(sum *secagg.MaskedSum, m Message) error {
					up := m.(*PartialUp)
					return sum.AddPartial(up.Levels, up.Weight, int(up.Count))
				})
			},
		},
	}
	for name, connect := range transports {
		t.Run(name, func(t *testing.T) {
			for kind, k := range kinds {
				t.Run(kind, func(t *testing.T) {
					server, peer := connect(t)
					defer server.Close()
					defer peer.Close()
					for _, up := range k.ups {
						if err := peer.Send(up); err != nil {
							t.Fatal(err)
						}
					}
					var got []Message
					for range k.ups {
						m, err := server.Recv()
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, m)
					}
					if lazy, eager := k.fold(t, got), k.fold(t, k.ups); !slices.Equal(lazy, eager) {
						t.Fatalf("folded %v, want %v: the second frame overwrote the first", lazy, eager)
					}
				})
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
// warm round of 32 clients on the LeNet-5 state over pipes allocates
// under 1.3 encoded updates per client plus one model — each update
// frame is one exact-size payload the server folds in place, each
// client decodes the broadcast into its own model, and the server's
// aggregator, mean and broadcast frame live for the session (four
// models of slack before they did). The masked row (auto
// degree) holds the same bound over MaskedUp frames: a client quantises
// and masks into buffers it keeps, and the server folds the ring levels
// straight from the frame and strips the round's seeds in one pass over
// one scratch.
func TestRoundAllocationGuard(t *testing.T) {
	const clients, warm, measured = 32, 2, 4
	lenet := func() []*tensor.Tensor { return nn.NewLeNet5(rand.New(rand.NewSource(1)), nn.ActReLU).StateDict() }
	upd := lenet()
	levels := make([]*wire.U64Tensor, len(upd))
	modelBytes := 0
	for i, u := range upd {
		upd[i] = tensor.Full(0.125, u.Shape...)
		levels[i] = secagg.Quantise(upd[i], secagg.ScaleFor(secagg.DefaultScaleBits), 1)
		modelBytes += 8 * u.Size()
	}
	shares := make([]secagg.WrappedShare, secagg.DegreeFor(clients))
	for i := range shares {
		shares[i] = secagg.WrappedShare{To: "A", Blob: make([]byte, secagg.WrappedShareLen)}
	}
	rows := []struct {
		name  string
		cfg   ServerConfig
		frame int
	}{
		{"f64", ServerConfig{}, len(EncodeMessageCodec(&GradUp{Plain: upd}, wire.CodecF64))},
		{"secagg", ServerConfig{SecAgg: true, MaskDegree: secagg.AutoDegree},
			len(EncodeMessageCodec(&MaskedUp{Levels: levels, Shares: shares}, wire.CodecF64))},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var closed []uint64
			cfg := row.cfg
			cfg.Rounds = warm + measured
			cfg.Hooks = Hooks{RoundClosed: func(RoundStats) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				closed = append(closed, ms.TotalAlloc)
			}}
			srv := NewServer(lenet(), cfg)
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
			bound := 1.3*float64(clients*row.frame) + float64(modelBytes)
			t.Logf("%.2f MB per round, bound %.2f MB (%.2f× the bound)", perRound/1e6, bound/1e6, perRound/bound)
			if perRound >= bound {
				t.Fatalf("a warm round allocated %.2f MB, want < %.2f MB", perRound/1e6, bound/1e6)
			}
		})
	}
}

// modelCheckTrainer is stubTrainer that reads the whole model it is
// handed first: a model decoded from a frame already released — and so,
// under this package's tests, poisoned — reads NaN.
type modelCheckTrainer struct {
	stubTrainer
	t *testing.T
}

func (tr *modelCheckTrainer) TrainRound(round int, plain []*tensor.Tensor, sealed, plan []byte) ([]*tensor.Tensor, []byte, error) {
	for i, p := range plain {
		if slices.ContainsFunc(p.Data, math.IsNaN) {
			tr.t.Errorf("%s round %d: model tensor %d holds NaN: it was read from a released frame", tr.id, round, i)
		}
	}
	return tr.stubTrainer.TrainRound(round, plain, sealed, plan)
}

// TestWarmRoundRecyclesFrames pins the frame leases: the server releases
// each update's frame once it has folded it, and it goes back to the
// side that fills the next frame — a pipe's sending end, a TCP conn's
// read scratch — as does a client's model frame once the client has
// decoded it, and so does the round's broadcast frame once every peer
// has answered. A warm round of 32 clients therefore allocates under a
// model on the plain rows and a few models' worth masked, with no term
// that grows with clients × frame. (With a fresh frame per message a
// round allocated 25 MB on the pipe f64 row, 27 MB masked and 49 MB
// over TCP; with a fresh broadcast frame, aggregator and mean per round
// about 2.3 MB on the plain rows, against bounds of 0.7–5.7 MB.) The
// last row holds a conn to maxReadScratch after it read one oversized
// frame. Each client checks the model it trains on, so a client that
// released its frame before decoding it fails the TCP row.
func TestWarmRoundRecyclesFrames(t *testing.T) {
	const clients, warm, measured = 32, 2, 4
	lenet := func() []*tensor.Tensor { return nn.NewLeNet5(rand.New(rand.NewSource(1)), nn.ActReLU).StateDict() }
	upd := lenet()
	modelBytes := 0
	for i, u := range upd {
		upd[i] = tensor.Full(0.125, u.Shape...)
		modelBytes += 8 * u.Size()
	}
	pipes := func(*testing.T) (server, client []Conn) {
		for i := 0; i < clients; i++ {
			sc, cc := Pipe()
			server, client = append(server, sc), append(client, cc)
		}
		return server, client
	}
	loopback := func(t *testing.T) (server, client []Conn) {
		l, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i := 0; i < clients; i++ {
			cc, err := Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			sc, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			server, client = append(server, sc), append(client, cc)
		}
		return server, client
	}
	// models is each row's bound in model sizes, for what a round
	// allocates once whatever its cohort: nothing model-sized on the
	// plain rows, whose aggregator and broadcast frame live for the
	// session, and on the masked row the ring sum, its mean and its
	// reconciliation.
	rows := []struct {
		name    string
		cfg     ServerConfig
		connect func(*testing.T) (server, client []Conn)
		models  float64
	}{
		{"pipe-f64", ServerConfig{}, pipes, 1},
		{"pipe-q8", ServerConfig{Codec: wire.CodecQ8}, pipes, 1},
		{"pipe-secagg", ServerConfig{SecAgg: true, MaskDegree: secagg.AutoDegree}, pipes, 8},
		{"tcp-f64", ServerConfig{}, loopback, 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var closed []uint64
			cfg := row.cfg
			cfg.Rounds = warm + measured
			cfg.Hooks = Hooks{RoundClosed: func(RoundStats) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				closed = append(closed, ms.TotalAlloc)
			}}
			srv := NewServer(lenet(), cfg)
			server, client := row.connect(t)
			var wg sync.WaitGroup
			for i, cc := range client {
				c := NewClient(cc, &modelCheckTrainer{stubTrainer{id: string(rune('A' + i)), upd: upd}, t})
				c.MaxCodec = wire.CodecQ8
				wg.Add(1)
				go func(cc Conn) {
					defer wg.Done()
					defer cc.Close()
					if err := c.Run(); err != nil {
						t.Error(err)
					}
				}(cc)
			}
			if _, err := srv.Run(server); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			perRound := float64(closed[len(closed)-1]-closed[warm-1]) / measured
			bound := row.models * float64(modelBytes)
			t.Logf("%.2f MB per round, bound %.2f MB (%.2f× the bound)", perRound/1e6, bound/1e6, perRound/bound)
			if perRound >= bound {
				t.Fatalf("a warm round allocated %.2f MB, want < %.2f MB: an update or model frame was not recycled", perRound/1e6, bound/1e6)
			}
		})
	}
	t.Run("tcp-oversized-frame", func(t *testing.T) {
		l, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		peer, err := Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		server, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer server.Close()
		scratch := server.(*tcpConn).scratch
		for _, elems := range []int{maxReadScratch/8 + 1024, 1024} {
			go func(up *GradUp) { _ = peer.Send(up) }(&GradUp{Plain: []*tensor.Tensor{tensor.New(elems)}})
			m, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			releaseFrame(m)
			kept := scratch.take()
			if cap(kept) > maxReadScratch {
				t.Fatalf("a %d-element frame left %d bytes pinned, want at most %d", elems, cap(kept), maxReadScratch)
			}
			if elems == 1024 && kept == nil {
				t.Fatal("a released frame within the cap was not kept for the next one")
			}
		}
	})
}

// TestStragglerKeepsItsBroadcastFrame pins the rule for recycling a
// synchronous round's shared model frame: it goes back to the server's
// spare only once every peer it reached has answered. A pipe peer takes
// round 0's ModelDown, never answers and holds the message — its views
// alias the frame — past round 0's close. Read after round 1's
// broadcast, which is encoded into the spare, the views must still hold
// round 0's model. A frame recycled regardless of the straggler would
// read poisoned 0xFF bytes at its release and round 1's model after.
func TestStragglerKeepsItsBroadcastFrame(t *testing.T) {
	state := newStateScalar(1, 3)
	sent := cloneState(state) // round 0's model
	upd := newStateScalar(0.125, 3)
	srv := NewServer(state, ServerConfig{Rounds: 2, MinClients: 2, RoundDeadline: 100 * time.Millisecond})
	conns := make([]Conn, 3)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		sc, cc := Pipe()
		conns[i] = sc
		c := NewClient(cc, &stubTrainer{id: string(rune('A' + i)), upd: upd})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.Run()
		}()
	}
	sc, straggler := Pipe()
	conns[2] = sc
	held := make(chan *ModelDown, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(held)
		msg, err := straggler.Recv()
		ch, ok := msg.(*Challenge)
		if err != nil || !ok {
			t.Errorf("straggler: awaiting challenge: %v %T", err, msg)
			return
		}
		if err := straggler.Send(&Attest{DeviceID: "straggler", Codec: ch.Codec}); err != nil {
			t.Errorf("straggler: attesting: %v", err)
			return
		}
		msg, err = straggler.Recv()
		if m, ok := msg.(*ModelDown); ok && err == nil {
			held <- m // and never answer
		}
	}()
	if _, err := srv.Run(conns); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	m := <-held
	if m == nil || m.Round != 0 {
		t.Fatalf("the straggler holds %+v, want round 0's ModelDown", m)
	}
	if got := srv.Trace(); len(got) != 2 || got[0].Dropped != 1 || got[1].Dropped != 1 {
		t.Fatalf("trace %+v: want two rounds, each dropping the straggler", got)
	}
	if state[0].Data[0] == sent[0].Data[0] {
		t.Fatal("the model did not move: the test would not see a reused frame")
	}
	for i, v := range m.Views {
		got := v.Materialise()
		if !slices.Equal(bitsOf(got.Data), bitsOf(sent[i].Data)) {
			t.Fatalf("tensor %d of the held round-0 model reads %v after round 1, want %v: its frame was recycled under a peer that never answered", i, got.Data, sent[i].Data)
		}
	}
}

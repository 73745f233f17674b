package fl

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
)

// startAsyncSession wires trainers to a server over pipes and drives
// RunAsync — the asynchronous sibling of startSession.
func startAsyncSession(srv *Server, trainers []Trainer) (serverErr chan error, clients []*Client, clientErrs []error, wg *sync.WaitGroup) {
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
		_, err := srv.RunAsync(serverConns)
		serverErr <- err
	}()
	return serverErr, clients, clientErrs, wg
}

// asyncPeer is a hand-driven async client for deterministic protocol
// tests: the test decides exactly when each push happens, so arrival
// order — and with it staleness — is fully controlled.
type asyncPeer struct {
	t    *testing.T
	conn Conn
	name string
}

func dialAsyncPeer(t *testing.T, name string, conn Conn) *asyncPeer {
	t.Helper()
	p := &asyncPeer{t: t, conn: conn, name: name}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatalf("%s: awaiting challenge: %v", name, err)
	}
	ch, ok := msg.(*Challenge)
	if !ok {
		t.Fatalf("%s: expected Challenge, got %T", name, msg)
	}
	if err := conn.Send(&Attest{DeviceID: name, Codec: ch.Codec}); err != nil {
		t.Fatalf("%s: attesting: %v", name, err)
	}
	conn.SetCodec(ch.Codec)
	return p
}

// recvModel expects the next message to be a ModelDown and returns it.
func (p *asyncPeer) recvModel() *ModelDown {
	p.t.Helper()
	msg, err := p.conn.Recv()
	if err != nil {
		p.t.Fatalf("%s: receiving model: %v", p.name, err)
	}
	m, ok := msg.(*ModelDown)
	if !ok {
		p.t.Fatalf("%s: expected ModelDown, got %T", p.name, msg)
	}
	return m
}

// push answers the given model with a constant update trained on it.
func (p *asyncPeer) push(m *ModelDown, delta float64) {
	p.t.Helper()
	upd := make([]*tensor.Tensor, len(m.Views))
	for i, v := range m.Views {
		upd[i] = tensor.Full(delta, v.Shape...)
	}
	if err := p.conn.Send(&GradUp{Round: m.Round, Plain: upd, Version: m.Version}); err != nil {
		p.t.Fatalf("%s: pushing: %v", p.name, err)
	}
}

// recvDone expects the next message to be the session's Done.
func (p *asyncPeer) recvDone() *Done {
	p.t.Helper()
	msg, err := p.conn.Recv()
	if err != nil {
		p.t.Fatalf("%s: receiving done: %v", p.name, err)
	}
	d, ok := msg.(*Done)
	if !ok {
		p.t.Fatalf("%s: expected Done, got %T", p.name, msg)
	}
	return d
}

// TestAsyncSessionBasic: a healthy fleet of protocol clients completes
// an asynchronous session — every version window folds exactly
// GoalUpdates updates and every client receives the final model.
func TestAsyncSessionBasic(t *testing.T) {
	trainers := []Trainer{
		newTestTrainer("a", false, 1),
		newTestTrainer("b", false, 2),
		newTestTrainer("c", false, 3),
	}
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 4, MinClients: 3,
		Async: AsyncConfig{Enabled: true, GoalUpdates: 3},
	})
	serverErr, clients, clientErrs, wg := startAsyncSession(srv, trainers)
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	trace := srv.Trace()
	if len(trace) != 4 {
		t.Fatalf("trace has %d versions, want 4", len(trace))
	}
	for v, st := range trace {
		if st.Round != v || st.Responded != 3 {
			t.Fatalf("version %d stats = %+v, want 3 folds", v, st)
		}
	}
	for i, c := range clients {
		if clientErrs[i] != nil {
			t.Fatalf("client %d: %v", i, clientErrs[i])
		}
		if len(c.Final) == 0 {
			t.Fatalf("client %d missed the final model", i)
		}
	}
}

// TestAsyncStalenessDiscount: a fast device drives the version forward
// while a slow one still trains on version 0; the slow push folds at
// the 1/√(1+s) discount and its GradUp.Version echo is what the server
// derives the staleness from.
func TestAsyncStalenessDiscount(t *testing.T) {
	fastConn, fastClient := Pipe()
	slowConn, slowClient := Pipe()
	state := newState(0)
	srv := NewServer(state, ServerConfig{
		Rounds: 3, MinClients: 2,
		Async: AsyncConfig{Enabled: true, GoalUpdates: 1},
	})
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.RunAsync([]Conn{fastConn, slowConn})
		serverErr <- err
	}()

	var fast, slow *asyncPeer
	var handshake sync.WaitGroup
	handshake.Add(2)
	go func() { defer handshake.Done(); fast = dialAsyncPeer(t, "fast", fastClient) }()
	go func() { defer handshake.Done(); slow = dialAsyncPeer(t, "slow", slowClient) }()
	handshake.Wait()

	m0 := fast.recvModel()
	slowM0 := slow.recvModel()
	if m0.Version != 0 || slowM0.Version != 0 {
		t.Fatalf("initial versions = %d, %d, want 0", m0.Version, slowM0.Version)
	}

	// Fast pushes twice; with K=1 each fold applies immediately, so the
	// version advances to 2 while slow still holds version 0.
	fast.push(m0, 1)
	m1 := fast.recvModel()
	if m1.Version != 1 {
		t.Fatalf("fast re-armed with version %d, want 1", m1.Version)
	}
	fast.push(m1, 1)
	m2 := fast.recvModel()
	if m2.Version != 2 {
		t.Fatalf("fast re-armed with version %d, want 2", m2.Version)
	}

	// Slow's version-0 update arrives at version 2: staleness 2, folded
	// at 1/√3 weight. K=1 makes it the third application, which exhausts
	// the version budget — slow's reply is the Done.
	slow.push(slowM0, 1)
	slowDone := slow.recvDone()
	if len(slowDone.Final) == 0 {
		t.Fatal("slow missed the final model")
	}
	// Fast still owes a push for version 2; the drain answers it with
	// Done.
	fast.push(m2, 1)
	fastDone := fast.recvDone()
	if len(fastDone.Final) == 0 {
		t.Fatal("fast missed the final model")
	}
	fastClient.Close()
	slowClient.Close()
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}

	trace := srv.Trace()
	if len(trace) != 3 {
		t.Fatalf("trace has %d versions, want 3", len(trace))
	}
	for v, st := range trace {
		if st.Responded != 1 {
			t.Fatalf("version %d stats = %+v, want 1 fold", v, st)
		}
		wantWeight := 1.0
		if v == 2 {
			wantWeight = 1 / math.Sqrt(3) // slow's staleness-2 fold
		}
		if st.WeightTotal != wantWeight {
			t.Fatalf("version %d WeightTotal = %v, want %v", v, st.WeightTotal, wantWeight)
		}
	}
	// Applications: +1, +1, then the discounted slow fold is the whole
	// window, so its mean is still +1 (weights cancel in a 1-update
	// mean).
	if got := state[0].Data[0]; got != 3 {
		t.Fatalf("state = %v, want 3", got)
	}
}

// replyWatch is a server-side Conn that notes, whenever the server sends
// its device anything, whether the last GradUp it delivered still holds
// its frame's lease.
type replyWatch struct {
	Conn
	mu      sync.Mutex
	pushed  *GradUp
	replies int // sends that answered a push
	held    int // of those, sends made while the push still held its frame
}

func (c *replyWatch) Recv() (Message, error) {
	m, err := c.Conn.Recv()
	if up, ok := m.(*GradUp); ok {
		c.mu.Lock()
		c.pushed = up
		c.mu.Unlock()
	}
	return m, err
}

func (c *replyWatch) replying() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pushed == nil {
		return
	}
	c.replies++
	if c.pushed.home != nil {
		c.held++
	}
	c.pushed = nil
}

func (c *replyWatch) Send(m Message) error {
	c.replying()
	return c.Conn.Send(m)
}

func (c *replyWatch) SendFrame(mt MsgType, payload []byte) error {
	c.replying()
	return c.Conn.SendFrame(mt, payload)
}

// TestAsyncPushReleasedBeforeReply: the server gives a push's frame back
// once the push is folded, before it answers the device — with the next
// model, with the Done that ends the budget, and during the drain — so a
// device that answers its reply at once encodes its next push into the
// spare buffer instead of a fresh frame. Each peer waits for its reply
// before pushing again, so every check runs at a fixed point of the
// session, not on a race.
func TestAsyncPushReleasedBeforeReply(t *testing.T) {
	aConn, aClient := Pipe()
	bConn, bClient := Pipe()
	watches := []*replyWatch{{Conn: aConn}, {Conn: bConn}}
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 2, MinClients: 2,
		Async: AsyncConfig{Enabled: true, GoalUpdates: 2},
	})
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run([]Conn{watches[0], watches[1]})
		serverErr <- err
	}()
	var a, b *asyncPeer
	var handshake sync.WaitGroup
	handshake.Add(2)
	go func() { defer handshake.Done(); a = dialAsyncPeer(t, "a", aClient) }()
	go func() { defer handshake.Done(); b = dialAsyncPeer(t, "b", bClient) }()
	handshake.Wait()

	ma, mb := a.recvModel(), b.recvModel()
	a.push(ma, 1) // folded, one short of the goal: re-armed with version 0
	ma = a.recvModel()
	b.push(mb, 1) // folded, the goal: version 1 opens
	mb = b.recvModel()
	a.push(ma, 1) // folded one version stale
	ma = a.recvModel()
	b.push(mb, 1) // the goal again, the last version: Done
	b.recvDone()
	a.push(ma, 1) // the drain answers with Done
	a.recvDone()
	aClient.Close()
	bClient.Close()
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	for i, w := range watches {
		if w.replies == 0 || w.held != 0 {
			t.Errorf("peer %d: %d of %d replies sent while the push still held its frame", i, w.held, w.replies)
		}
	}
}

// TestAsyncMaxStalenessDiscard: an update more than MaxStaleness
// versions behind is discarded (LateDiscarded), but the device is
// immediately re-armed with the fresh model and stays healthy.
func TestAsyncMaxStalenessDiscard(t *testing.T) {
	fastConn, fastClient := Pipe()
	slowConn, slowClient := Pipe()
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 4, MinClients: 2,
		Async: AsyncConfig{Enabled: true, GoalUpdates: 1, MaxStaleness: 1},
	})
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.RunAsync([]Conn{fastConn, slowConn})
		serverErr <- err
	}()
	var fast, slow *asyncPeer
	var handshake sync.WaitGroup
	handshake.Add(2)
	go func() { defer handshake.Done(); fast = dialAsyncPeer(t, "fast", fastClient) }()
	go func() { defer handshake.Done(); slow = dialAsyncPeer(t, "slow", slowClient) }()
	handshake.Wait()

	m := fast.recvModel()
	slowM0 := slow.recvModel()
	// Drive the version to 2 with fast pushes.
	for want := uint64(1); want <= 2; want++ {
		fast.push(m, 1)
		m = fast.recvModel()
		if m.Version != want {
			t.Fatalf("fast re-armed with version %d, want %d", m.Version, want)
		}
	}
	// Slow's version-0 push is 2 versions stale — over the cut-off. It
	// must be discarded and slow re-armed with version 2, not benched.
	slow.push(slowM0, 100)
	slowM2 := slow.recvModel()
	if slowM2.Version != 2 {
		t.Fatalf("slow re-armed with version %d, want 2", slowM2.Version)
	}
	// Slow's fresh push now folds; fast's outstanding push and slow's
	// next one finish the session through the drain.
	slow.push(slowM2, 1)
	slowM3 := slow.recvModel()
	if slowM3.Version != 3 {
		t.Fatalf("slow re-armed with version %d, want 3", slowM3.Version)
	}
	slow.push(slowM3, 1)
	slow.recvDone()
	fast.push(m, 1)
	fast.recvDone()
	fastClient.Close()
	slowClient.Close()
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}

	trace := srv.Trace()
	if len(trace) != 4 {
		t.Fatalf("trace has %d versions, want 4", len(trace))
	}
	discarded, quarantined, probation := 0, 0, 0
	for _, st := range trace {
		discarded += st.LateDiscarded
		quarantined += st.Quarantined
		probation += st.Probation
	}
	if discarded != 1 || quarantined != 0 || probation != 0 {
		t.Fatalf("discarded %d quarantined %d probation %d, want 1/0/0", discarded, quarantined, probation)
	}
	// The 100-delta discarded update must not have touched the model:
	// 4 applications of +1 each.
	if got := srv.State()[0].Data[0]; got != 4 {
		t.Fatalf("state = %v, want 4", got)
	}
}

// TestAsyncRateLimitAndDuplicates: MinPushInterval discards a push
// inside the rate window (Duplicates) while re-arming the device, and
// pushes without an outstanding model strike the health budget until
// the device is benched.
func TestAsyncRateLimitAndDuplicates(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	events := make(chan engineEvent, 64)
	keeperConn, keeperClient := Pipe()
	floodConn, floodClient := Pipe()
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 2, MinClients: 1, Clock: clk, QuarantineRounds: 8,
		Hooks: eventHooks(events),
		Async: AsyncConfig{
			Enabled: true, GoalUpdates: 2,
			MinPushInterval: time.Second,
		},
	})
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.RunAsync([]Conn{keeperConn, floodConn})
		serverErr <- err
	}()
	var keeper, flood *asyncPeer
	var handshake sync.WaitGroup
	handshake.Add(2)
	go func() { defer handshake.Done(); keeper = dialAsyncPeer(t, "keeper", keeperClient) }()
	go func() { defer handshake.Done(); flood = dialAsyncPeer(t, "flood", floodClient) }()
	handshake.Wait()

	km := keeper.recvModel()
	fm := flood.recvModel()

	// Flood folds once, then pushes again without advancing the virtual
	// clock: inside MinPushInterval, so the push is discarded as a
	// duplicate — but flood is still re-armed.
	flood.push(fm, 1)
	fm = flood.recvModel()
	flood.push(fm, 1)
	fm = flood.recvModel()
	if fm.Version != 0 {
		t.Fatalf("flood re-armed with version %d, want 0 (window not full)", fm.Version)
	}

	// A training failure benches flood (probation, no reply owed); its
	// three follow-up pushes have no outstanding model, strike the health
	// budget three times, and exhaust it.
	if err := floodClient.Send(&ErrorMsg{Text: "boom"}); err != nil {
		t.Fatal(err)
	}
	flood.push(fm, 1)
	flood.push(fm, 1)
	flood.push(fm, 1)
	// Both bench decisions — the failure and the third strike —
	// must land before the keeper is allowed to finish the session, or
	// the orphan pushes could drift into the drain and go unaccounted.
	waitEvent(t, events, "probation")
	waitEvent(t, events, "probation")

	// The keeper carries the session: advance the clock past the rate
	// window between folds so its pushes all count.
	for {
		clk.Advance(2 * time.Second)
		keeper.push(km, 1)
		msg, err := keeperClient.Recv()
		if err != nil {
			t.Fatalf("keeper: %v", err)
		}
		if _, done := msg.(*Done); done {
			break
		}
		km = msg.(*ModelDown)
	}
	keeperClient.Close()
	floodClient.Close()
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}

	duplicates, probation, quarantined := 0, 0, 0
	for _, st := range srv.Trace() {
		duplicates += st.Duplicates
		probation += st.Probation
		quarantined += st.Quarantined
	}
	// 1 rate-limited push + 3 orphan pushes; the failure and the third
	// strike both book probation (QuarantineRounds > 0 keeps the bench
	// temporary), never a permanent quarantine.
	if duplicates != 4 {
		t.Fatalf("duplicates = %d, want 4", duplicates)
	}
	if probation != 2 || quarantined != 0 {
		t.Fatalf("probation %d quarantined %d, want 2/0", probation, quarantined)
	}
}

// TestAsyncVersionMismatchBenched: a push that does not echo the
// version the server handed the device is a protocol violation.
func TestAsyncVersionMismatchBenched(t *testing.T) {
	keeperConn, keeperClient := Pipe()
	liarConn, liarClient := Pipe()
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 1, MinClients: 1,
		Async: AsyncConfig{Enabled: true, GoalUpdates: 1},
	})
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.RunAsync([]Conn{keeperConn, liarConn})
		serverErr <- err
	}()
	var keeper, liar *asyncPeer
	var handshake sync.WaitGroup
	handshake.Add(2)
	go func() { defer handshake.Done(); keeper = dialAsyncPeer(t, "keeper", keeperClient) }()
	go func() { defer handshake.Done(); liar = dialAsyncPeer(t, "liar", liarClient) }()
	handshake.Wait()

	km := keeper.recvModel()
	lm := liar.recvModel()
	lm.Version = 7 // claim a version the server never sent
	liar.push(lm, 1)
	if _, err := liarClient.Recv(); err == nil {
		t.Fatal("liar expected its connection closed")
	}
	keeper.push(km, 1)
	keeper.recvDone()
	keeperClient.Close()
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	quarantined := 0
	for _, st := range srv.Trace() {
		quarantined += st.Quarantined
	}
	if quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", quarantined)
	}
}

// TestAsyncBackpressureBufferOne: with the arrival fan-in capped at one
// in-flight update, readers block instead of buffering — and the
// session still completes every window.
func TestAsyncBackpressureBufferOne(t *testing.T) {
	trainers := make([]Trainer, 8)
	for i := range trainers {
		trainers[i] = newTestTrainer(string(rune('a'+i)), false, 1)
	}
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 5, MinClients: 8,
		Async: AsyncConfig{Enabled: true, GoalUpdates: 4, Buffer: 1},
	})
	serverErr, _, clientErrs, wg := startAsyncSession(srv, trainers)
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	trace := srv.Trace()
	if len(trace) != 5 {
		t.Fatalf("trace has %d versions, want 5", len(trace))
	}
	for v, st := range trace {
		if st.Responded != 4 {
			t.Fatalf("version %d stats = %+v, want 4 folds", v, st)
		}
	}
}

// TestAsyncConfigRejected: asynchronous pacing under SecAgg is refused
// with ErrAsyncMode by Validate and by both entry points (RunAsync is
// Run), before any connection is looked at; a valid async configuration
// with no clients fails selection instead.
func TestAsyncConfigRejected(t *testing.T) {
	cfg := ServerConfig{Rounds: 1, SecAgg: true, Async: AsyncConfig{Enabled: true}}
	if err := cfg.Validate(); !errors.Is(err, ErrAsyncMode) {
		t.Fatalf("Validate = %v, want ErrAsyncMode", err)
	}
	if _, err := NewServer(newState(0), cfg).Run(nil); !errors.Is(err, ErrAsyncMode) {
		t.Fatalf("Run = %v, want ErrAsyncMode", err)
	}
	if _, err := NewServer(newState(0), cfg).RunAsync(nil); !errors.Is(err, ErrAsyncMode) {
		t.Fatalf("RunAsync = %v, want ErrAsyncMode", err)
	}
	srv := NewServer(newState(0), ServerConfig{Rounds: 1, Async: AsyncConfig{Enabled: true}})
	if _, err := srv.Run(nil); !errors.Is(err, ErrNotEnoughClients) {
		t.Fatalf("Run with Async.Enabled and no clients = %v, want ErrNotEnoughClients", err)
	}
}

// TestAsyncSoak: a larger fleet of protocol clients hammers the
// buffered path — exercised under -race by make check.
func TestAsyncSoak(t *testing.T) {
	trainers := make([]Trainer, 24)
	for i := range trainers {
		trainers[i] = newTestTrainer(string(rune('a'+i%26))+string(rune('0'+i/26)), false, float64(i%7)/8)
	}
	srv := NewServer(newState(0), ServerConfig{
		Rounds: 12, MinClients: 24,
		Async: AsyncConfig{Enabled: true, GoalUpdates: 8},
	})
	serverErr, clients, clientErrs, wg := startAsyncSession(srv, trainers)
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	trace := srv.Trace()
	if len(trace) != 12 {
		t.Fatalf("trace has %d versions, want 12", len(trace))
	}
	total := 0
	for _, st := range trace {
		if st.Responded != 8 {
			t.Fatalf("stats = %+v, want 8 folds per window", st)
		}
		total += st.Responded
	}
	if total != 96 {
		t.Fatalf("folded %d updates, want 96", total)
	}
	for i := range clients {
		if clientErrs[i] != nil {
			t.Fatalf("client %d: %v", i, clientErrs[i])
		}
		if len(clients[i].Final) == 0 {
			t.Fatalf("client %d missed the final model", i)
		}
	}
}

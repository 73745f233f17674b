package fl

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/wire"
)

// parityWait is a server held inside one of its four waits — collect,
// mask reconciliation, an asynchronous version window, the asynchronous
// drain — with the device "victim" still owing its answer and at least
// one other device keeping the wait open.
type parityWait struct {
	srv *Server
	// victim is the victim's own end of its connection.
	victim Conn
	// release ends the wait and then the session; alive says whether the
	// victim is still in standing to give its answer.
	release func(alive bool)
}

// paritySanctions records the sanction hooks of one session. fired is
// written by the server's goroutine and read once the session is over.
type paritySanctions struct {
	fired []string
	event chan struct{}
}

func (p *paritySanctions) note(kind, device string) {
	p.fired = append(p.fired, kind+" "+device)
	p.event <- struct{}{}
}

func (p *paritySanctions) wait(t *testing.T) {
	t.Helper()
	select {
	case <-p.event:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the sanction hook")
	}
}

// holdConn withholds a MaskRecon from its client until released, so the
// server stays in reconciliation waiting for this survivor's shares.
type holdConn struct {
	Conn
	seen    chan struct{}
	release chan struct{}
}

func newHoldConn(c Conn) *holdConn {
	return &holdConn{Conn: c, seen: make(chan struct{}, 1), release: make(chan struct{})}
}

func (c *holdConn) Recv() (Message, error) {
	m, err := c.Conn.Recv()
	if _, ok := m.(*MaskRecon); ok {
		c.seen <- struct{}{}
		<-c.release
	}
	return m, err
}

// parityCollect holds a plain synchronous round in collect.
func parityCollect(t *testing.T, cfg ServerConfig) *parityWait {
	srv := NewServer(newState(0), cfg)
	kc, kp := Pipe()
	vc, vp := Pipe()
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run([]Conn{kc, vc})
		serverErr <- err
	}()
	keeper, victim := dialAsyncPeer(t, "keeper", kp), dialAsyncPeer(t, "victim", vp)
	km, vm := keeper.recvModel(), victim.recvModel()
	return &parityWait{srv: srv, victim: vp, release: func(alive bool) {
		if alive {
			victim.push(vm, 1)
		}
		keeper.push(km, 1)
		keeper.recvDone()
		if alive {
			victim.recvDone()
		}
		if err := <-serverErr; err != nil {
			t.Fatal(err)
		}
	}}
}

// parityReconcile holds a masked round in reconciliation: all four
// devices fold, so every survivor owes only self-seed shares, and the
// victim and the holder sit on their MaskRecon.
func parityReconcile(t *testing.T, cfg ServerConfig) *parityWait {
	cfg.SecAgg = true
	srv := NewServer(newState(0), cfg)
	var conns []Conn
	var held []*holdConn
	var fleet sync.WaitGroup
	for _, name := range []string{"keeper-0", "keeper-1", "victim", "holder"} {
		sc, cc := Pipe()
		conns = append(conns, sc)
		if name == "victim" || name == "holder" {
			h := newHoldConn(cc)
			held = append(held, h)
			cc = h
		}
		fleet.Add(1)
		go func(cc Conn, name string) {
			defer fleet.Done()
			_ = NewClient(cc, newTestTrainer(name, false, 1)).Run() // the victim dies with its connection
		}(cc, name)
	}
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(conns)
		serverErr <- err
	}()
	victim, holder := held[0], held[1]
	<-victim.seen
	<-holder.seen
	return &parityWait{srv: srv, victim: victim.Conn, release: func(alive bool) {
		close(holder.release)
		if alive {
			close(victim.release)
		}
		if err := <-serverErr; err != nil {
			t.Fatalf("the round did not survive a survivor that owed only self-seed shares: %v", err)
		}
		if !alive {
			_ = victim.Conn.Close()
			close(victim.release)
		}
		fleet.Wait()
	}}
}

// parityVersion holds an asynchronous session in its only version
// window: two folds close it, none has arrived.
func parityVersion(t *testing.T, cfg ServerConfig) *parityWait {
	cfg.Async = AsyncConfig{Enabled: true, GoalUpdates: 2}
	srv := NewServer(newState(0), cfg)
	kc, kp := Pipe()
	vc, vp := Pipe()
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.RunAsync([]Conn{kc, vc})
		serverErr <- err
	}()
	keeper, victim := dialAsyncPeer(t, "keeper", kp), dialAsyncPeer(t, "victim", vp)
	km, vm := keeper.recvModel(), victim.recvModel()
	return &parityWait{srv: srv, victim: vp, release: func(alive bool) {
		if alive {
			victim.push(vm, 1)
			vm = victim.recvModel()
		} else {
			keeper.push(km, 1)
			km = keeper.recvModel()
		}
		keeper.push(km, 1) // the second fold closes the window
		keeper.recvDone()
		if alive {
			victim.push(vm, 1) // the drain answers its outstanding push
			victim.recvDone()
		}
		if err := <-serverErr; err != nil {
			t.Fatal(err)
		}
	}}
}

// parityDrain holds an asynchronous session in its drain: the keeper's
// fold applied the only version, the victim and the holder still train.
func parityDrain(t *testing.T, cfg ServerConfig) *parityWait {
	cfg.Async = AsyncConfig{Enabled: true, GoalUpdates: 1}
	closed := make(chan struct{}, 1)
	cfg.Hooks.RoundClosed = func(RoundStats) { closed <- struct{}{} }
	srv := NewServer(newState(0), cfg)
	kc, kp := Pipe()
	vc, vp := Pipe()
	hc, hp := Pipe()
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.RunAsync([]Conn{kc, vc, hc})
		serverErr <- err
	}()
	keeper, victim, holder := dialAsyncPeer(t, "keeper", kp), dialAsyncPeer(t, "victim", vp), dialAsyncPeer(t, "holder", hp)
	km, vm, hm := keeper.recvModel(), victim.recvModel(), holder.recvModel()
	keeper.push(km, 1)
	<-closed // nothing reads an arrival between this close and the drain
	return &parityWait{srv: srv, victim: vp, release: func(alive bool) {
		holder.push(hm, 1)
		holder.recvDone()
		if alive {
			victim.push(vm, 1)
			victim.recvDone()
		}
		keeper.recvDone()
		if err := <-serverErr; err != nil {
			t.Fatal(err)
		}
	}}
}

// TestArrivalClassificationParity: what a peer's read loop delivers is
// classified once, so the same stimulus draws the same sanction, the
// same journal record and the same hook in every wait of every mode.
// Under QuarantineRounds only a dead transport is permanent; a poisoned
// frame, a client error and a message the wait has no use for are
// probation; a codec ack and the residue of a session already
// quarantined are nothing at all.
func TestArrivalClassificationParity(t *testing.T) {
	type delivery func(*testing.T, *parityWait, *paritySanctions)
	send := func(m Message) delivery {
		return func(t *testing.T, w *parityWait, _ *paritySanctions) {
			if err := w.victim.Send(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Readers are not ordered against each other: a sanction must land
	// before anyone ends the wait.
	sanctioned := func(deliver delivery) delivery {
		return func(t *testing.T, w *parityWait, got *paritySanctions) {
			deliver(t, w, got)
			got.wait(t)
		}
	}
	hangUp := sanctioned(func(_ *testing.T, w *parityWait, _ *paritySanctions) { _ = w.victim.Close() })
	stimuli := []struct {
		name    string
		deliver delivery
		want    string // the one sanction of the victim; "" for none
		alive   bool   // the victim still owes — and gives — its answer
	}{
		{"transport EOF", hangUp, "quarantined", false},
		{"ErrDecode", sanctioned(func(t *testing.T, w *parityWait, _ *paritySanctions) {
			if err := w.victim.SendFrame(MsgGradUp, []byte{0xff}); err != nil {
				t.Fatal(err)
			}
		}), "probation", false},
		{"ErrorMsg", sanctioned(send(&ErrorMsg{Text: "boom"})), "probation", false},
		// The victim's answer follows the ack on the same connection, so
		// the ack is classified inside the wait.
		{"CodecSwitch ack", send(&CodecSwitch{Codec: wire.CodecF64}), "", true},
		{"stranger message type", sanctioned(send(&Attest{DeviceID: "victim"})), "probation", false},
		{"frame from a quarantined session", func(t *testing.T, w *parityWait, got *paritySanctions) {
			hangUp(t, w, got)
			// The hook ordered the server's session table before this
			// read; the frame is queued ahead of whatever ends the wait.
			for _, sess := range w.srv.sessions {
				if sess.device == "victim" {
					w.srv.arrivals <- arrival{sess: sess, msg: &ErrorMsg{Text: "residue"}}
				}
			}
		}, "quarantined", false},
	}
	waits := []struct {
		name string
		hold func(*testing.T, ServerConfig) *parityWait
	}{
		{"mid-collect", parityCollect},
		{"mid-reconciliation", parityReconcile},
		{"mid-version", parityVersion},
		{"during drain", parityDrain},
	}
	for _, st := range stimuli {
		for _, wt := range waits {
			t.Run(st.name+"/"+wt.name, func(t *testing.T) {
				jpath := filepath.Join(t.TempDir(), "parity.journal")
				j, err := journal.Create(jpath)
				if err != nil {
					t.Fatal(err)
				}
				got := &paritySanctions{event: make(chan struct{}, 8)}
				w := wt.hold(t, ServerConfig{
					Rounds: 1, MinClients: 1, QuarantineRounds: 2, Journal: j,
					Hooks: Hooks{
						ClientQuarantined: func(device string, _ error) { got.note("quarantined", device) },
						ClientProbationed: func(device string, _ error) { got.note("probation", device) },
					},
				})
				st.deliver(t, w, got)
				w.release(st.alive)
				_ = w.victim.Close()
				_ = j.Close()

				var want []string
				if st.want != "" {
					want = []string{st.want + " victim"}
				}
				if !reflect.DeepEqual(got.fired, want) {
					t.Errorf("hooks = %v, want %v", got.fired, want)
				}
				recs, err := journal.Replay(jpath)
				if err != nil {
					t.Fatal(err)
				}
				var journaled []string
				for _, rec := range recs {
					switch rec.Type {
					case journal.RecQuarantine:
						journaled = append(journaled, "quarantined "+rec.Device)
					case journal.RecProbation:
						journaled = append(journaled, "probation "+rec.Device)
					}
				}
				if !reflect.DeepEqual(journaled, want) {
					t.Errorf("journal = %v, want %v", journaled, want)
				}
				standing := ""
				if h := w.srv.history["victim"]; h != nil {
					switch {
					case h.quarantined:
						standing = "quarantined"
					case h.probationUntil > 0:
						standing = "probation"
					}
				}
				if standing != st.want {
					t.Errorf("standing = %q, want %q", standing, st.want)
				}
			})
		}
	}
}

package flsim

import (
	"fmt"
	"io"
	"time"

	"github.com/gradsec/gradsec/internal/attack"
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// Every simulated device is a real fl.Client: the handshake,
// attestation, channel offer, masking and mask reconciliation are the
// product's own. This file holds only what a simulated device adds —
// what it computes (simTrainer) and how its network misbehaves
// (simConn).

// simTA is the minimal trusted app simulated devices attest with.
type simTA struct{ uuid tz.UUID }

func (t *simTA) UUID() tz.UUID                                   { return t.uuid }
func (t *simTA) Version() string                                 { return "flsim-1" }
func (t *simTA) OpenSession(*tz.TAEnv) (any, error)              { return nil, nil }
func (t *simTA) Invoke(*tz.TAEnv, any, uint32, any) (any, error) { return nil, nil }
func (t *simTA) CloseSession(*tz.TAEnv, any)                     {}

// simTrainer is the fl.Trainer (and fl.ExampleCounter) behind a
// simulated device. It is memoryless where it matters: an update, and
// whether training fails, are pure functions of seed, client index and
// round, so a fleet that rejoins after a crash pushes exactly the
// updates the dead process would have folded.
type simTrainer struct {
	index   int
	profile Profile
	sc      *Scenario  // seed, model shapes, delta range, poison amplification
	dev     *tz.Device // nil for no-TEE devices
	app     *simTA
	channel *tz.Channel // trusted I/O path, once the server has offered one

	// Asynchronous sessions only: local training parks on a timer of
	// the device's latency, armed under its index.
	sched   *sched
	latency time.Duration
	trained bool
}

// newSimTrainer provisions simulated device i: a TEE with the flsim TA
// installed and registered with the verifier, unless the profile has
// none.
func newSimTrainer(sc *Scenario, i int, profile Profile, verifier *tz.Verifier) (*simTrainer, error) {
	t := &simTrainer{index: i, profile: profile, sc: sc}
	if profile.NoTEE {
		return t, nil
	}
	t.dev = tz.NewDevice(profile.Device)
	t.app = &simTA{uuid: tz.NameUUID("flsim-ta")}
	if err := t.dev.Install(t.app); err != nil {
		return nil, fmt.Errorf("flsim: installing TA on %s: %w", profile.Device, err)
	}
	verifier.RegisterDevice(t.dev.Identity().ID(), t.dev.Identity().RootKey())
	m, err := t.dev.Measurement(t.app.UUID())
	if err != nil {
		return nil, fmt.Errorf("flsim: measuring TA on %s: %w", profile.Device, err)
	}
	verifier.AllowMeasurement(m)
	return t, nil
}

func (t *simTrainer) DeviceID() string { return t.profile.Device }
func (t *simTrainer) HasTEE() bool     { return t.dev != nil }
func (t *simTrainer) NumExamples() int { return t.profile.Examples }

func (t *simTrainer) Attest(nonce []byte) (tz.Quote, error) {
	return t.dev.Attest(t.app.UUID(), nonce)
}

func (t *simTrainer) OpenChannel(serverPub []byte) ([]byte, error) {
	offer, err := tz.NewChannelOffer()
	if err != nil {
		return nil, err
	}
	if t.channel, err = offer.Establish(serverPub, false); err != nil {
		return nil, err
	}
	return offer.Public, nil
}

// TrainRound builds the round's dyadic update, splitting the tensors
// the server sealed away from the plain view onto the sealed path.
func (t *simTrainer) TrainRound(round int, _ []*tensor.Tensor, sealed, _ []byte) ([]*tensor.Tensor, []byte, error) {
	if t.latency > 0 {
		d := t.latency
		if !t.trained {
			// The first push is phase-offset by (index+1)µs, as the
			// recorded asynchronous traces (and their Elapsed) were; the
			// scheduler breaks any remaining tie by index.
			d += time.Duration(t.index+1) * time.Microsecond
			t.trained = true
		}
		timer := t.sched.clk.Keyed(t.index).NewTimer(d)
		t.sched.release() // parked: the scheduler may fire the timer now
		<-timer.C
	}
	if round == t.profile.FailRound {
		return nil, nil, fmt.Errorf("simulated training failure (round %d)", round) // quarantined, or on probation
	}
	delta := dyadicDelta(t.sc.Seed, t.index, round)
	if t.sc.PositiveDeltas {
		delta = posDyadicDelta(t.sc.Seed, t.index, round)
	}

	// Protected positions are those the server sealed away from the
	// plain view; the sealed blob names them.
	var protIdx []int
	if len(sealed) > 0 {
		if t.channel == nil {
			return nil, nil, fmt.Errorf("sealed payload without a channel")
		}
		blob, err := t.channel.Open(sealed)
		if err != nil {
			return nil, nil, err
		}
		if protIdx, _, err = wire.DecodeSealedUpdate(blob); err != nil {
			return nil, nil, err
		}
	}
	protected := make(map[int]bool, len(protIdx))
	for _, id := range protIdx {
		protected[id] = true
	}
	plainUpd := make([]*tensor.Tensor, len(t.sc.Model))
	protTs := make([]*tensor.Tensor, 0, len(protIdx))
	for i, m := range t.sc.Model {
		upd := tensor.Full(delta, m.Shape...)
		if protected[i] {
			protTs = append(protTs, upd)
		} else {
			plainUpd[i] = upd
		}
	}
	// Byzantine clients transform the honest update before it leaves
	// the device — the server sees a well-formed push.
	switch t.profile.Poison {
	case "signflip":
		attack.SignFlip(plainUpd, t.sc.PoisonGamma)
		attack.SignFlip(protTs, t.sc.PoisonGamma)
	case "scale":
		attack.ScalePoison(plainUpd, t.sc.PoisonGamma)
		attack.ScalePoison(protTs, t.sc.PoisonGamma)
	}
	var sealedUpd []byte
	if len(protIdx) > 0 {
		sealedUpd = t.channel.Seal(wire.EncodeSealedUpdate(protIdx, protTs))
	}
	return plainUpd, sealedUpd, nil
}

// simConn is the device end of a misbehaving link in a synchronous
// session: a straggler's never delivers a round's model inside the
// deadline — the device is parked on a model it will never answer — and
// a disconnecting device's goes dark at DropRound.
type simConn struct {
	fl.Conn
	profile Profile
}

func (c *simConn) Recv() (fl.Message, error) {
	for {
		m, err := c.Conn.Recv()
		down, ok := m.(*fl.ModelDown)
		if err != nil || !ok {
			return m, err
		}
		if c.profile.DropRound >= 0 && down.Round >= c.profile.DropRound {
			_ = c.Conn.Close() // a device going dark, not a protocol fault
			return nil, io.EOF
		}
		if !c.profile.Straggler {
			return m, nil
		}
	}
}

// start provisions devices [lo, hi) and runs each as an fl.Client over
// an in-memory pipe, returning the server sides in client-index order.
func (t *tree) start(lo, hi int) ([]fl.Conn, error) {
	conns := make([]fl.Conn, 0, hi-lo)
	for i := lo; i < hi; i++ {
		p := t.profiles[i]
		dev, err := newSimTrainer(t.sc, i, p, t.verifier)
		if err != nil {
			closeConns(conns)
			return nil, err
		}
		serverConn, conn := fl.Pipe()
		switch a := t.opt.async; {
		case a != nil:
			// Asynchronous: the device trains for its latency on the
			// session clock and its link behaves.
			dev.sched, dev.latency = t.sched, a.FastLatency
			if p.Straggler {
				dev.latency = a.SlowLatency
			}
		case p.Straggler || p.DropRound >= 0:
			conn = &simConn{Conn: conn, profile: p}
		}
		c := fl.NewClient(conn, dev)
		// Accept the server's codec offer wholesale.
		c.MaxCodec = t.sc.Codec
		conns = append(conns, serverConn)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			// The trace is the verdict. A device the session released
			// (Done, Reject) leaves its link for the server to close — its
			// hang-up would race an asynchronous drain; one that failed
			// hangs up.
			if err := c.Run(); err != nil {
				_ = conn.Close()
			}
			if dev.latency > 0 {
				t.sched.release() // exiting returns the device's token
			}
		}()
	}
	return conns, nil
}

// closeConns closes every non-nil connection (Close is idempotent).
func closeConns(conns []fl.Conn) {
	for _, c := range conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

package fl

import (
	"fmt"
	"io"
	"time"

	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// Trainer is the device-side behaviour the FL client delegates to. The
// GradSec secure trainer (internal/core) implements it; tests provide
// plain in-memory trainers.
type Trainer interface {
	// DeviceID identifies the device to the server.
	DeviceID() string
	// HasTEE reports whether the device offers a TEE.
	HasTEE() bool
	// Attest produces a quote over the training TA for the given nonce.
	// Only called when HasTEE.
	Attest(nonce []byte) (tz.Quote, error)
	// OpenChannel establishes the TA side of the trusted I/O path against
	// the server's public key and returns the TA's public key. Only
	// called when HasTEE.
	OpenChannel(serverPub []byte) (clientPub []byte, err error)
	// TrainRound performs one cycle of secure local training. plain holds
	// the unprotected global parameters (nil at protected positions);
	// sealed carries the protected parameters for the TA; plan is the
	// round's protection plan blob. It returns the unprotected updates
	// (nil at protected positions) and the sealed protected updates.
	// plain is the client's own model buffer, overwritten by the next
	// round's model: a trainer that keeps it past the call must copy it.
	TrainRound(round int, plain []*tensor.Tensor, sealed []byte, plan []byte) (plainUpd []*tensor.Tensor, sealedUpd []byte, err error)
}

// ExampleCounter is an optional Trainer extension reporting the size of
// the device's local training set. When implemented (and positive), the
// count rides each GradUp and the server weights FedAvg by it.
type ExampleCounter interface {
	NumExamples() int
}

// Client runs the device side of the FL protocol over one connection.
type Client struct {
	conn    Conn
	trainer Trainer

	// MaxCodec caps the tensor codec this client accepts from the
	// server's offer (codecs are ordered by compression; negotiation
	// settles on min(offer, cap)). The zero value pins the exact
	// uncompressed f64 protocol.
	MaxCodec wire.Codec

	// MaskSeed, when non-nil, derives the secure-aggregation mask
	// keypair deterministically (simulations, tests). Production
	// clients leave it nil and draw from crypto/rand.
	MaskSeed []byte
	// EnclaveVerifier, when set, requires a secure-aggregation server
	// to present a valid aggregation-enclave quote in its Challenge
	// (verified against this verifier's registered devices and TA
	// measurements); the session is refused otherwise.
	EnclaveVerifier *tz.Verifier

	// Metrics, when non-nil, collects device-side training metrics
	// (gradsec_client_* families) and — this is the opt-in — piggybacks
	// a delta snapshot of the registry on every plaintext GradUp, so a
	// ClientTelemetry-enabled server folds the device's view into the
	// fleet-wide plane. Masked updates never carry telemetry: a SecAgg
	// round reveals nothing per-device and the side channel would.
	Metrics *obs.Registry
	// Spans, when non-nil, receives device-side spans stamped with the
	// round trace ID carried on ModelDown, correlating local training
	// with the server's round timeline.
	Spans *obs.TraceSink
	// Clock drives the training histogram; defaults to the wall clock.
	// Simulations share their virtual clock here.
	Clock simclock.WallClock

	// Rounds counts completed training cycles.
	Rounds int
	// Final holds the global model delivered with Done, if any.
	Final []*tensor.Tensor
	// RejectedReason is set when the server refused this client.
	RejectedReason string
	// NegotiatedCodec records the session's tensor codec after the
	// handshake, tracking later adaptive switches (CodecSwitch).
	NegotiatedCodec wire.Codec
	// CodecSwitches counts mid-session codec switches applied by an
	// adaptive server.
	CodecSwitches int
	// SecAgg records whether the session ran under secure aggregation.
	SecAgg bool

	// mask is the secagg session state; it remembers the round in flight
	// for reconciliation.
	mask *secagg.ClientSession

	// lastTrainErr remembers a reported training failure: the client
	// stays in the protocol afterwards (the server decides between
	// probation and permanent quarantine), and if the server hangs up
	// the failure is surfaced as the session error.
	lastTrainErr error

	// snap cuts per-round telemetry deltas from Metrics (lazily built so
	// a zero-value Client stays telemetry-free).
	snap *obs.Snapshotter

	// model holds a buffer per model tensor, reused across rounds: every
	// ModelDown's views decode into it (adopt).
	model []*tensor.Tensor
	// roster holds a masked round's cohort roster, copied out of the
	// ModelDown frame into a buffer reused across rounds: masking reads
	// it after training, when the frame is gone.
	roster wire.Pairs
}

// NewClient pairs a connection with a trainer.
func NewClient(conn Conn, trainer Trainer) *Client {
	return &Client{conn: conn, trainer: trainer}
}

// Run participates in a full training session: selection, then rounds
// until the server sends Done (or Reject). It returns nil on a clean
// finish or rejection; RejectedReason distinguishes the two.
func (c *Client) Run() error {
	msg, err := c.conn.Recv()
	if err != nil {
		return fmt.Errorf("fl: awaiting challenge: %w", err)
	}
	ch, ok := msg.(*Challenge)
	if !ok {
		return fmt.Errorf("fl: expected Challenge, got %T", msg)
	}

	codec := ch.Codec
	if codec > c.MaxCodec {
		codec = c.MaxCodec
	}
	// The true cap rides alongside the negotiated codec so an adaptive
	// server can upgrade the session later without renegotiating.
	att := &Attest{DeviceID: c.trainer.DeviceID(), HasTEE: c.trainer.HasTEE(), Codec: codec, Cap: c.MaxCodec}
	if ch.SecAgg {
		if c.EnclaveVerifier != nil {
			if ch.AggQuote.DeviceID == "" {
				return fmt.Errorf("fl: server announced secure aggregation without an enclave quote")
			}
			// The quote must cover the offered channel key: an enclave
			// quote alone would not prove ServerPub belongs to it.
			if err := c.EnclaveVerifier.Verify(ch.AggQuote, secagg.AggQuoteNonce(ch.Nonce, ch.ServerPub)); err != nil {
				return fmt.Errorf("fl: aggregation enclave attestation: %w", err)
			}
		}
		mask, err := secagg.NewClientSession(c.trainer.DeviceID(), c.MaskSeed, int(ch.ScaleBits))
		if err != nil {
			return fmt.Errorf("fl: secagg setup: %w", err)
		}
		c.mask = mask
		c.SecAgg = true
		att.MaskPub = mask.MaskPub()
	}
	if c.trainer.HasTEE() {
		quote, err := c.trainer.Attest(ch.Nonce)
		if err != nil {
			return fmt.Errorf("fl: attestation: %w", err)
		}
		att.Quote = quote
		pub, err := c.trainer.OpenChannel(ch.ServerPub)
		if err != nil {
			return fmt.Errorf("fl: opening trusted channel: %w", err)
		}
		att.ClientPub = pub
	}
	if err := c.conn.Send(att); err != nil {
		return fmt.Errorf("fl: sending attestation: %w", err)
	}
	c.conn.SetCodec(codec)
	c.NegotiatedCodec = codec

	for {
		msg, err := c.conn.Recv()
		if err != nil {
			if c.lastTrainErr != nil {
				// The server hung up after we reported a training
				// failure: surface the root cause, not the EOF.
				return fmt.Errorf("fl: local training: %w", c.lastTrainErr)
			}
			if err == io.EOF {
				return fmt.Errorf("fl: server closed mid-session: %w", err)
			}
			return fmt.Errorf("fl: receiving: %w", err)
		}
		switch m := msg.(type) {
		case *Reject:
			c.RejectedReason = m.Reason
			return nil
		case *Done:
			c.Final = m.Final
			return nil
		case *ModelDown:
			if err := c.handleModelDown(m); err != nil {
				return err
			}
		case *MaskRecon:
			if err := c.handleMaskRecon(m); err != nil {
				return err
			}
		case *CodecSwitch:
			// Adaptive downgrade: every message from here on — in both
			// directions — speaks the new codec.
			if !m.Codec.Valid() || m.Codec > c.MaxCodec {
				return fmt.Errorf("fl: server switched to codec %s beyond cap %s", m.Codec, c.MaxCodec)
			}
			c.conn.SetCodec(m.Codec)
			c.NegotiatedCodec = m.Codec
			c.CodecSwitches++
			// Ack the switch so the server flips its receive codec only
			// after every frame this client wrote pre-switch (old codec)
			// has been consumed — the FIFO ordering rule on CodecSwitch
			// in messages.go. The ack's payload is codec-independent.
			if err := c.conn.Send(&CodecSwitch{Codec: m.Codec}); err != nil {
				return fmt.Errorf("fl: acking codec switch: %w", err)
			}
		case *ErrorMsg:
			return fmt.Errorf("fl: server error: %s", m.Text)
		default:
			return fmt.Errorf("fl: unexpected message %T", msg)
		}
	}
}

// handleModelDown trains one round and answers with the update — plain
// (GradUp) or masked (MaskedUp) depending on the session mode. Training
// failures are reported to the server and the client stays in the
// protocol: under a probation policy it will be sampled again later.
func (c *Client) handleModelDown(m *ModelDown) error {
	// Stamp the server-minted round trace on every span this round emits
	// so a cross-tier stitch joins this device's timeline to the fleet's.
	c.Spans.SetTrace(m.Trace)
	sp := c.Spans.Start("train", m.Round)
	start := c.now()
	// The model's views are decoded, and the roster copied, into the
	// client's own buffers: the frame goes back to the transport before
	// training starts.
	plain := c.adopt(m.Views)
	c.roster = wire.Pairs{N: m.Cohort.N, Raw: append(c.roster.Raw[:0], m.Cohort.Raw...)}
	m.release()
	plainUpd, sealedUpd, err := c.trainer.TrainRound(m.Round, plain, m.Sealed, m.Plan)
	if c.Metrics != nil {
		c.Metrics.Histogram("gradsec_client_train_ns", "device-side local training latency in nanoseconds").
			ObserveEx(c.now().Sub(start).Nanoseconds(), m.Round)
		result := "ok"
		if err != nil {
			result = "failed"
		}
		c.Metrics.Counter("gradsec_client_rounds_total", "device-side training rounds by result", "result", result).Inc()
	}
	sp.End()
	if err != nil {
		c.lastTrainErr = fmt.Errorf("round %d: %w", m.Round, err)
		if sendErr := c.conn.Send(&ErrorMsg{Text: err.Error()}); sendErr != nil {
			return fmt.Errorf("fl: local training round %d: %w", m.Round, err)
		}
		return nil
	}
	examples := uint64(0)
	if ec, ok := c.trainer.(ExampleCounter); ok {
		if n := ec.NumExamples(); n > 0 {
			examples = uint64(n)
		}
	}
	if c.mask != nil {
		if c.roster.N == 0 {
			return fmt.Errorf("fl: secagg round %d arrived without a cohort roster", m.Round)
		}
		// The FedAvg weight is applied in the ring before masking; it
		// must equal the weight the server derives from Examples, hence
		// the shared updateWeight.
		levels, shares, err := c.mask.MaskedUpdateRoster(m.Round, c.roster, m.MaskDegree, plainUpd, updateWeight(examples))
		if err != nil {
			return fmt.Errorf("fl: masking round %d update: %w", m.Round, err)
		}
		up := &MaskedUp{Round: m.Round, Levels: levels, Sealed: sealedUpd, Examples: examples, Shares: shares}
		if err := c.conn.Send(up); err != nil {
			return fmt.Errorf("fl: sending masked update: %w", err)
		}
	} else {
		// Version echoes the model version this update was trained
		// against; the async server derives staleness from it.
		up := &GradUp{Round: m.Round, Plain: plainUpd, Sealed: sealedUpd, Examples: examples, Version: m.Version, Telemetry: c.telemetryDelta()}
		if err := c.conn.Send(up); err != nil {
			return fmt.Errorf("fl: sending update: %w", err)
		}
	}
	c.Rounds++
	// A completed round supersedes any earlier reported failure: a
	// later hang-up should not be misattributed to it.
	c.lastTrainErr = nil
	return nil
}

// adopt decodes a round's model views into the client's own buffers,
// allocating one only for a tensor whose shape it has not held before,
// and returns them nil at the views' nil (protected) positions. The
// views' frame is only read — a broadcast frame is shared by the fleet.
func (c *Client) adopt(views []*wire.View) []*tensor.Tensor {
	if len(c.model) != len(views) {
		c.model = make([]*tensor.Tensor, len(views))
	}
	plain := make([]*tensor.Tensor, len(views))
	for i, v := range views {
		if v == nil {
			continue
		}
		if c.model[i] == nil || !v.SameShape(c.model[i]) {
			c.model[i] = tensor.New(v.Shape...)
		}
		v.Decode(c.model[i].Data, 0)
		plain[i] = c.model[i]
	}
	return plain
}

// now reads the client's clock, defaulting to the wall clock.
func (c *Client) now() (t time.Time) {
	if c.Metrics == nil && c.Spans == nil {
		return
	}
	if c.Clock == nil {
		c.Clock = simclock.Real()
	}
	return c.Clock.Now()
}

// telemetryDelta cuts the registry delta accumulated since the previous
// upload; nil when telemetry is off or nothing changed.
func (c *Client) telemetryDelta() []byte {
	if c.Metrics == nil {
		return nil
	}
	if c.snap == nil {
		c.snap = obs.NewSnapshotter(c.Metrics)
	}
	return c.snap.Delta()
}

// handleMaskRecon answers the server's reconciliation request through
// ClientSession.Reconcile, which only answers for the round it last
// masked, enforces the one-role-per-peer invariant (ErrRoleConflict)
// and unwraps survivor self-seed shares.
func (c *Client) handleMaskRecon(m *MaskRecon) error {
	if c.mask == nil {
		return fmt.Errorf("fl: mask reconciliation outside a secagg session")
	}
	ans, err := c.mask.Reconcile(m.Round, m.Dropped, m.Survivors)
	if err != nil {
		return fmt.Errorf("fl: reconciling masks: %w", err)
	}
	if err := c.conn.Send(&MaskShares{Round: m.Round, Shares: ans.Pairs, SeedShares: ans.Seeds}); err != nil {
		return fmt.Errorf("fl: sending mask shares: %w", err)
	}
	return nil
}

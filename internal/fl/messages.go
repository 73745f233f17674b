// Package fl implements the federated-learning orchestration of the
// paper's Figure 2: TEE-aware client selection with remote attestation,
// model + training-plan distribution (protected weights travel sealed
// through the trusted I/O path), secure local training on the client, and
// FedAvg aggregation of the returned updates on the server.
//
// The package is substrate-generic: protection scheduling and secure
// training are injected through the RoundPlanner and Trainer interfaces,
// implemented by internal/core (GradSec).
package fl

import (
	"fmt"

	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// MsgType discriminates protocol messages.
type MsgType byte

// Protocol message types.
const (
	MsgChallenge MsgType = iota + 1
	MsgAttest
	MsgReject
	MsgModelDown
	MsgGradUp
	MsgDone
	MsgError
	MsgMaskedUp
	MsgMaskRecon
	MsgMaskShares
	MsgShardDown
	MsgPartialUp
	MsgCodecSwitch
)

// Message is one protocol unit.
type Message interface {
	// Kind returns the message discriminator.
	Kind() MsgType
	// walk hands every field, in wire order, to the field walker — one
	// method that both encodes and decodes the message (docs/WIRE.md).
	walk(f *wire.Fields)
}

// Challenge opens selection for a training session: the server sends a
// fresh attestation nonce, its trusted-channel public key, and the
// tensor codec it offers for the session.
type Challenge struct {
	Nonce      []byte
	ServerPub  []byte
	RequireTEE bool
	// Codec is the server's offered tensor codec; the client answers
	// with min(offer, its own cap) in Attest.Codec. Absent (pre-codec
	// peers) means CodecF64.
	Codec wire.Codec
	// SecAgg announces masked secure aggregation for the session: the
	// client must answer with a mask public key and send MaskedUp
	// instead of GradUp each round.
	SecAgg bool
	// ScaleBits is the fixed-point precision for masked updates
	// (secagg.DefaultScaleBits when the server leaves it zero).
	ScaleBits uint8
	// MaskDegree announces the session's configured mask-graph degree:
	// 0 (secagg.AutoDegree, also what an absent field decodes to) sizes
	// the k-regular graph per round from the cohort, a positive value
	// pins the degree. Hierarchical edges adopt it for their shards;
	// clients ignore it — the resolved per-round degree rides
	// ModelDown.MaskDegree. Trailing field, a plain uvarint.
	MaskDegree int
	// AggQuote, when non-empty (detected via AggQuote.DeviceID), attests
	// the server-side aggregation enclave over
	// secagg.AggQuoteNonce(Nonce, ServerPub) — binding the enclave's TA
	// identity to the trusted-channel key clients seal against. The
	// challenge nonce is server-chosen, so the quote proves identity
	// and key custody, not freshness — see the secagg package notes.
	AggQuote tz.Quote
}

// Kind implements Message.
func (*Challenge) Kind() MsgType { return MsgChallenge }

func (m *Challenge) walk(f *wire.Fields) {
	f.Blob(&m.Nonce)
	f.Blob(&m.ServerPub)
	f.Bool(&m.RequireTEE)
	f.Trailing()
	f.Codec(&m.Codec)
	f.Trailing()
	f.Bool(&m.SecAgg)
	f.Uint8(&m.ScaleBits)
	walkQuote(f, &m.AggQuote)
	f.Trailing()
	f.Int(&m.MaskDegree)
}

// walkQuote walks an attestation quote; the measurement is exactly a
// SHA-256.
func walkQuote(f *wire.Fields, q *tz.Quote) {
	f.String(&q.DeviceID)
	measurement := q.Measurement[:]
	f.Fixed(&measurement, len(q.Measurement))
	f.Blob(&q.Nonce)
	f.Blob(&q.MAC)
}

// Attest is the client's selection response: device capability, an
// attestation quote over its GradSec TA, and the TA's channel public key.
type Attest struct {
	DeviceID  string
	HasTEE    bool
	Quote     tz.Quote
	ClientPub []byte
	// Codec is the tensor codec the client will speak for the rest of
	// the session: at most the server's offer (the server rejects a
	// client that answers above it). Absent means CodecF64.
	Codec wire.Codec
	// MaskPub is the client's pairwise-masking public key, required
	// when the challenge announced SecAgg.
	MaskPub []byte
	// Cap is the client's true maximum codec, which may exceed the
	// negotiated Codec when the server opened with a conservative offer.
	// It lets an adaptive server upgrade the session codec later
	// (CodecSwitch) without renegotiating. Absent (pre-adaptive peers)
	// means the negotiated codec is also the cap.
	Cap wire.Codec
}

// Kind implements Message.
func (*Attest) Kind() MsgType { return MsgAttest }

func (m *Attest) walk(f *wire.Fields) {
	f.String(&m.DeviceID)
	f.Bool(&m.HasTEE)
	walkQuote(f, &m.Quote)
	f.Blob(&m.ClientPub)
	f.Trailing()
	f.Codec(&m.Codec)
	f.Trailing()
	f.Blob(&m.MaskPub)
	f.Trailing()
	f.Codec(&m.Cap)
	if f.Decoding() && m.Cap < m.Codec {
		m.Cap = m.Codec // absent or stale cap: the spoken codec is proof
	}
}

// Reject tells a client it was not selected.
type Reject struct {
	Reason string
}

// Kind implements Message.
func (*Reject) Kind() MsgType { return MsgReject }

func (m *Reject) walk(f *wire.Fields) { f.String(&m.Reason) }

// ModelDown distributes the round's model: unprotected parameter tensors
// travel in the clear (nil at protected positions); protected tensors are
// sealed for the TA through the trusted I/O path. Plan carries the
// round's protection plan blob. In secure-aggregation sessions Cohort
// lists the round's sampled peers (device + mask public key) so every
// member can derive its pairwise masks. Version tags the model state the
// tensors were taken from — in round-synchronous sessions it equals
// Round, in asynchronous sessions it counts buffered applications — and
// the client echoes it back in GradUp.Version so the server can compute
// the update's staleness.
type ModelDown struct {
	Round int
	// Plain is the sender's unprotected model (nil at protected
	// positions). A decoded ModelDown leaves it nil and carries Views
	// instead, which the client decodes into model buffers of its own.
	Plain []*tensor.Tensor
	// Views is the decoded form of Plain, aliasing the frame
	// (docs/WIRE.md, rule 6).
	Views  []*wire.View
	Sealed []byte
	Plan   []byte
	// Cohort is the roster, (device, mask pub) pairs; a decoded one
	// aliases the frame (docs/WIRE.md, rule 6), and the client copies it
	// into a buffer of its own before the frame is released.
	Cohort  wire.Pairs
	Version uint64
	// Trace is the round-scoped trace ID the serving tier stamps on its
	// spans (minted at the hierarchy root, or by the flat server). The
	// client adopts it for its own spans so a stitched timeline
	// correlates all tiers of one round. Trailing field: absent (0) on
	// pre-telemetry peers.
	Trace uint64
	// MaskDegree is the round's resolved mask-graph degree k: the client
	// masks only against its neighbours in the deterministic k-regular
	// graph derived from (Round, Cohort) and double-masks with a
	// Shamir-shared self seed. It is ≥ 1 for every cohort of two or
	// more; 0 (also what an absent trailing field decodes to) is valid
	// only for a one-member cohort, and a client handed it for a larger
	// one refuses to mask (secagg.ErrMaskDowngrade).
	MaskDegree int

	leased
}

// Kind implements Message.
func (*ModelDown) Kind() MsgType { return MsgModelDown }

func (m *ModelDown) walk(f *wire.Fields) {
	f.Int(&m.Round)
	f.Views(&m.Plain, &m.Views)
	f.Blob(&m.Sealed)
	f.Blob(&m.Plan)
	f.Trailing()
	f.Pairs(&m.Cohort)
	f.Trailing()
	f.Uvarint(&m.Version)
	f.Trailing()
	f.Uvarint(&m.Trace)
	f.Trailing()
	f.Int(&m.MaskDegree)
}

// GradUp returns the client's model update: unprotected update tensors in
// the clear, protected ones sealed. Examples carries the size of the
// client's local training set; when positive the server uses it as the
// FedAvg weight (0 — including pre-codec peers — means unit weight).
// Version echoes the ModelDown.Version the update was trained against.
// The asynchronous engine derives the update's staleness from it (the
// difference against the current model version); the round-synchronous
// engine ignores it.
type GradUp struct {
	Round int
	// Plain is the sender's unprotected update (nil at protected
	// positions). A decoded GradUp leaves it nil and carries Views
	// instead, which the aggregator folds without materialising a
	// per-client float64 update (Aggregator.Accumulate).
	Plain []*tensor.Tensor
	// Views is the decoded form of Plain, aliasing the frame
	// (docs/WIRE.md, rule 6).
	Views []*wire.View
	// Q8 is Views on a CodecQ8 decode, kept for benchmark/.
	Q8       []*wire.Q8Tensor
	Sealed   []byte
	Examples uint64
	Version  uint64
	// Telemetry is an optional obs.Snapshot delta of the client's own
	// metric registry (training step timing, SMC cost), folded into the
	// server's fleet view when ServerConfig.ClientTelemetry is on.
	// Trailing field: absent (empty) on pre-telemetry peers and when the
	// client has no registry. A decoded one references the frame.
	Telemetry []byte

	leased
}

// Kind implements Message.
func (*GradUp) Kind() MsgType { return MsgGradUp }

func (m *GradUp) walk(f *wire.Fields) {
	f.Int(&m.Round)
	f.Views(&m.Plain, &m.Views)
	if f.Decoding() && f.TensorCodec() == wire.CodecQ8 {
		m.Q8 = m.Views
	}
	f.Blob(&m.Sealed)
	f.Trailing()
	f.Uvarint(&m.Examples)
	f.Trailing()
	f.Uvarint(&m.Version)
	f.Trailing()
	f.BlobRef(&m.Telemetry)
}

// Done ends a session, optionally delivering the final global model.
type Done struct {
	Final []*tensor.Tensor
}

// Kind implements Message.
func (*Done) Kind() MsgType { return MsgDone }

func (m *Done) walk(f *wire.Fields) { f.Tensors(&m.Final) }

// ErrorMsg reports a protocol failure to the peer.
type ErrorMsg struct {
	Text string
}

// Kind implements Message.
func (*ErrorMsg) Kind() MsgType { return MsgError }

func (m *ErrorMsg) walk(f *wire.Fields) { f.String(&m.Text) }

// MaskedUp is the secure-aggregation counterpart of GradUp: the
// unprotected update travels as fixed-point ring levels with the
// cohort's pairwise masks added (nil at protected positions), opaque to
// the server until the cohort sum cancels the masks. Protected tensors
// still ride the sealed path (aggregated inside the server enclave).
// Levels always travel as raw 64-bit words regardless of the session
// codec — masked data is incompressible by construction.
type MaskedUp struct {
	Round    int
	Levels   []*wire.U64Tensor
	Sealed   []byte
	Examples uint64
	// Shares carries the client's wrapped Shamir shares of its
	// double-masking self seed, one per mask-graph neighbour. Each blob
	// is encrypted and authenticated under the owner→holder pair key;
	// the server stores them opaquely and forwards the relevant ones
	// inside MaskRecon.Survivors. Trailing field: a frame that ends
	// before it decodes to nil, and the server refuses the update (it
	// wants exactly one share per neighbour before it folds anything).
	// A decoded share's blob references the frame.
	Shares []secagg.WrappedShare

	leased
}

// Kind implements Message.
func (*MaskedUp) Kind() MsgType { return MsgMaskedUp }

func (m *MaskedUp) walk(f *wire.Fields) {
	f.Int(&m.Round)
	f.U64Tensors(&m.Levels)
	f.Blob(&m.Sealed)
	f.Uvarint(&m.Examples)
	f.Trailing()
	// A wrapped share has exactly one valid length; anything else is
	// hostile or corrupt and fails the frame, not reconciliation.
	wire.List(f, &m.Shares, func(f *wire.Fields, s *secagg.WrappedShare) {
		f.String(&s.To)
		f.FixedRef(&s.Blob, secagg.WrappedShareLen)
	})
}

// MaskRecon asks a surviving cohort member to reconcile the round's
// masks. The frame is per-recipient: Dropped lists the recipient's
// dropped mask-graph neighbours, whose pair seeds it reveals, and
// Survivors carries the wrapped self-seed shares of its folded
// neighbours for it to unwrap — per peer the server sends one of the
// two, never both (the client enforces this with ErrRoleConflict).
type MaskRecon struct {
	Round   int
	Dropped []string
	// Survivors is the survivor path: each envelope holds a folded
	// neighbour's wrapped self-seed share addressed to this recipient.
	// Trailing field: a frame that ends before it decodes to nil.
	Survivors []secagg.SeedEnvelope
}

// Kind implements Message.
func (*MaskRecon) Kind() MsgType { return MsgMaskRecon }

func (m *MaskRecon) walk(f *wire.Fields) {
	f.Int(&m.Round)
	wire.List(f, &m.Dropped, (*wire.Fields).String)
	f.Trailing()
	wire.List(f, &m.Survivors, func(f *wire.Fields, s *secagg.SeedEnvelope) {
		f.String(&s.Owner)
		f.Fixed(&s.Blob, secagg.WrappedShareLen)
	})
}

// MaskShares answers a MaskRecon: one round-scoped pair seed per
// dropped peer, and one unwrapped self-seed share per folded neighbour
// the request carried an envelope for. Only
// the named round's masks are derivable from the seeds, so the
// revelation burns nothing beyond the failed pairs.
type MaskShares struct {
	Round  int
	Shares []secagg.PairShare
	// SeedShares are the unwrapped Shamir shares answering
	// MaskRecon.Survivors. A corrupt envelope yields no share (the
	// server needs only the threshold), so len(SeedShares) may be less
	// than len(Survivors). Trailing field: a frame that ends before it
	// decodes to nil.
	SeedShares []secagg.SeedShare
}

// Kind implements Message.
func (*MaskShares) Kind() MsgType { return MsgMaskShares }

func (m *MaskShares) walk(f *wire.Fields) {
	f.Int(&m.Round)
	// A seed of the wrong size would zero-pad and silently subtract the
	// wrong mask during reconciliation — corrupting the published
	// aggregate instead of failing the round. Fail-stop instead.
	wire.List(f, &m.Shares, func(f *wire.Fields, s *secagg.PairShare) {
		f.String(&s.Device)
		seed := s.Seed[:]
		f.Fixed(&seed, len(s.Seed))
	})
	f.Trailing()
	// A Shamir share has a fixed body and a nonzero x-coordinate below
	// the field order; anything else would corrupt the reconstructed
	// self seed, and thereby the published aggregate.
	wire.List(f, &m.SeedShares, func(f *wire.Fields, s *secagg.SeedShare) {
		f.String(&s.Owner)
		f.Uint8(&s.X)
		f.Fixed(&s.Data, secagg.SeedShareLen)
		if s.X == 0 {
			f.Fail("seed share x-coordinate")
		}
	})
}

// ShardDown distributes one round's global model from the hierarchy
// root to an edge aggregator, which redistributes it to its shard of
// clients under the edge's own downstream codec. Model tensors are
// encoded with the root↔edge negotiated codec (the root serialises the
// frame once per codec and broadcasts it — encode-once, like
// ModelDown).
type ShardDown struct {
	Round int
	// Model is the sender's model. A decoded ShardDown leaves it nil and
	// carries Views instead, which the edge decodes into its own state
	// (Server.SetState) before it releases the frame (Release).
	Model []*tensor.Tensor
	// Views is the decoded form of Model, aliasing the frame
	// (docs/WIRE.md, rule 6).
	Views []*wire.View
	// Trace is the root-minted round trace ID; the edge stamps it on its
	// own spans and forwards it to clients via ModelDown.Trace. Trailing
	// field: absent (0) on pre-telemetry peers.
	Trace uint64

	leased
}

// Kind implements Message.
func (*ShardDown) Kind() MsgType { return MsgShardDown }

// Release hands the frame the views alias back to its transport; the
// views are dead from here. The edge calls it once it has adopted the
// model, before it steps its shard round.
func (m *ShardDown) Release() { m.release() }

func (m *ShardDown) walk(f *wire.Fields) {
	f.Int(&m.Round)
	f.Views(&m.Model, &m.Views)
	f.Trailing()
	f.Uvarint(&m.Trace)
}

// PartialUp carries one shard's folded round aggregate upstream: the
// un-normalised weighted sum Σ wᵢuᵢ (plain sessions) or the per-tensor
// ring sums of the shard's cancelled masked updates (secure
// aggregation), plus the summed FedAvg weight and the shard's round
// accounting. Partial sums always travel exactly — f64 tensors or raw
// 64-bit ring words — regardless of the negotiated codec, because the
// root's fold must be bit-identical to a flat aggregation of the same
// fleet. Count 0 reports a shard round that failed (e.g. too few
// responders): the root drops the shard for the round instead of the
// session.
type PartialUp struct {
	Round int
	// Sum is the plain weighted sum (nil in secure-aggregation mode). A
	// decoded PartialUp leaves it nil and carries SumViews instead.
	Sum []*tensor.Tensor
	// SumViews is the decoded form of Sum: exact f64 views aliasing the
	// frame (docs/WIRE.md, rule 6), which the root folds in place
	// (Aggregator.AddPartial).
	SumViews []*wire.View
	// Levels are the shard's ring sums (nil in plain mode). Within the
	// shard the pairwise masks have already cancelled (or been
	// reconciled), so these compose additively in ℤ/2⁶⁴ at the root.
	Levels []*wire.U64Tensor
	// ScaleBits is the fixed-point precision of Levels.
	ScaleBits uint8
	// Weight is the shard's summed FedAvg weight (integer-valued in
	// masked mode).
	Weight float64
	// Count is the number of client updates folded into the partial.
	Count uint64
	// Shard round accounting, folded into the root's RoundStats.
	Sampled       uint64
	Dropped       uint64
	Quarantined   uint64
	LateDiscarded uint64
	Reconciled    uint64
	// Probation counts the shard's clients placed on temporary probation
	// this round (trailing field: absent on pre-probation peers, which
	// folded probation into Quarantined).
	Probation uint64
	// Telemetry is an optional obs.Snapshot delta of the edge's metric
	// registry, folded into the root's fleet-wide families under
	// tier/shard labels. Trailing field: absent (empty) on pre-telemetry
	// peers and when the edge runs without a registry. Degraded shard
	// rounds (Count 0) still carry telemetry — a struggling shard is
	// exactly the one whose latency distributions matter. A decoded one
	// references the frame.
	Telemetry []byte

	leased
}

// Kind implements Message.
func (*PartialUp) Kind() MsgType { return MsgPartialUp }

func (m *PartialUp) walk(f *wire.Fields) {
	f.Int(&m.Round)
	f.ExactViews(&m.Sum, &m.SumViews)
	f.U64Tensors(&m.Levels)
	f.Uint8(&m.ScaleBits)
	f.Float64(&m.Weight)
	f.Uvarint(&m.Count)
	f.Uvarint(&m.Sampled)
	f.Uvarint(&m.Dropped)
	f.Uvarint(&m.Quarantined)
	f.Uvarint(&m.LateDiscarded)
	f.Uvarint(&m.Reconciled)
	f.Trailing()
	f.Uvarint(&m.Probation)
	f.Trailing()
	f.BlobRef(&m.Telemetry)
}

// CodecSwitch retunes the session's tensor codec mid-session (adaptive
// per-round codec downgrade). The ordering rule that keeps the switch
// race-free on a full-duplex connection:
//
//   - Server → client: the server flips its *send* codec the moment the
//     CodecSwitch is written, so everything after it on the downstream
//     leg (including the very next ModelDown) is new-codec.
//   - Client → server: on receipt the client flips both directions and
//     echoes the CodecSwitch back as an ack. Frames the client wrote
//     before the ack are old-codec, frames after it are new-codec.
//   - The server flips its *receive* codec only when the ack arrives
//     (in the connection's read loop, before the next frame is read).
//     FIFO framing therefore guarantees every upstream frame decodes
//     under the codec it was encoded with — a straggler's in-flight
//     old-codec update that races the switch still decodes and is
//     handled by the normal late/stale path instead of poisoning the
//     stream.
//
// The server only switches a client whose Attest.Cap covers the target.
// The CodecSwitch payload itself is codec-independent, so the ack
// decodes correctly under either codec. Should a post-switch frame
// nevertheless fail to decode, the failure surfaces as ErrDecode and is
// probationable — never a silent permanent quarantine.
type CodecSwitch struct {
	Codec wire.Codec
}

// Kind implements Message.
func (*CodecSwitch) Kind() MsgType { return MsgCodecSwitch }

func (m *CodecSwitch) walk(f *wire.Fields) { f.Codec(&m.Codec) }

// EncodeMessage serialises a message to a framed-payload byte slice
// with the uncompressed f64 tensor codec.
func EncodeMessage(m Message) []byte { return EncodeMessageCodec(m, wire.CodecF64) }

// EncodeMessageCodec serialises a message with the given tensor codec
// into a fresh payload of exactly its encoded size (wire.Encode): the
// payload escapes to the caller (broadcast caches) and costs one
// allocation. A decoded GradUp or ModelDown re-encodes its views
// verbatim.
func EncodeMessageCodec(m Message, codec wire.Codec) []byte { return wire.Encode(codec, m.walk) }

// DecodeMessage reconstructs a message from its type and payload,
// expecting the uncompressed f64 tensor codec.
func DecodeMessage(mt MsgType, payload []byte) (Message, error) {
	return DecodeMessageCodec(mt, payload, wire.CodecF64)
}

// DecodeMessageCodec reconstructs a message whose tensors were encoded
// with the given codec. A decoded message owns its payload: GradUp,
// ModelDown, ShardDown and PartialUp read their tensors, MaskedUp and
// PartialUp their ring levels through views into it, and GradUp,
// MaskedUp and PartialUp reference their telemetry or share blobs in
// it, so the caller may neither reuse nor mutate a payload it has handed
// over (docs/WIRE.md, rule 6) until the message's lease is released;
// every other message copies everything out.
func DecodeMessageCodec(mt MsgType, payload []byte, codec wire.Codec) (Message, error) {
	m := newMessage(mt)
	if m == nil {
		return nil, fmt.Errorf("fl: unknown message type %d", mt)
	}
	if err := wire.Decode(payload, codec, m.walk); err != nil {
		return nil, fmt.Errorf("fl: decoding %T: %w", m, err)
	}
	return m, nil
}

// newMessage returns a zero message of the given type, nil for an
// unknown one.
func newMessage(mt MsgType) Message {
	if int(mt) < len(zeroMessages) && zeroMessages[mt] != nil {
		return zeroMessages[mt]()
	}
	return nil
}

var zeroMessages = [...]func() Message{
	MsgChallenge:   func() Message { return &Challenge{} },
	MsgAttest:      func() Message { return &Attest{} },
	MsgReject:      func() Message { return &Reject{} },
	MsgModelDown:   func() Message { return &ModelDown{} },
	MsgGradUp:      func() Message { return &GradUp{} },
	MsgDone:        func() Message { return &Done{} },
	MsgError:       func() Message { return &ErrorMsg{} },
	MsgMaskedUp:    func() Message { return &MaskedUp{} },
	MsgMaskRecon:   func() Message { return &MaskRecon{} },
	MsgMaskShares:  func() Message { return &MaskShares{} },
	MsgShardDown:   func() Message { return &ShardDown{} },
	MsgPartialUp:   func() Message { return &PartialUp{} },
	MsgCodecSwitch: func() Message { return &CodecSwitch{} },
}

// SealedUpdate encodes indexed tensors for the trusted channel; it is
// wire.EncodeSealedUpdate, kept under this name for the repository
// benchmark (benchmark/probes.go).
func SealedUpdate(idx []int, ts []*tensor.Tensor) []byte {
	return wire.EncodeSealedUpdate(idx, ts)
}

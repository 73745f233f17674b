// Package secagg implements secure aggregation for the FL round engine:
// the server learns only the cohort's aggregate update, never any
// individual client's gradients — extending GradSec's client-side
// TrustZone shielding (conf_middleware_MessaoudMNS22) to an untrusted
// aggregator.
//
// Two complementary mechanisms cover the two halves of a GradSec
// update:
//
//   - Pairwise additive masking for the plaintext (unprotected-layer)
//     half. Updates are quantised to fixed point and shifted into the
//     ring ℤ/2⁶⁴; masking pairs (i,j) derive a shared secret from the
//     mask keys exchanged during the attestation handshake and add
//     ±PRG(secret) to their levels. Summed over the cohort the masks
//     cancel exactly (ring arithmetic — no floating-point residue), so
//     the server folds masked updates it cannot read and still recovers
//     the exact aggregate. Each client masks only against its ~log₂ n
//     neighbours in the round's k-regular graph (Graph) — O(k·n)
//     keystream fleet-wide instead of O(n²) — and additionally adds a
//     self-mask whose seed is Shamir-shared among those neighbours
//     (double masking, Bonawitz CCS'17 / Bell CCS'20). Reconciliation
//     then asks each survivor, per neighbour, for either the pairwise
//     round seed (neighbour dropped) or the neighbour's self-seed share
//     (neighbour folded) — never both (ErrRoleConflict) — and the
//     server subtracts exactly the dangling pair masks plus each folded
//     client's reconstructed self-mask. Deterministic reconciliation,
//     not a best-effort approximation. This is the only masked
//     protocol: a client asked to mask a multi-member cohort without
//     the graph and the self mask refuses (ErrMaskDowngrade).
//
//   - Enclave aggregation for the sealed (protected-layer) half.
//     Sealed blobs are folded inside a simulated server-side enclave
//     (Enclave, built on the internal/tz TA framework): trusted-channel
//     keys live only in the enclave, unsealing and accumulation happen
//     behind the world boundary, and only the per-round aggregate mean
//     crosses back — the tz leak screen panics if an individual tensor
//     ever would.
//
// # Exactness
//
// Quantisation maps v to round(v·2^ScaleBits) in two's complement.
// Values that are dyadic rationals with ≤ ScaleBits fractional bits
// (the flsim simulator's update model) quantise without error, and the
// unmasked ring sum converts back through an exact power-of-two
// division — so a masked session's aggregate is bit-identical to the
// plaintext FedAvg aggregate, which the flsim secagg scenarios assert.
// For general values the quantisation error is ≤ 2^-(ScaleBits+1) per
// element per client.
//
// # Threat model and caveats
//
// The server is honest-but-curious: it follows the protocol but reads
// everything it can. Pair seeds revealed during reconciliation are
// round-scoped (derived as H(pair secret ‖ round)), so a revealed seed
// unmasks nothing in any other round. With pairwise masks alone, a
// malicious server that falsely reports a client as dropped could
// collect its round seeds and unmask a *late* update from that client
// if one arrives. Double masking closes that window by construction: a
// late update additionally carries its self-mask, whose seed only
// ≥ Threshold neighbours acting in the survivor role can reconstruct —
// and every honest neighbour refuses to play both roles for one peer
// (ErrRoleConflict), so the server must choose, per client, between
// the dropout path and the survivor path. Residual caveat: a survivor that vanishes *during*
// reconciliation while its dropped neighbours' pair seeds are still
// unrevealed fails the round (only its own self-seed, not its pair
// seeds, is recoverable from shares — pair secrets are session-long
// here, unlike full Bonawitz, and are deliberately never shared). See
// docs/SECAGG.md.
package secagg

import (
	"math"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// DefaultScaleBits is the default fixed-point precision: 24 fractional
// bits keep the exact-conversion envelope (|Σ wᵢuᵢ|·2^bits < 2⁵³) with
// room for 2¹⁰ clients at weight 2¹⁶ and unit-scale updates.
const DefaultScaleBits = 24

// MaxScaleBits bounds the negotiated precision so the scale stays an
// exact power of two well inside float64 range.
const MaxScaleBits = 48

// ScaleFor returns the fixed-point scale 2^bits as a float64.
func ScaleFor(bits int) float64 { return math.Ldexp(1, bits) }

// Quantise maps a float tensor to fixed-point ring levels:
// level = round(v·scale) as int64, reinterpreted in ℤ/2⁶⁴. The result
// is multiplied by weight in the ring, so a client's contribution
// carries its FedAvg weight before masking.
func Quantise(t *tensor.Tensor, scale float64, weight uint64) *wire.U64Tensor {
	levels := make([]uint64, len(t.Data))
	quantiseInto(levels, t.Data, scale, weight)
	shape := make([]int, len(t.Shape))
	copy(shape, t.Shape)
	return &wire.U64Tensor{Shape: shape, Levels: levels}
}

// quantiseInto is Quantise into a caller-owned buffer of len(src) words.
func quantiseInto(dst []uint64, src []float64, scale float64, weight uint64) {
	for i, v := range src[:len(dst)] {
		dst[i] = uint64(int64(math.Round(v*scale))) * weight
	}
}

// Dequantise converts an unmasked ring sum back to float64 values:
// float64(int64(level)) / scale. The division is by a power of two and
// therefore exact; the int64→float64 conversion is exact while the
// aggregate magnitude stays below 2⁵³·2^-ScaleBits.
func Dequantise(levels []uint64, scale float64, dst []float64) {
	inv := 1 / scale // exact: scale is a power of two
	for i, l := range levels {
		dst[i] = float64(int64(l)) * inv
	}
}

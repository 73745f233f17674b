package secagg

import (
	"errors"
	"fmt"
	"time"

	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// MaskedSum is the server's streaming aggregator for masked updates:
// the ring analogue of fl.Aggregator. Each client's masked level
// tensors are folded into a running sum in ℤ/2⁶⁴ the moment they
// arrive; pairwise masks cancel as both halves of each pair fold (or
// are subtracted during reconciliation), and Mean converts the clean
// ring sum back to float64 tensors. Memory stays O(model).
type MaskedSum struct {
	ref    []*tensor.Tensor
	active []bool
	scale  float64
	sum    [][]uint64 // nil at inactive (protected) positions
	weight float64
	count  int

	// scratch is the mask kernel's keystream chunk, allocated by the
	// first seed application.
	scratch []byte

	// expandNS, when attached, times seed-mask keystream expansion.
	// CPU work measured on the real clock — it never feeds the trace
	// sink, so simulated-time determinism is unaffected.
	expandNS *obs.Histogram
}

// Instrument attaches a histogram timing ApplySeedMasks: one
// observation per call, covering every seed the call expands. A nil
// histogram (or never calling Instrument) keeps the path untimed.
func (m *MaskedSum) Instrument(expandNS *obs.Histogram) {
	m.expandNS = expandNS
}

// NewMaskedSum creates a masked aggregator for updates shaped like ref,
// with the protected positions (travelling sealed, aggregated in the
// enclave) excluded from the masked layout.
func NewMaskedSum(ref []*tensor.Tensor, protected map[int]bool, scaleBits int) *MaskedSum {
	if scaleBits <= 0 {
		scaleBits = DefaultScaleBits
	}
	m := &MaskedSum{
		ref:    ref,
		active: make([]bool, len(ref)),
		scale:  ScaleFor(scaleBits),
		sum:    make([][]uint64, len(ref)),
	}
	for i, r := range ref {
		if protected[i] {
			continue
		}
		m.active[i] = true
		m.sum[i] = make([]uint64, r.Size())
	}
	return m
}

// Validate checks a masked update against the layout without folding
// it: exactly one level tensor per active position, shapes matching the
// reference model.
func (m *MaskedSum) Validate(up []*wire.U64Tensor) error {
	if len(up) != len(m.ref) {
		return fmt.Errorf("secagg: update has %d tensors, model has %d", len(up), len(m.ref))
	}
	for i, t := range up {
		if !m.active[i] {
			if t != nil {
				return fmt.Errorf("secagg: levels present at protected position %d", i)
			}
			continue
		}
		if t == nil {
			return fmt.Errorf("secagg: update missing levels for tensor %d", i)
		}
		if !t.Fits(m.ref[i].Size()) {
			return fmt.Errorf("secagg: levels for tensor %d do not hold %d elements", i, m.ref[i].Size())
		}
	}
	return nil
}

// Add validates and folds one masked update carrying the given FedAvg
// weight (the client already multiplied its levels by it in the ring;
// here it only accumulates the denominator). Add is fail-closed: every
// shape is re-checked inline against the accumulator before the first
// element is folded, independently of Validate — so even a caller that
// skipped Validate (or validated against a stale layout) cannot fold a
// mismatched update into the ring sum, partially or at all.
func (m *MaskedSum) Add(up []*wire.U64Tensor, weight uint64) error {
	if weight == 0 {
		return errors.New("secagg: zero update weight")
	}
	return m.AddPartial(up, float64(weight), 1)
}

// AddPartial composes an edge aggregator's partial — that shard's ring
// sums over count updates of total weight, its masks already cancelled
// or reconciled. It is the one fail-closed fold, Add's included: ring
// sums are additive in ℤ/2⁶⁴, so composed partials finish with the same
// Mean as directly folded updates. A decoded tensor's words fold
// straight from its payload (wire.U64Tensor.AddTo), so a fold
// allocates nothing.
func (m *MaskedSum) AddPartial(up []*wire.U64Tensor, weight float64, count int) error {
	if err := m.Validate(up); err != nil {
		return err
	}
	// Defensive re-check directly against the destination slices: the
	// whole update must be provably foldable before any element lands,
	// or a hostile edge whose update passed a skipped/desynced Validate
	// would corrupt the sum mid-fold.
	if len(up) != len(m.sum) {
		return fmt.Errorf("secagg: update has %d tensors, accumulator has %d", len(up), len(m.sum))
	}
	for i, t := range up {
		if t == nil {
			if m.sum[i] != nil {
				return fmt.Errorf("secagg: update missing levels for tensor %d", i)
			}
			continue
		}
		if m.sum[i] == nil {
			return fmt.Errorf("secagg: levels present at protected position %d", i)
		}
		if !t.Fits(len(m.sum[i])) {
			return fmt.Errorf("secagg: levels for tensor %d do not hold %d elements", i, len(m.sum[i]))
		}
	}
	for i, t := range up {
		if t != nil {
			t.AddTo(m.sum[i])
		}
	}
	m.weight += weight
	m.count += count
	return nil
}

// ApplySeedMasks expands revealed round seeds and adds (Sign ≥ 0) or
// subtracts each from the running sum in one pass of the mask kernel —
// the clients' own, so what a client masked with a seed comes off word
// for word. Reconciliation applies a round's pair seeds and
// reconstructed self seeds in one call, once the round can no longer
// fail.
func (m *MaskedSum) ApplySeedMasks(masks []SeedMask) {
	var active [][]uint64
	for i, on := range m.active {
		if on {
			active = append(active, m.sum[i])
		}
	}
	if m.scratch == nil {
		m.scratch = make([]byte, maskChunk)
	}
	var start time.Time
	if m.expandNS != nil {
		start = time.Now()
	}
	applyMasks(masks, active, m.scratch)
	if m.expandNS != nil {
		m.expandNS.Observe(time.Since(start).Nanoseconds())
	}
}

// ApplySeedMask is ApplySeedMasks of one seed.
func (m *MaskedSum) ApplySeedMask(seed [32]byte, sign int) {
	m.ApplySeedMasks([]SeedMask{{Seed: seed, Sign: sign}})
}

// Levels returns the ring sums as level tensors aligned with the
// reference model (nil at protected positions) — the shard partial a
// hierarchical edge forwards upstream once its masks have cancelled
// (full fold) or been reconciled. The level slices alias the
// accumulator: callers hand them to the wire encoder and discard the
// MaskedSum, so no copy is made.
func (m *MaskedSum) Levels() []*wire.U64Tensor {
	out := make([]*wire.U64Tensor, len(m.ref))
	for i, on := range m.active {
		if !on {
			continue
		}
		shape := make([]int, len(m.ref[i].Shape))
		copy(shape, m.ref[i].Shape)
		out[i] = &wire.U64Tensor{Shape: shape, Levels: m.sum[i]}
	}
	return out
}

// Count returns the number of folded updates.
func (m *MaskedSum) Count() int { return m.count }

// Weight returns the summed FedAvg weight of the folded updates.
func (m *MaskedSum) Weight() float64 { return m.weight }

// Mean converts the (reconciled) ring sum to the weighted-average
// update: nil at protected positions, fresh tensors elsewhere. The
// arithmetic mirrors fl.Aggregator.Mean — dequantise to the exact
// float sum, then scale by 1/weight — so dyadic inputs reproduce the
// plaintext aggregate bit for bit.
func (m *MaskedSum) Mean() ([]*tensor.Tensor, error) {
	if m.count == 0 {
		return nil, errors.New("secagg: aggregating zero updates")
	}
	out := make([]*tensor.Tensor, len(m.ref))
	inv := 1 / m.weight
	for i, on := range m.active {
		if !on {
			continue
		}
		t := tensor.New(m.ref[i].Shape...)
		Dequantise(m.sum[i], m.scale, t.Data)
		out[i] = tensor.Scale(t, inv)
	}
	return out, nil
}

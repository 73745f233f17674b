package fl

import (
	"errors"
	"fmt"
	"math"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// Aggregator performs streaming (one-pass) federated averaging: each
// client update is folded into a running weighted sum the moment it
// arrives, so server memory stays O(model) instead of O(clients × model)
// as in the buffered FedAvg path. Folding u with weight w and finishing
// with Mean() computes Σ wᵢuᵢ / Σ wᵢ — for unit weights, exactly the
// arithmetic of FedAvg applied in arrival order.
type Aggregator struct {
	ref    []*tensor.Tensor
	sum    []*tensor.Tensor
	weight float64
	count  int
}

// NewAggregator creates an aggregator for updates shaped like ref (the
// global model's flat parameter tensors). No per-client storage is
// allocated — only one model-sized accumulator.
func NewAggregator(ref []*tensor.Tensor) *Aggregator {
	sum := make([]*tensor.Tensor, len(ref))
	for i, r := range ref {
		sum[i] = tensor.New(r.Shape...)
	}
	return &Aggregator{ref: ref, sum: sum}
}

// Add folds one complete client update into the running sum with the
// given weight (use 1 for plain FedAvg). The update must match the
// reference shapes; it may be released by the caller immediately after.
func (a *Aggregator) Add(update []*tensor.Tensor, weight float64) error {
	return a.fold(update, weight, weight, 1)
}

// AddPartial composes an edge aggregator's partial: sum is that
// shard's own Σ wᵢuᵢ over count updates of total weight — already
// weighted, so it is added as is. Composed partials finish with the
// same Mean as directly folded updates, which is what makes a
// hierarchy's aggregate bit-identical to the flat one.
func (a *Aggregator) AddPartial(sum []*tensor.Tensor, weight float64, count int) error {
	return a.fold(sum, 1, weight, count)
}

// fold validates update against the reference shapes, then adds
// scale×update to the running sum and books weight and count.
// Validation precedes every mutation.
func (a *Aggregator) fold(update []*tensor.Tensor, scale, weight float64, count int) error {
	if len(update) != len(a.ref) {
		return fmt.Errorf("fl: update has %d tensors, model has %d", len(update), len(a.ref))
	}
	if weight <= 0 {
		return fmt.Errorf("fl: non-positive update weight %v", weight)
	}
	for i, u := range update {
		if u == nil {
			return fmt.Errorf("fl: update missing tensor %d", i)
		}
		if !u.SameShape(a.ref[i]) {
			return fmt.Errorf("fl: update tensor %d has shape %v, want %v", i, u.Shape, a.ref[i].Shape)
		}
	}
	for i, u := range update {
		tensor.AxPy(scale, u, a.sum[i])
	}
	a.weight += weight
	a.count += count
	return nil
}

// AccumulateQ8 folds one complete client update that arrived in the
// lazy q8 wire form, dequantising each element straight into the
// running sum — no per-client float64 tensors are materialised, which
// removes the remaining allocation floor of large quantised fleets.
// The arithmetic is element-for-element identical to materialising the
// tensors and calling Add: v = lo + q·(scale/2) + q·(scale/2), then
// sum += weight·v.
func (a *Aggregator) AccumulateQ8(update []*wire.Q8Tensor, weight float64) error {
	if len(update) != len(a.ref) {
		return fmt.Errorf("fl: update has %d tensors, model has %d", len(update), len(a.ref))
	}
	if weight <= 0 {
		return fmt.Errorf("fl: non-positive update weight %v", weight)
	}
	for i, q := range update {
		if q == nil {
			return fmt.Errorf("fl: update missing tensor %d", i)
		}
		if !q.SameShape(a.ref[i]) || len(q.Levels) != a.ref[i].Size() {
			return fmt.Errorf("fl: update tensor %d has shape %v, want %v", i, q.Shape, a.ref[i].Shape)
		}
	}
	for i, q := range update {
		dst := a.sum[i].Data
		half := q.Scale / 2
		lo := q.Lo
		for j, b := range q.Levels {
			lvl := float64(b)
			dst[j] += weight * (lo + lvl*half + lvl*half)
		}
	}
	a.weight += weight
	a.count++
	return nil
}

// Count returns the number of folded updates.
func (a *Aggregator) Count() int { return a.count }

// Sum returns the raw weighted sum Σ wᵢuᵢ of the folded updates. The
// tensors alias the accumulator: hierarchical edges hand them straight
// to the wire encoder and discard the aggregator, so no copy is made —
// callers must not Add afterwards while still holding the slice.
func (a *Aggregator) Sum() []*tensor.Tensor { return a.sum }

// Weight returns the summed weight of the folded updates.
func (a *Aggregator) Weight() float64 { return a.weight }

// Mean returns the weighted average of the folded updates as freshly
// allocated tensors, or an error when nothing was folded. The
// accumulator is left intact, so further Adds remain valid.
func (a *Aggregator) Mean() ([]*tensor.Tensor, error) {
	if a.count == 0 {
		return nil, errors.New("fl: aggregating zero updates")
	}
	out := make([]*tensor.Tensor, len(a.sum))
	inv := 1 / a.weight
	for i, s := range a.sum {
		out[i] = tensor.Scale(s, inv)
	}
	return out, nil
}

// UpdateNorm returns the L2 norm of a flat update (the concatenation of
// its tensors) — the per-round aggregate magnitude reported in traces.
func UpdateNorm(update []*tensor.Tensor) float64 {
	var ss float64
	for _, u := range update {
		for _, x := range u.Data {
			ss += x * x
		}
	}
	return math.Sqrt(ss)
}

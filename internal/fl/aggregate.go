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

// foldChunk is the number of elements Accumulate decodes at a time.
const foldChunk = 2048

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
// Validation precedes every mutation.
func (a *Aggregator) Add(update []*tensor.Tensor, weight float64) error {
	if err := checkUpdate(a.ref, update, weight, tensorFits); err != nil {
		return err
	}
	for i, u := range update {
		tensor.AxPy(weight, u, a.sum[i])
	}
	a.weight += weight
	a.count++
	return nil
}

// AddPartial composes an edge aggregator's partial: sum is that
// shard's own Σ wᵢuᵢ over count updates of total weight, as exact f64
// views into its frame. It is already weighted, so it folds through
// Accumulate's chunk loop at scale 1 — 1·x is x, so the result is
// bit-identical to adding the materialised sum — and the shard's weight
// and count are booked in place of that fold's. Composed partials
// finish with the same mean as directly folded updates, which is what
// makes a hierarchy's aggregate bit-identical to the flat one.
func (a *Aggregator) AddPartial(sum []*wire.View, weight float64, count int) error {
	if !(weight > 0) {
		return fmt.Errorf("fl: non-positive partial weight %v", weight)
	}
	w, n := a.weight, a.count
	if err := a.Accumulate(sum, 1); err != nil {
		return err
	}
	a.weight, a.count = w+weight, n+count
	return nil
}

// Accumulate folds one complete client update that arrived as wire
// views, under any codec, into the running sum: each view is decoded a
// chunk at a time into a stack scratch and added as AxPy adds,
// y += weight·x, so the result is bit-identical to materialising the
// update and calling Add, and no per-client tensor is ever allocated.
// Validation precedes every mutation.
func (a *Aggregator) Accumulate(update []*wire.View, weight float64) error {
	if err := checkUpdate(a.ref, update, weight, (*wire.View).Fits); err != nil {
		return err
	}
	var chunk [foldChunk]float64
	for i, v := range update {
		sum := a.sum[i].Data
		for from := 0; from < len(sum); from += foldChunk {
			y := sum[from:min(from+foldChunk, len(sum))]
			x := chunk[:len(y)]
			v.Decode(x, from)
			for j := range y {
				y[j] += float64(weight * x[j]) // AxPy's rounding: no fused multiply-add
			}
		}
	}
	a.weight += weight
	a.count++
	return nil
}

// AccumulateQ8 is Accumulate, kept for benchmark/.
func (a *Aggregator) AccumulateQ8(update []*wire.Q8Tensor, weight float64) error {
	return a.Accumulate(update, weight)
}

// checkUpdate is the validation every fold runs before it mutates
// anything: as many tensors as the model, a positive weight, and every
// tensor accepted by fits against its model tensor.
func checkUpdate[T any](ref []*tensor.Tensor, update []T, weight float64, fits func(T, *tensor.Tensor) bool) error {
	if len(update) != len(ref) {
		return fmt.Errorf("fl: update has %d tensors, model has %d", len(update), len(ref))
	}
	if weight <= 0 {
		return fmt.Errorf("fl: non-positive update weight %v", weight)
	}
	for i, u := range update {
		if !fits(u, ref[i]) {
			return fmt.Errorf("fl: update tensor %d missing or not shaped %v", i, ref[i].Shape)
		}
	}
	return nil
}

// tensorFits is checkUpdate's test for a materialised update tensor.
func tensorFits(u, ref *tensor.Tensor) bool { return u != nil && u.SameShape(ref) }

// Count returns the number of folded updates.
func (a *Aggregator) Count() int { return a.count }

// Sum returns the raw weighted sum Σ wᵢuᵢ of the folded updates. The
// tensors alias the accumulator: a hierarchical edge hands them straight
// to the wire encoder, so no copy is made — callers must not fold
// afterwards while still holding the slice. The engine keeps one
// aggregator per session, so a partial's Sum (StepRound) stays valid
// until the next StepRound.
func (a *Aggregator) Sum() []*tensor.Tensor { return a.sum }

// Weight returns the summed weight of the folded updates.
func (a *Aggregator) Weight() float64 { return a.weight }

// Mean returns the weighted average of the folded updates as freshly
// allocated tensors, or an error when nothing was folded. The
// accumulator is left intact, so further Adds remain valid.
func (a *Aggregator) Mean() ([]*tensor.Tensor, error) {
	if a.count == 0 {
		return nil, errNoUpdates
	}
	out := make([]*tensor.Tensor, len(a.sum))
	inv := 1 / a.weight
	for i, s := range a.sum {
		out[i] = tensor.Scale(s, inv)
	}
	return out, nil
}

// errNoUpdates refuses a mean over nothing.
var errNoUpdates = errors.New("fl: aggregating zero updates")

// reset empties the aggregator for reuse, keeping its sum's storage: it
// then folds exactly as a fresh NewAggregator would. The engine keeps
// one for the session (Server.fedAvg): a round's or an async window's
// close leaves its mean in the sum (applyMean), and the next open
// resets it.
func (a *Aggregator) reset() {
	for _, s := range a.sum {
		clear(s.Data)
	}
	a.weight, a.count = 0, 0
}

// UpdateNorm returns the L2 norm of a flat update (the concatenation of
// its tensors) — the per-round aggregate magnitude reported in traces.
func UpdateNorm(update []*tensor.Tensor) float64 {
	var ss float64
	for _, u := range update {
		for _, x := range u.Data {
			ss += float64(x * x) // no fused multiply-add
		}
	}
	return math.Sqrt(ss)
}

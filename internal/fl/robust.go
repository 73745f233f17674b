package fl

import (
	"errors"
	"fmt"
	"sort"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// AggMethod selects the round aggregation strategy. The default,
// AggFedAvg, is the streaming weighted mean the engine has always run;
// the robust methods bound the influence of Byzantine clients at the
// cost of buffering the cohort's updates (O(clients × model) memory
// instead of O(model)) and of ignoring example-count weights — a
// self-reported weight is itself an attack vector, so robust methods
// treat every update equally.
type AggMethod uint8

const (
	// AggFedAvg is streaming weighted federated averaging.
	AggFedAvg AggMethod = iota
	// AggTrimmedMean sorts each coordinate across the cohort, drops
	// the ⌈trim·n⌉ largest and smallest values, and averages the rest.
	// Tolerates up to trim·n colluding poisoners per coordinate.
	AggTrimmedMean
	// AggMedian takes the coordinate-wise median — the trimmed mean's
	// limit, tolerating just under half the cohort.
	AggMedian
)

// ParseAggMethod maps a CLI/config name to an AggMethod.
func ParseAggMethod(name string) (AggMethod, error) {
	switch name {
	case "", "fedavg", "mean":
		return AggFedAvg, nil
	case "trimmed-mean", "trimmed_mean", "trim":
		return AggTrimmedMean, nil
	case "median":
		return AggMedian, nil
	}
	return 0, fmt.Errorf("fl: unknown aggregation method %q (want fedavg, trimmed-mean, or median)", name)
}

func (m AggMethod) String() string {
	switch m {
	case AggFedAvg:
		return "fedavg"
	case AggTrimmedMean:
		return "trimmed-mean"
	case AggMedian:
		return "median"
	}
	return fmt.Sprintf("aggmethod(%d)", uint8(m))
}

// Robust aggregation needs each client's plaintext update — the whole
// point is comparing per-client values coordinate by coordinate. That
// is structurally incompatible with secure aggregation, whose whole
// point is that the server only ever sees the masked sum. The two are
// therefore mutually exclusive; pick the threat model that matters
// more for the deployment (a poisoning fleet vs an honest-but-curious
// server) and document the choice.
var (
	// ErrRobustSecAgg rejects SecAgg + a robust aggregator.
	ErrRobustSecAgg = errors.New("fl: robust aggregation requires plaintext per-client updates and cannot compose with secure aggregation (masking hides exactly the per-client values trimming needs) — disable SecAgg or use AggFedAvg")
	// ErrRobustPartials rejects robust aggregation on a hierarchical
	// edge or root (Partials, EdgePeers): a partial is an un-normalised
	// sum, and trimming per-shard sums at the root would not bound
	// per-client influence anyway.
	ErrRobustPartials = errors.New("fl: robust aggregation is not available in hierarchical partial mode (partials are sums, not per-client updates)")
	// ErrRobustAsync rejects robust aggregation in asynchronous mode:
	// the buffer mixes versions, so coordinate statistics are not
	// taken over a common reference model.
	ErrRobustAsync = errors.New("fl: robust aggregation is not available in asynchronous mode (buffered updates span model versions)")
	// ErrBadTrim rejects a trim fraction outside (0, 0.5).
	ErrBadTrim = errors.New("fl: TrimFraction must be in (0, 0.5)")
)

// roundSum is a round's accumulator as publish reads it once collect is
// over: an UpdateAggregator in a plain round (or composing a plain
// edge-peer round's partials), a maskedRound in a masked one.
type roundSum interface {
	// Count returns the number of folded client updates.
	Count() int
	// Weight returns the summed weight of the folded updates.
	Weight() float64
	// Mean produces the round aggregate.
	Mean() ([]*tensor.Tensor, error)
}

// UpdateAggregator is the plaintext round aggregation strategy: the
// streaming FedAvg Aggregator and the buffering robust aggregators
// implement it, and a plain round folds arrivals through it without
// knowing which is behind it.
type UpdateAggregator interface {
	roundSum
	// Accumulate folds one complete client update, as it arrived on the
	// wire, with the given weight.
	Accumulate(update []*wire.View, weight float64) error
}

// newAggregator returns the configured aggregation strategy for one
// round over the current model shapes: the session's FedAvg aggregator,
// reset, or a fresh robust one.
func (s *Server) newAggregator() UpdateAggregator {
	switch s.cfg.Aggregation {
	case AggTrimmedMean, AggMedian:
		return newRobustAggregator(s.state, s.cfg.Aggregation, s.cfg.TrimFraction)
	default:
		return s.fedAvg()
	}
}

// fedAvg returns the session's streaming aggregator, emptied: one for
// the server's life, shared by every plain round, edge-peer round and
// async window, so opening one allocates no model-sized sum.
func (s *Server) fedAvg() *Aggregator {
	if s.agg == nil {
		s.agg = NewAggregator(s.state)
	} else {
		s.agg.reset()
	}
	return s.agg
}

// robustAggregator buffers the cohort's updates and aggregates
// coordinate-wise at Mean time. An update arrives as views into its
// frame, so Accumulate materialises it — the buffer owns what it keeps.
// Weights are summed for trace accounting but deliberately do not
// influence the aggregate.
type robustAggregator struct {
	ref     []*tensor.Tensor
	updates [][]*tensor.Tensor
	weight  float64
	method  AggMethod
	trim    float64
}

func newRobustAggregator(ref []*tensor.Tensor, method AggMethod, trim float64) *robustAggregator {
	return &robustAggregator{ref: ref, method: method, trim: trim}
}

// Add retains a materialised update, which the caller hands over, for
// the coordinate pass.
func (a *robustAggregator) Add(update []*tensor.Tensor, weight float64) error {
	if err := checkUpdate(a.ref, update, weight, tensorFits); err != nil {
		return err
	}
	a.updates = append(a.updates, update)
	a.weight += weight
	return nil
}

// Accumulate implements UpdateAggregator by materialising the views —
// robust methods need every coordinate of every update at Mean time.
func (a *robustAggregator) Accumulate(update []*wire.View, weight float64) error {
	if err := checkUpdate(a.ref, update, weight, (*wire.View).Fits); err != nil {
		return err
	}
	mat := make([]*tensor.Tensor, len(update))
	for i, v := range update {
		mat[i] = v.Materialise()
	}
	return a.Add(mat, weight)
}

// Count implements UpdateAggregator.
func (a *robustAggregator) Count() int { return len(a.updates) }

// Weight implements UpdateAggregator.
func (a *robustAggregator) Weight() float64 { return a.weight }

// Mean implements UpdateAggregator: the coordinate-wise trimmed mean
// or median of the buffered updates. Sorting each coordinate makes the
// result independent of arrival order, so deterministic simulations
// stay bit-reproducible. With dyadic-rational inputs the median of an
// odd cohort and any trimmed sum are exact, which is what lets flsim
// assert robust-vs-clean norms without tolerance bands.
func (a *robustAggregator) Mean() ([]*tensor.Tensor, error) {
	n := len(a.updates)
	if n == 0 {
		return nil, errNoUpdates
	}
	drop := 0
	if a.method == AggTrimmedMean {
		drop = int(a.trim * float64(n))
		if 2*drop >= n {
			drop = (n - 1) / 2
		}
	}
	out := make([]*tensor.Tensor, len(a.ref))
	col := make([]float64, n)
	for i, r := range a.ref {
		out[i] = tensor.New(r.Shape...)
		dst := out[i].Data
		for j := range dst {
			for k, u := range a.updates {
				col[k] = u[i].Data[j]
			}
			sort.Float64s(col)
			switch a.method {
			case AggMedian:
				if n%2 == 1 {
					dst[j] = col[n/2]
				} else {
					dst[j] = (col[n/2-1] + col[n/2]) / 2
				}
			default: // AggTrimmedMean
				var sum float64
				kept := col[drop : n-drop]
				for _, v := range kept {
					sum += v
				}
				dst[j] = sum / float64(len(kept))
			}
		}
	}
	return out, nil
}

package attack

import (
	"math"
	"math/rand"

	"github.com/gradsec/gradsec/internal/nn"
)

// NumProbes is the number of random-projection features per layer. The
// paper's attack models consume raw gradient columns; fixed random
// projections are a compact proxy that preserves *directional* signal
// (e.g. the DPIA property pattern), which magnitude summaries alone
// cannot carry.
const NumProbes = 6

// Featurizer turns observations into attack-model rows: the
// FeaturesPerLayer magnitude statistics plus NumProbes fixed random
// projections per layer.
type Featurizer struct {
	// probes[l][k] is the k-th ±1 probe over layer l's flattened params.
	probes [][][]float64
	// PerLayer is the feature-block width per layer.
	PerLayer int
}

// NewFeaturizer builds deterministic probes matching net's layer sizes.
func NewFeaturizer(net *nn.Network, seed int64) *Featurizer {
	rng := rand.New(rand.NewSource(seed))
	f := &Featurizer{PerLayer: FeaturesPerLayer + NumProbes}
	for _, layer := range net.Layers {
		n := layer.ParamCount()
		probes := make([][]float64, NumProbes)
		for k := range probes {
			p := make([]float64, n)
			for i := range p {
				if rng.Intn(2) == 0 {
					p[i] = 1
				} else {
					p[i] = -1
				}
			}
			probes[k] = p
		}
		f.probes = append(f.probes, probes)
	}
	return f
}

// Row flattens an observation into one feature row; a shielded layer's
// block is NaN (the deletion GradDataset.Masked applies after the fact).
func (f *Featurizer) Row(obs Observation) []float64 {
	row := make([]float64, 0, len(obs)*f.PerLayer)
	for l, layerGrads := range obs {
		if layerGrads == nil {
			for k := 0; k < f.PerLayer; k++ {
				row = append(row, math.NaN())
			}
			continue
		}
		stats := LayerFeatures(layerGrads)
		row = append(row, stats[:]...)
		for _, probe := range f.probes[l] {
			scale := 1 / math.Sqrt(float64(len(probe))+1)
			dot, i := 0.0, 0
			for _, g := range layerGrads {
				for _, v := range g.Data {
					dot += v * probe[i]
					i++
				}
			}
			row = append(row, dot*scale)
		}
	}
	return row
}

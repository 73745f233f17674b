// Package attack implements the three client-side inference attacks the
// paper evaluates GradSec against:
//
//   - DRIA — data-reconstruction inference attack (deep leakage from
//     gradients, Zhu et al. 2019): gradient matching with L-BFGS/Adam
//     over the *observable* per-layer gradients;
//   - MIA — membership inference attack (Nasr et al. 2019): a binary
//     classifier over per-layer gradient features of individual samples;
//   - DPIA — data-property inference attack (Melis et al. 2019): a random
//     forest over aggregated cross-cycle gradient features.
//
// All three read one input, the Observation: what the normal world sees
// of a training step, nil where the TEE shielded a layer. A live
// core.SecureTrainer exposes it (CycleResult.Observable); the paper's §8.1
// shortcut — "we simply delete from D_grad all the gradients columns
// relative to a protected layer" — is Mask on an unprotected run
// (docs/EVALUATION.md). Shielded features become NaN and are mean-imputed
// before attack-model training, also the paper's strategy.
package attack

import (
	"math"

	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/tensor"
)

// Observation is the attacker's raw input: per layer, the gradient (or,
// across an FL cycle, the update) of each parameter tensor — nil for a
// layer the TEE shielded.
type Observation [][]*tensor.Tensor

// Observe groups a flat per-parameter list (core.CycleResult.Observable,
// an FL update) by net's layers; a withheld tensor shields its layer.
func Observe(net *nn.Network, flat []*tensor.Tensor) Observation {
	obs := make(Observation, net.NumLayers())
	k := 0
	for l, layer := range net.Layers {
		n := len(layer.Params())
		obs[l] = flat[k : k+n]
		for _, t := range obs[l] {
			if t == nil {
				obs[l] = nil
			}
		}
		k += n
	}
	return obs
}

// Mask returns the observation with the given layers shielded: the §8.1
// deletion, on the raw tensors.
func (o Observation) Mask(protected []int) Observation {
	out := append(Observation(nil), o...)
	for _, l := range protected {
		out[l] = nil
	}
	return out
}

// Schedule maps an FL cycle (a GradDataset row) to its protected layers;
// core.Plan.ProtectedLayers adapts directly.
type Schedule func(cycle int) []int

// Static is the constant schedule: the same layers shielded every cycle.
func Static(layers ...int) Schedule { return func(int) []int { return layers } }

// FeaturesPerLayer is the number of summary statistics extracted per
// layer gradient: L2 norm, mean |g|, max |g|, std.
const FeaturesPerLayer = 4

// LayerFeatures summarises one layer's gradient tensors into fixed
// statistics. Gradient magnitudes are what membership and property
// signals modulate.
func LayerFeatures(grads []*tensor.Tensor) [FeaturesPerLayer]float64 {
	n := 0
	sumSq, sumAbs, maxAbs := 0.0, 0.0, 0.0
	for _, g := range grads {
		for _, v := range g.Data {
			sumSq += v * v
			a := math.Abs(v)
			sumAbs += a
			if a > maxAbs {
				maxAbs = a
			}
			n++
		}
	}
	if n == 0 {
		return [FeaturesPerLayer]float64{}
	}
	mean := sumAbs / float64(n)
	variance := 0.0
	for _, g := range grads {
		for _, v := range g.Data {
			d := math.Abs(v) - mean
			variance += d * d
		}
	}
	return [FeaturesPerLayer]float64{
		math.Sqrt(sumSq),
		mean,
		maxAbs,
		math.Sqrt(variance / float64(n)),
	}
}

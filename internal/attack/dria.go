package attack

import (
	"math/rand"

	ad "github.com/gradsec/gradsec/internal/autodiff"
	"github.com/gradsec/gradsec/internal/metrics"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/opt"
	"github.com/gradsec/gradsec/internal/tensor"
)

// DRIAConfig configures the data-reconstruction attack.
type DRIAConfig struct {
	// Iterations bounds the optimizer (0 = 100).
	Iterations int
	// UseAdam selects Adam instead of L-BFGS (the DLG paper uses L-BFGS;
	// Adam is steadier on deep/pooled models like AlexNet).
	UseAdam bool
	// Seed initialises the dummy image.
	Seed int64
}

// DRIAResult reports a reconstruction attempt.
type DRIAResult struct {
	// Reconstruction is the attacker's recovered input.
	Reconstruction *tensor.Tensor
	// ImageLoss is the Euclidean distance to the true input — the paper's
	// Figure 5 metric.
	ImageLoss float64
	// MatchLoss is the final gradient-matching objective value.
	MatchLoss float64
}

// DRIA runs the deep-leakage-from-gradients attack: the honest-but-
// curious attacker observed the victim's gradients for one (x, y) batch
// — targets, nil at TEE-protected layers — and optimises a dummy input so
// its gradients match. Second-order gradients come analytically from the
// double-backprop autodiff engine.
//
// x is the true input (its shape seeds the dummy and it scores
// ImageLoss); y is the label batch, assumed known as in the DLG setting.
func DRIA(net *nn.Network, x, y *tensor.Tensor, targets Observation, cfg DRIAConfig) DRIAResult {
	if cfg.Iterations == 0 {
		cfg.Iterations = 100
	}

	// matchObjective evaluates ‖∇W(dummy) − g*‖² and its gradient with
	// respect to the dummy input, building a fresh double-backprop graph.
	batch := y.Shape[0]
	matchObjective := func(flat []float64) (float64, []float64) {
		dummy := tensor.FromSlice(append([]float64(nil), flat...), x.Shape...)
		f := net.BuildForward(dummy, batch)
		loss := ad.SoftmaxCrossEntropy(f.Output, y)
		var wrt []*ad.Node
		for _, vars := range f.ParamVars {
			wrt = append(wrt, vars...)
		}
		gradNodes := ad.Grad(loss, wrt)

		var match *ad.Node
		k := 0
		for l, vars := range f.ParamVars {
			for j := range vars {
				gn := gradNodes[k]
				k++
				if targets[l] == nil || gn == nil {
					continue
				}
				term := ad.SqNormDiff(gn, ad.Const(targets[l][j]))
				if match == nil {
					match = term
				} else {
					match = ad.Add(match, term)
				}
			}
		}
		if match == nil {
			// Everything protected: the objective is flat, the attacker
			// learns nothing.
			return 0, make([]float64, len(flat))
		}
		g := ad.GradValues(match, []*ad.Node{f.Input})[0]
		return ad.Scalar(match), g.Data
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	dummy0 := tensor.Randn(rng, 0.3, x.Shape...)

	var bestX []float64
	var bestF float64
	if cfg.UseAdam {
		bestX, bestF = runAdam(matchObjective, dummy0.Data, cfg.Iterations)
	} else {
		res := opt.LBFGS(matchObjective, dummy0.Data, opt.LBFGSConfig{
			MaxIter: cfg.Iterations, History: 10, GradTol: 1e-10,
		})
		bestX, bestF = res.X, res.F
	}

	rec := tensor.FromSlice(bestX, x.Shape...)
	return DRIAResult{
		Reconstruction: rec,
		ImageLoss:      metrics.ImageLoss(rec, x),
		MatchLoss:      bestF,
	}
}

func runAdam(obj opt.Objective, x0 []float64, iters int) ([]float64, float64) {
	x := tensor.FromSlice(append([]float64(nil), x0...), len(x0))
	a := opt.NewAdam(0.1)
	var f float64
	for i := 0; i < iters; i++ {
		var g []float64
		f, g = obj(x.Data)
		a.Step([]*tensor.Tensor{x}, []*tensor.Tensor{tensor.FromSlice(g, len(g))})
	}
	return x.Data, f
}

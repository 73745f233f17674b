package attack

import (
	"math/rand"

	"github.com/gradsec/gradsec/internal/dataset"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/opt"
	"github.com/gradsec/gradsec/internal/tensor"
)

// DPIAConfig configures the data-property inference experiment.
type DPIAConfig struct {
	// Cycles is the number of FL cycles observed (0 = 120). DPIA is a
	// long-term attack: it aggregates across many cycles (§8).
	Cycles int
	// ItersPerCycle is the local iterations per cycle (0 = 2).
	ItersPerCycle int
	// BatchSize per iteration (0 = 8).
	BatchSize int
	// LR is the victim's learning rate (0 = 0.05).
	LR float64
	// PropFrac is the fraction of property-carrying samples inside a
	// property cycle (0 = 0.5).
	PropFrac float64
	// Seed drives all randomness.
	Seed int64
}

func (cfg DPIAConfig) withDefaults() DPIAConfig {
	if cfg.Cycles == 0 {
		cfg.Cycles = 120
	}
	if cfg.ItersPerCycle == 0 {
		cfg.ItersPerCycle = 2
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 8
	}
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	if cfg.PropFrac == 0 {
		cfg.PropFrac = 0.5
	}
	return cfg
}

// BuildDPIADataset is the data-property inference attack of §3.2 up to
// the attack model: across FL cycles, the malicious client diffs
// consecutive model snapshots to get aggregated gradients and labels each
// cycle by whether the private property was in the victim's batches. It
// runs net, the victim, through cfg.Cycles cycles of plain SGD and returns
// the unprotected per-cycle dataset; Eval with ForestAttack detects the
// property under any schedule, per-cycle ones (dynamic GradSec) included.
// W_end − W_start is what core.SecureTrainer exposes as
// CycleResult.Observable: these rows, masked, are the live trainer's.
func BuildDPIADataset(net *nn.Network, gen *dataset.FaceGenerator, cfg DPIAConfig) *GradDataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	o := opt.NewSGD(cfg.LR, 0)
	d := &GradDataset{Features: NewFeaturizer(net, 54321)}
	for c := 0; c < cfg.Cycles; c++ {
		withProp := rng.Intn(2) == 0
		update := net.StateDict() // the cycle-start snapshot, diffed in place below
		for it := 0; it < cfg.ItersPerCycle; it++ {
			x, y := gen.Batch(rng, cfg.BatchSize, withProp, cfg.PropFrac)
			net.TrainStep(x, y, o)
		}
		// Aggregated gradients: snapshot difference (Flaw 1 at FL-cycle
		// granularity).
		for k, p := range net.FlatParams() {
			update[k] = tensor.Sub(p, update[k])
		}
		d.Rows = append(d.Rows, d.Features.Row(Observe(net, update)))
		d.Labels = append(d.Labels, withProp)
	}
	return d
}

// SelectVMW implements the paper's VMW tuning loop (§8.2): for each
// candidate distribution, evaluate the attack and keep the candidate with
// the *lowest* AUC — the defender picks the distribution that hurts the
// strongest attack most.
func SelectVMW(candidates [][]float64, eval func(vmw []float64) float64) (best []float64, bestAUC float64) {
	bestAUC = 2
	for _, vmw := range candidates {
		if auc := eval(vmw); auc < bestAUC {
			bestAUC = auc
			best = vmw
		}
	}
	return best, bestAUC
}

package repro

import (
	"fmt"
	"math/rand"

	"github.com/gradsec/gradsec/internal/attack"
	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
)

// config is one protection configuration the paper names, declared once:
// the plan that realises it and the numbers the paper publishes for it.
type config struct {
	plan  *core.Plan // nil: no protection
	paper published
}

// published is Table 6's seconds per FL cycle and TEE megabytes, and the
// AUC of Figure 6 (MIA) and Table 5 (DPIA) where the paper reports one.
type published struct {
	user, kernel, alloc, mem float64
	mia, dpia                string
}

// row is a configuration under one artefact's label for it (the paper
// words the same set "L2 (vs DRIA)" and "A/B L2"; the bytes are pinned).
type row struct {
	label string
	*config
}

// The plan table, over LeNet-5's five layers (0-based; docs/EVALUATION.md
// lists the paper row each entry reproduces).
var (
	none = &config{paper: published{2.191, 0.021, 0, 0, "0.95", "0.99"}}
	l1   = static(published{1.886, 0.738, 0.09, 1.127, "", ""}, 0)
	l2   = static(published{1.672, 0.652, 0.34, 0.565, "", ""}, 1) // the DRIA defence
	l3   = static(published{1.696, 0.674, 0.34, 0.286, "", ""}, 2)
	l4   = static(published{1.691, 0.673, 0.34, 0.286, "", "0.99"}, 3)
	l5   = static(published{2.044, 0.187, 4.68, 0.704, "0.85", ""}, 4) // the MIA defence
	// GradSec's grouped, non-successive defence against DRIA+MIA.
	l2l5 = static(published{1.561, 0.846, 5.02, 1.269, "", ""}, 1, 4)
	// The four positions of a size-2 moving window.
	l1l2 = static(published{1.323, 1.331, 0.43, 1.692, "", ""}, 0, 1)
	l2l3 = static(published{1.139, 1.275, 0.68, 0.851, "", ""}, 1, 2)
	l3l4 = static(published{1.134, 1.269, 0.68, 0.572, "", "0.99"}, 2, 3)
	l4l5 = static(published{1.507, 0.808, 5.02, 0.99, "0.84", ""}, 3, 4)
	// Growing tails, up to the contiguous slice DarkneTZ needs for L2 and L5.
	l3l4l5   = static(published{mia: "0.82", dpia: "0.95"}, 2, 3, 4)
	darknetz = &config{must(core.NewDarkneTZPlan(1, 4)), published{mia: "0.80", dpia: "0.85"}}
	all      = static(published{mia: "-"}, 0, 1, 2, 3, 4)
	// Dynamic GradSec, with the V_MW the paper reports per window size.
	mw2 = dynamic(published{1.21, 1.236, 1.064, 1.692, "", "0.78"}, 2, 0.2, 0.1, 0.6, 0.1) // the DPIA defence
	mw3 = dynamic(published{0.964, 1.517, 4.467, 1.978, "", "0.77"}, 3, 0.1, 0.1, 0.8)
	mw4 = dynamic(published{0.904, 1.553, 5.241, 2.264, "", "0.80"}, 4, 0.1, 0.9)

	// Figure 6b's parts of the eight-layer AlexNet.
	alexNone  = &config{paper: published{mia: "0.85"}}
	alexConv  = static(published{mia: "0.79"}, 0, 1, 2, 3, 4)
	alexDense = static(published{mia: "0.59"}, 5, 6, 7)
	alexL6    = static(published{mia: "0.56"}, 5)
	alexAll   = static(published{mia: "-"}, 0, 1, 2, 3, 4, 5, 6, 7)
)

func static(paper published, layers ...int) *config {
	return &config{must(core.NewStaticPlan(layers...)), paper}
}

func dynamic(paper published, sizeMW int, vmw ...float64) *config {
	return &config{must(core.NewDynamicPlan(sizeMW, vmw)), paper}
}

// must unwraps a result whose error only a wrong literal in this package
// can cause.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// evaluator is the one function from a plan to the numbers the paper
// reports for it: what it costs on the device (core.OverheadSim) and what
// it still leaks to each attack, against a victim built once per artefact.
// An artefact sets only the fields its columns read.
type evaluator struct {
	sim *core.OverheadSim

	net     *nn.Network         // the attacked model
	samples []sample            // DRIA: the batches whose gradients leaked
	dria    attack.DRIAConfig   // and the optimiser the attacker runs on them
	grads   *attack.GradDataset // MIA or DPIA: the unprotected victim's D_grad
	fit     attack.FitFunc      // and the attack model trained on it
}

type sample struct{ x, y *tensor.Tensor }

// lenet5 prices plans over the full LeNet-5 of Table 4 on the Pi-3B+.
func lenet5() *evaluator {
	return &evaluator{sim: core.NewOverheadSim(nn.NewLeNet5(rand.New(rand.NewSource(1)), nn.ActReLU))}
}

// cost is one FL cycle's simulated time: of the protected set for a
// static plan, the VMW-weighted average over window positions for a
// dynamic one (Table 6's AVG rows).
func (e *evaluator) cost(p *core.Plan) simclock.Breakdown {
	if p != nil && p.Mode == core.ModeDynamic {
		return must(e.sim.Dynamic(p)).Average
	}
	return e.sim.CycleCost(p.ProtectedLayers(0, e.sim.Net.NumLayers()))
}

// memory is the secure-memory bytes the plan needs: the worst window
// position for a dynamic one (the paper's "TEE Memory Usage").
func (e *evaluator) memory(p *core.Plan) int {
	if p != nil && p.Mode == core.ModeDynamic {
		return must(e.sim.Dynamic(p)).MaxMemory
	}
	return e.sim.TEEMemory(p.ProtectedLayers(0, e.sim.Net.NumLayers()))
}

// The columns an artefact selects from: the paper's numbers for a row, and
// the evaluator's.
func paperTotal(r row) string { return sec(r.paper.user + r.paper.kernel + r.paper.alloc) }
func paperMem(r row) string   { return fmt.Sprintf("%.3fMB", r.paper.mem) }
func paperMIA(r row) string   { return r.paper.mia }
func paperDPIA(r row) string  { return r.paper.dpia }

func (e *evaluator) total(r row) string  { return sec(e.cost(r.plan).Total().Seconds()) }
func (e *evaluator) user(r row) string   { return sec(e.cost(r.plan).User.Seconds()) }
func (e *evaluator) kernel(r row) string { return sec(e.cost(r.plan).Kernel.Seconds()) }
func (e *evaluator) alloc(r row) string  { return sec(e.cost(r.plan).Alloc.Seconds()) }
func (e *evaluator) mem(r row) string    { return mb(e.memory(r.plan)) }

// gainTime and gainMem are what a configuration saves over the DarkneTZ
// slice, in percent: Figure 8's bars and Table 1's last two rows.
func (e *evaluator) gainTime(r row) string {
	return gain(r, e.cost(r.plan).Total().Seconds(), e.cost(darknetz.plan).Total().Seconds())
}

func (e *evaluator) gainMem(r row) string {
	return gain(r, float64(e.memory(r.plan)), float64(e.memory(darknetz.plan)))
}

func gain(r row, ours, baseline float64) string {
	if r.config == darknetz {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", (1-ours/baseline)*100)
}

// imageLoss is DRIA's reconstruction error on sample i when the attacker
// observes the sample's gradients less the row's layers (Figure 5).
func (e *evaluator) imageLoss(i int) func(row) string {
	return func(r row) string {
		s := e.samples[i]
		_, grads := e.net.Gradients(s.x, s.y)
		seen := attack.Observation(grads).Mask(r.plan.ProtectedLayers(0, e.net.NumLayers()))
		return f3(attack.DRIA(e.net, s.x, s.y, seen, e.dria).ImageLoss)
	}
}

// auc is the attack model's held-out AUC with every sample or FL cycle
// of the gradient dataset observed under the plan (Figure 6, Table 5).
func (e *evaluator) auc(p *core.Plan, seed int64) float64 {
	n := e.net.NumLayers()
	return e.grads.Eval(func(cycle int) []int { return p.ProtectedLayers(cycle, n) }, e.fit, seed)
}

func (e *evaluator) aucAt(seed int64) func(row) string {
	return func(r row) string { return f3(e.auc(r.plan, seed)) }
}

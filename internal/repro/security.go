package repro

import (
	"fmt"
	"math/rand"

	"github.com/gradsec/gradsec/internal/attack"
	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/dataset"
	"github.com/gradsec/gradsec/internal/nn"
)

// SecurityScale tunes the security experiments' cost. Benchmarks may
// lower it; the defaults finish in a couple of minutes on a laptop core.
type SecurityScale struct {
	DRIAIters  int
	MIASamples int
	DPIACycles int
}

// DefaultScale is used by the CLI and benchmarks.
var DefaultScale = SecurityScale{DRIAIters: 120, MIASamples: 72, DPIACycles: 140}

// miaGen builds the CIFAR-100-like corpus at mini scale: ten classes of
// c-channel size×size images.
func miaGen(seed int64, c, size int) *dataset.Generator {
	g := dataset.NewGenerator(rand.New(rand.NewSource(seed)), 10, c, size, size, 1.0)
	g.ScaleJitter = 0.5
	g.Diversity = 0.5
	return g
}

// driaSweep fills a Figure 5 table: DRIA's ImageLoss on each sample with
// nothing protected, then with each single layer of net protected.
func driaSweep(t *Table, net *nn.Network, cfg attack.DRIAConfig, samples ...sample) *Table {
	e := &evaluator{net: net, dria: cfg, samples: samples}
	rows := []row{{"None", none}}
	for l := 0; l < net.NumLayers(); l++ {
		rows = append(rows, row{fmt.Sprintf("L%d", l+1), static(published{}, l)})
	}
	cols := make([]func(row) string, len(samples))
	for i := range samples {
		cols[i] = e.imageLoss(i)
	}
	return t.view(rows, cols...)
}

// Figure5a reproduces the DRIA sweep on LeNet-5(-mini): ImageLoss of the
// reconstruction for no protection and for each single protected layer,
// for two different images ("person" ≈ a face sample, "table" ≈ a
// procedural object image), as in the paper's Figure 5a.
func Figure5a() *Table {
	t := &Table{
		ID:     "fig5a",
		Title:  "DRIA ImageLoss vs protected layer (LeNet-5-mini, sigmoid, L-BFGS)",
		Header: []string{"Protected", "ImageLoss(person)", "ImageLoss(table)"},
		Notes: []string{
			"paper shape: unprotected ⇒ ImageLoss < 1 (reconstruction succeeds);",
			"protecting an early conv layer (esp. L2) ⇒ loss explodes (attack fails)",
		},
	}
	net := nn.NewLeNet5Mini(rand.New(rand.NewSource(3)), nn.ActSigmoid)
	faces := dataset.NewFaceGenerator(rand.New(rand.NewSource(4)), 10, 1, 16, 16, 0.02)
	things := dataset.NewGenerator(rand.New(rand.NewSource(5)), 10, 1, 16, 16, 0.02)
	person := faces.Sample(rand.New(rand.NewSource(6)), 0, false).Reshape(1, 1, 16, 16)
	table := things.Sample(rand.New(rand.NewSource(7)), 3).Reshape(1, 1, 16, 16)
	return driaSweep(t, net, attack.DRIAConfig{Iterations: DefaultScale.DRIAIters, Seed: 8},
		sample{person, dataset.OneHot([]int{0}, 10)}, sample{table, dataset.OneHot([]int{3}, 10)})
}

// Figure5b reproduces the DRIA sweep on AlexNet(-S): the paper could not
// obtain a clear reconstruction even unprotected (max-pooling destroys
// gradient invertibility), and protection makes it strictly worse.
func Figure5b() *Table {
	t := &Table{
		ID:     "fig5b",
		Title:  "DRIA ImageLoss vs protected layer (AlexNet-S, Adam)",
		Header: []string{"Protected", "ImageLoss"},
		Notes: []string{
			"paper: no clear image even unprotected; protection (esp. L1/L2) makes DRIA worse",
			// The substitution is documented in docs/EVALUATION.md; the
			// note's bytes are pinned by the golden artefact hashes.
			"AlexNet-S is the channel-scaled Table-4 architecture (DESIGN.md substitution)",
		},
	}
	net := nn.NewAlexNetS(rand.New(rand.NewSource(9)), 32, nn.ActSigmoid)
	things := dataset.NewGenerator(rand.New(rand.NewSource(10)), 10, 3, 32, 32, 0.02)
	x := things.Sample(rand.New(rand.NewSource(11)), 2).Reshape(1, 3, 32, 32)
	cfg := attack.DRIAConfig{Iterations: DefaultScale.DRIAIters / 2, UseAdam: true, Seed: 12}
	return driaSweep(t, net, cfg, sample{x, dataset.OneHot([]int{2}, 100)})
}

// Figure6a reproduces the MIA sweep on LeNet-5(-mini): AUC with
// none/L5/L5+L4/…/L5..L2 protected, as in the paper's Figure 6a.
func Figure6a() *Table {
	t := &Table{
		ID:     "fig6a",
		Title:  "MIA AUC vs protected tail layers (LeNet-5-mini)",
		Header: []string{"Protected", "paper AUC", "measured AUC"},
		Notes: []string{
			"shape: unprotected high; protection never helps the attacker; full protection ⇒ 0.5",
			"intermediate decline is flatter than the paper's at mini scale (EXPERIMENTS.md)",
		},
	}
	net := nn.NewLeNet5Mini(rand.New(rand.NewSource(13)), nn.ActReLU)
	d, _ := attack.BuildMIADataset(net, miaGen(14, 1, 16), attack.MIAConfig{
		VictimSteps: 600, MembersPerClass: 2, VictimLR: 0.03,
		AttackSamples: DefaultScale.MIASamples, Seed: 15,
	})
	e := &evaluator{net: net, grads: d, fit: attack.LogisticAttack}
	return t.view([]row{
		{"None", none}, {"L5", l5}, {"L5+L4", l4l5}, {"L5+L4+L3", l3l4l5}, {"L5+L4+L3+L2", darknetz},
		{"all layers", all},
	}, paperMIA, e.aucAt(16))
}

// Figure6b reproduces the MIA sweep on AlexNet(-S): none / convolutional
// part / dense part / L6 protected.
func Figure6b() *Table {
	t := &Table{
		ID:     "fig6b",
		Title:  "MIA AUC vs protected parts (AlexNet-S)",
		Header: []string{"Protected", "paper AUC", "measured AUC"},
	}
	// 8-layer AlexNet-mini: the Table-4 depth and layer structure with a
	// 10-class head (full 100-class CIFAR training is out of budget; the
	// conv/dense split the experiment varies is preserved).
	arng := rand.New(rand.NewSource(17))
	net := &nn.Network{
		Label: "AlexNet-mini",
		Layers: []nn.Layer{
			nn.NewConv2D(arng, 3, 32, 32, 4, 3, 2, 1, 2, nn.ActReLU),
			nn.NewConv2D(arng, 4, 8, 8, 6, 3, 1, 1, 2, nn.ActReLU),
			nn.NewConv2D(arng, 6, 4, 4, 12, 3, 1, 1, 0, nn.ActReLU),
			nn.NewConv2D(arng, 12, 4, 4, 8, 3, 1, 1, 0, nn.ActReLU),
			nn.NewConv2D(arng, 8, 4, 4, 8, 3, 1, 1, 2, nn.ActReLU),
			nn.NewDense(arng, 32, 128, nn.ActReLU),
			nn.NewDense(arng, 128, 128, nn.ActReLU),
			nn.NewDense(arng, 128, 10, nn.ActNone),
		},
	}
	d, _ := attack.BuildMIADataset(net, miaGen(18, 3, 32), attack.MIAConfig{
		VictimSteps: 600, MembersPerClass: 2, VictimLR: 0.03,
		AttackSamples: DefaultScale.MIASamples / 2, Seed: 19,
	})
	e := &evaluator{net: net, grads: d, fit: attack.LogisticAttack}
	return t.view([]row{
		{"None", alexNone}, {"convolutional (L1..L5)", alexConv}, {"dense (L6+L7+L8)", alexDense},
		{"L6", alexL6}, {"all layers", alexAll},
	}, paperMIA, e.aucAt(20))
}

// table5Victim is the DPIA victim, its corpus and its per-cycle training:
// a 5-layer LeNet-5-mini with a binary head — the DPIA main task is a
// 2-class face problem (as LFW attribute tasks are), keeping the property
// signal from being diluted across many classes.
func table5Victim(cycles int) (*nn.Network, *dataset.FaceGenerator, attack.DPIAConfig) {
	zrng := rand.New(rand.NewSource(21))
	net := &nn.Network{
		Label: "LeNet-5-mini-2c",
		Layers: []nn.Layer{
			nn.NewConv2D(zrng, 1, 16, 16, 6, 5, 2, 2, 0, nn.ActReLU),
			nn.NewConv2D(zrng, 6, 8, 8, 6, 5, 2, 2, 0, nn.ActReLU),
			nn.NewConv2D(zrng, 6, 4, 4, 6, 5, 1, 2, 0, nn.ActReLU),
			nn.NewConv2D(zrng, 6, 4, 4, 6, 5, 1, 2, 0, nn.ActReLU),
			nn.NewDense(zrng, 96, 2, nn.ActNone),
		},
	}
	faces := dataset.NewFaceGenerator(rand.New(rand.NewSource(22)), 2, 1, 16, 16, 0.05)
	return net, faces, attack.DPIAConfig{Cycles: cycles, ItersPerCycle: 2, BatchSize: 12, LR: 0.05, PropFrac: 0.5, Seed: 23}
}

// Table5 reproduces the DPIA results: static protection is ineffective
// (AUC stays high until most layers are shielded) while dynamic GradSec
// reaches a lower AUC with only sizeMW layers resident.
func Table5() *Table {
	t := &Table{
		ID:     "table5",
		Title:  "AUC of DPIA under GradSec (LeNet-5-mini, LFW-like, random forest)",
		Header: []string{"Configuration", "paper AUC", "measured AUC"},
	}
	net, faces, cfg := table5Victim(DefaultScale.DPIACycles)
	e := &evaluator{net: net, grads: attack.BuildDPIADataset(net, faces, cfg), fit: attack.ForestAttack(24)}
	t.view([]row{
		{"None", none}, {"static L4", l4}, {"static L3+L4", l3l4}, {"static L3+L4+L5", l3l4l5},
		{"static L2+L3+L4+L5", darknetz},
	}, paperDPIA, e.aucAt(25))
	t.view([]row{
		{"dynamic MW=2 VMW=[.2 .1 .6 .1]", mw2}, {"dynamic MW=3 VMW=[.1 .1 .8]", mw3},
		{"dynamic MW=4 VMW=[.1 .9]", mw4},
	}, paperDPIA, e.aucAt(26))

	// The paper's VMW selection loop (§8.2): pick the distribution that
	// minimises validation AUC for MW=2.
	candidates := [][]float64{
		{0.25, 0.25, 0.25, 0.25},
		mw2.plan.VMW,
		{0.4, 0.1, 0.4, 0.1},
		{0.1, 0.4, 0.4, 0.1},
		{0.5, 0, 0.5, 0},
	}
	best, bestAUC := attack.SelectVMW(candidates, func(vmw []float64) float64 {
		return e.auc(must(core.NewDynamicPlan(2, vmw)), 27)
	})
	t.Notes = append(t.Notes, fmt.Sprintf("VMW search (MW=2): best %v at AUC %.3f", best, bestAUC))
	return t
}

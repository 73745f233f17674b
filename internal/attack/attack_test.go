package attack

import (
	"math"
	"math/rand"
	"testing"

	"github.com/gradsec/gradsec/internal/dataset"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/tensor"
)

func TestLayerFeaturesKnown(t *testing.T) {
	g := tensor.FromSlice([]float64{3, -4}, 2)
	f := LayerFeatures([]*tensor.Tensor{g})
	if f[0] != 5 { // L2 norm
		t.Fatalf("norm = %v", f[0])
	}
	if f[1] != 3.5 { // mean |g|
		t.Fatalf("mean = %v", f[1])
	}
	if f[2] != 4 { // max |g|
		t.Fatalf("max = %v", f[2])
	}
	if math.Abs(f[3]-0.5) > 1e-12 { // std of |g|
		t.Fatalf("std = %v", f[3])
	}
}

func TestLayerFeaturesEmpty(t *testing.T) {
	f := LayerFeatures(nil)
	for _, v := range f {
		if v != 0 {
			t.Fatalf("empty features = %v", f)
		}
	}
}

// A shielded (nil) layer becomes a NaN block, every other block is the
// same bits with or without its neighbour shielded — on the raw tensors
// (Observation.Mask) and after the fact (GradDataset.Masked) alike.
func TestFeaturizerRowNilLayer(t *testing.T) {
	net := nn.NewTinyConvNet(rand.New(rand.NewSource(1)), 1, 8, 8, 4, nn.ActReLU)
	x := tensor.Randn(rand.New(rand.NewSource(2)), 1, 1, 1, 8, 8)
	_, grads := net.Gradients(x, dataset.OneHot([]int{0}, 4))
	fz := NewFeaturizer(net, 3)
	open := fz.Row(grads)
	if len(open) != net.NumLayers()*fz.PerLayer {
		t.Fatalf("row length = %d", len(open))
	}
	masked := fz.Row(Observation(grads).Mask([]int{1}))
	deleted := (&GradDataset{Rows: [][]float64{open}, Features: fz}).Masked(Static(1))[0]
	flat := net.StateDict()
	flat[len(net.Layers[0].Params())] = nil // one withheld tensor shields its whole layer
	if obs := Observe(net, flat); obs[0] == nil || obs[1] != nil || obs[2] == nil {
		t.Fatalf("Observe shielded layers %v %v %v, want layer 1 alone", obs[0] == nil, obs[1] == nil, obs[2] == nil)
	}
	for k, v := range masked {
		shielded := k/fz.PerLayer == 1
		if math.IsNaN(v) != shielded || math.IsNaN(open[k]) {
			t.Fatalf("feature %d: open %v masked %v (shielded=%v)", k, open[k], v, shielded)
		}
		if !shielded && math.Float64bits(v) != math.Float64bits(open[k]) {
			t.Fatalf("feature %d moved under masking: %v != %v", k, v, open[k])
		}
		if math.Float64bits(v) != math.Float64bits(deleted[k]) {
			t.Fatalf("feature %d: Mask-then-Row %v != Row-then-Masked %v", k, v, deleted[k])
		}
	}
}

// DRIA on a tiny sigmoid network: with no protection the reconstruction
// must be far better than with the first conv layer protected — the
// paper's central DRIA finding.
func TestDRIAProtectionDegradesReconstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("DRIA optimisation is slow in -short mode")
	}
	rng := rand.New(rand.NewSource(1))
	net := nn.NewTinyConvNet(rng, 1, 8, 8, 4, nn.ActSigmoid)
	gen := dataset.NewGenerator(rand.New(rand.NewSource(2)), 4, 1, 8, 8, 0.02)
	x := gen.Sample(rand.New(rand.NewSource(3)), 0).Reshape(1, 1, 8, 8)
	y := dataset.OneHot([]int{0}, 4)

	cfg := DRIAConfig{Iterations: 120, Seed: 42}
	_, grads := net.Gradients(x, y)
	open := DRIA(net, x, y, grads, cfg)
	protectedEarly := DRIA(net, x, y, Observation(grads).Mask([]int{0, 1}), cfg)

	if open.ImageLoss >= protectedEarly.ImageLoss {
		t.Fatalf("protection must hurt reconstruction: open %.3f vs protected %.3f",
			open.ImageLoss, protectedEarly.ImageLoss)
	}
	// Unprotected reconstruction should be decent on a tiny model.
	if open.ImageLoss > 0.5*protectedEarly.ImageLoss {
		t.Logf("open %.3f, protected %.3f (ratio %.2f)", open.ImageLoss, protectedEarly.ImageLoss,
			open.ImageLoss/protectedEarly.ImageLoss)
	}
}

func TestDRIAAllProtectedIsBlind(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := nn.NewTinyMLP(rng, 8, 6, 3, nn.ActSigmoid)
	x := tensor.Randn(rng, 1, 1, 8)
	y := dataset.OneHot([]int{1}, 3)
	_, grads := net.Gradients(x, y)
	res := DRIA(net, x, y, Observation(grads).Mask([]int{0, 1}), DRIAConfig{Iterations: 5, Seed: 1})
	if res.MatchLoss != 0 {
		t.Fatalf("fully protected match loss = %v, want 0 (flat objective)", res.MatchLoss)
	}
}

func TestDRIAAdamPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := nn.NewTinyMLP(rng, 6, 5, 2, nn.ActSigmoid)
	x := tensor.Randn(rng, 1, 1, 6)
	y := dataset.OneHot([]int{0}, 2)
	_, grads := net.Gradients(x, y)
	res := DRIA(net, x, y, grads, DRIAConfig{Iterations: 30, UseAdam: true, Seed: 2})
	if res.Reconstruction == nil || math.IsNaN(res.MatchLoss) {
		t.Fatal("Adam DRIA produced invalid result")
	}
}

// MIA on an overfit tiny model: unprotected AUC must be well above
// chance; protection must never help the attacker, and protecting every
// layer must reduce the attack to a random guess (all columns deleted →
// imputed constants). Intermediate configurations decline much more
// gently — at this scale summary features are layer-redundant, a
// documented deviation from Figure 6's intermediate points
// (EXPERIMENTS.md).
func TestMIAProtectionEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("MIA victim training is slow in -short mode")
	}
	gen := dataset.NewGenerator(rand.New(rand.NewSource(10)), 4, 1, 8, 8, 1.2)
	net := nn.NewTinyConvNet(rand.New(rand.NewSource(12)), 1, 8, 8, 4, nn.ActReLU)
	d, trainAcc := BuildMIADataset(net, gen, MIAConfig{VictimSteps: 500, AttackSamples: 48, Seed: 11})
	if trainAcc < 0.9 {
		t.Fatalf("victim not overfit: train acc %.2f", trainAcc)
	}

	open := d.Eval(Static(), LogisticAttack, 12)
	if open < 0.7 {
		t.Fatalf("unprotected MIA AUC = %.3f, want ≥0.7", open)
	}
	if tail := d.Eval(Static(2), LogisticAttack, 12); tail > open+0.05 {
		t.Fatalf("protection must not help the attacker: open %.3f vs tail %.3f", open, tail)
	}
	if all := d.Eval(Static(0, 1, 2), LogisticAttack, 12); math.Abs(all-0.5) > 0.15 {
		t.Fatalf("full protection must reduce MIA to chance: AUC %.3f", all)
	}
}

// DPIA: unprotected AUC must be high; a dynamic schedule must reduce it.
func TestDPIADynamicProtectionReducesAUC(t *testing.T) {
	if testing.Short() {
		t.Skip("DPIA cycle training is slow in -short mode")
	}
	net := nn.NewTinyConvNet(rand.New(rand.NewSource(20)), 1, 8, 8, 2, nn.ActReLU)
	gen := dataset.NewFaceGenerator(rand.New(rand.NewSource(21)), 2, 1, 8, 8, 0.05)
	d := BuildDPIADataset(net, gen, DPIAConfig{Cycles: 80, ItersPerCycle: 1, BatchSize: 6, Seed: 22})

	open := d.Eval(Static(), ForestAttack(23), 24)
	if open < 0.8 {
		t.Fatalf("unprotected DPIA AUC = %.3f, want ≥0.8", open)
	}
	// Dynamic window cycling over all 3 layers (size 2 → 2 positions).
	sched := func(c int) []int {
		if c%2 == 0 {
			return []int{0, 1}
		}
		return []int{1, 2}
	}
	if dyn := d.Eval(sched, ForestAttack(23), 24); dyn >= open {
		t.Fatalf("dynamic protection must reduce AUC: open %.3f vs dynamic %.3f", open, dyn)
	}
}

func TestSelectVMW(t *testing.T) {
	cands := [][]float64{{1, 0}, {0.5, 0.5}, {0, 1}}
	best, auc := SelectVMW(cands, func(v []float64) float64 {
		return v[0] // pretend AUC equals first component
	})
	if auc != 0 || best[0] != 0 {
		t.Fatalf("SelectVMW = %v, %v", best, auc)
	}
}

// Attack demo: runs the data-reconstruction inference attack (DRIA /
// deep leakage from gradients) against an unprotected model and against
// static GradSec protecting the early conv layers, printing the
// ImageLoss achieved by the attacker in each setting (paper Figure 5).
// It exits non-zero unless the attack succeeds unprotected (ImageLoss < 1)
// and is defeated by protecting L2 (ImageLoss > 1).
package main

import (
	"fmt"
	"math/rand"
	"os"

	"github.com/gradsec/gradsec/internal/attack"
	"github.com/gradsec/gradsec/internal/dataset"
	"github.com/gradsec/gradsec/internal/nn"
)

func main() {
	net := nn.NewLeNet5Mini(rand.New(rand.NewSource(3)), nn.ActSigmoid)
	faces := dataset.NewFaceGenerator(rand.New(rand.NewSource(4)), 10, 1, 16, 16, 0.02)
	x := faces.Sample(rand.New(rand.NewSource(6)), 0, false).Reshape(1, 1, 16, 16)
	y := dataset.OneHot([]int{0}, 10)
	// What the honest-but-curious client sees of one training step: every
	// layer's gradient, less the layers GradSec keeps in the TEE.
	_, grads := net.Gradients(x, y)
	leak := attack.Observation(grads)

	cfg := attack.DRIAConfig{Iterations: 120, Seed: 8}
	fmt.Println("DRIA (gradient matching with analytic second-order gradients):")
	ok := true
	for _, c := range []struct {
		label    string
		prot     []int
		defeated bool
	}{
		{"no protection", nil, false},
		{"GradSec static L2", []int{1}, true},
		{"GradSec static L1+L2", []int{0, 1}, true},
	} {
		res := attack.DRIA(net, x, y, leak.Mask(c.prot), cfg)
		verdict := "RECONSTRUCTED"
		if res.ImageLoss > 1 {
			verdict = "attack defeated"
		}
		fmt.Printf("  %-22s ImageLoss %.3f  (%s)\n", c.label, res.ImageLoss, verdict)
		ok = ok && (res.ImageLoss > 1) == c.defeated && res.ImageLoss != 1
	}
	if !ok {
		fmt.Println("FAIL: want ImageLoss < 1 unprotected and > 1 with L2 in the TEE")
		os.Exit(1)
	}
}

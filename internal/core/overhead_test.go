package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/gradsec/gradsec/internal/nn"
)

func lenet(t testing.TB) *nn.Network {
	t.Helper()
	return nn.NewLeNet5(rand.New(rand.NewSource(1)), nn.ActReLU)
}

func TestLayerMACsLeNet(t *testing.T) {
	net := lenet(t)
	// L1–L4 each: out(16·16 or 8·8)·filters·C·5·5 = 230400; L5: 768·100.
	want := []int64{230400, 230400, 230400, 230400, 76800}
	for i, layer := range net.Layers {
		if got := LayerMACs(layer); got != want[i] {
			t.Errorf("L%d MACs = %d, want %d", i+1, got, want[i])
		}
	}
}

// Table 6's per-layer TEE memory (MB): L1 1.127, L2 0.565, L3/L4 0.286,
// L5 0.704. Our analytic model must land within ~15% of each.
func TestTEEMemoryMatchesTable6(t *testing.T) {
	net := lenet(t)
	sim := NewOverheadSim(net)
	paperMB := []float64{1.127, 0.565, 0.286, 0.286, 0.704}
	for i := range net.Layers {
		gotMB := float64(sim.TEEMemory([]int{i})) / 1e6
		if rel := math.Abs(gotMB-paperMB[i]) / paperMB[i]; rel > 0.15 {
			t.Errorf("L%d TEE memory = %.3f MB, paper %.3f MB (rel err %.0f%%)", i+1, gotMB, paperMB[i], rel*100)
		}
	}
	// Combined configurations are sums (as in the paper): L2+L5 = 1.269.
	combined := float64(sim.TEEMemory([]int{1, 4})) / 1e6
	if math.Abs(combined-1.269)/1.269 > 0.15 {
		t.Errorf("L2+L5 memory = %.3f MB, paper 1.269 MB", combined)
	}
}

// Table 6's training-time rows (user+kernel+alloc seconds). The cost
// model is calibrated, so the totals must track the paper within
// tolerance (docs/COSTMODEL.md documents the known L1 deviation).
func TestCycleCostMatchesTable6(t *testing.T) {
	net := lenet(t)
	sim := NewOverheadSim(net)

	baseline := sim.CycleCost(nil)
	if math.Abs(baseline.User.Seconds()-2.191) > 0.15 {
		t.Errorf("baseline user = %.3fs, paper 2.191s", baseline.User.Seconds())
	}
	if math.Abs(baseline.Kernel.Seconds()-0.021) > 0.01 {
		t.Errorf("baseline kernel = %.3fs, paper 0.021s", baseline.Kernel.Seconds())
	}

	cases := []struct {
		name      string
		protected []int
		wantTotal float64 // paper user+kernel+alloc
		tol       float64
	}{
		{"L2", []int{1}, 1.672 + 0.652 + 0.34, 0.35},
		{"L3", []int{2}, 1.696 + 0.674 + 0.34, 0.35},
		{"L5", []int{4}, 2.044 + 0.187 + 4.68, 0.55},
		{"L2+L5 grouped", []int{1, 4}, 1.561 + 0.846 + 5.02, 0.75},
		{"MW L1+L2", []int{0, 1}, 1.323 + 1.331 + 0.43, 0.55},
		{"DarkneTZ L2..L5", []int{1, 2, 3, 4}, 0.985 + 1.420 + 5.7, 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := sim.CycleCost(tc.protected).Total().Seconds()
			if math.Abs(got-tc.wantTotal) > tc.tol {
				t.Errorf("total = %.3fs, paper %.3fs (±%.2f)", got, tc.wantTotal, tc.tol)
			}
		})
	}
}

// The headline Table 1 claims: static GradSec (L2+L5) beats DarkneTZ
// (L2..L5) on both time and memory; dynamic GradSec (MW=2, best VMW)
// saves ≈56% training time.
func TestGradSecBeatsDarkneTZ(t *testing.T) {
	net := lenet(t)
	sim := NewOverheadSim(net)

	gradsec := sim.CycleCost([]int{1, 4}).Total()
	darknetz := sim.CycleCost([]int{1, 2, 3, 4}).Total()
	if gradsec >= darknetz {
		t.Fatalf("static GradSec %.3fs must beat DarkneTZ %.3fs", gradsec.Seconds(), darknetz.Seconds())
	}
	timeGain := 1 - gradsec.Seconds()/darknetz.Seconds()
	if timeGain < 0.05 || timeGain > 0.25 {
		t.Errorf("grouped-protection time gain = %.1f%%, paper ≈8.3%%", timeGain*100)
	}

	memGain := 1 - float64(sim.TEEMemory([]int{1, 4}))/float64(sim.TEEMemory([]int{1, 2, 3, 4}))
	if math.Abs(memGain-0.30) > 0.1 {
		t.Errorf("memory gain = %.1f%%, paper ≈30%%", memGain*100)
	}

	plan := mustDynamic(t, 2, []float64{0.2, 0.1, 0.6, 0.1})
	dyn, err := sim.Dynamic(plan)
	if err != nil {
		t.Fatal(err)
	}
	dynGain := 1 - dyn.Average.Total().Seconds()/darknetz.Seconds()
	if math.Abs(dynGain-0.567) > 0.12 {
		t.Errorf("dynamic time gain = %.1f%%, paper ≈56.7%%", dynGain*100)
	}
	dynMemGain := 1 - float64(dyn.MaxMemory)/float64(sim.TEEMemory([]int{1, 2, 3, 4}))
	if math.Abs(dynMemGain-0.08) > 0.08 {
		t.Errorf("dynamic memory gain = %.1f%%, paper ≈8%%", dynMemGain*100)
	}
}

func TestDynamicAverageIsWeighted(t *testing.T) {
	net := lenet(t)
	sim := NewOverheadSim(net)
	plan := mustDynamic(t, 2, []float64{1, 0, 0, 0})
	dyn, err := sim.Dynamic(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Degenerate VMW: average equals the single position's cost.
	single := sim.CycleCost([]int{0, 1})
	if dyn.Average.Total() != single.Total() {
		t.Fatalf("degenerate average %.3fs != position cost %.3fs", dyn.Average.Total().Seconds(), single.Total().Seconds())
	}
	if dyn.MaxMemory != sim.TEEMemory([]int{0, 1}) {
		t.Fatal("max memory mismatch")
	}
}

func TestDynamicRejectsWrongMode(t *testing.T) {
	net := lenet(t)
	sim := NewOverheadSim(net)
	if _, err := sim.Dynamic(mustStatic(t, 1)); err == nil {
		t.Fatal("Dynamic on static plan must fail")
	}
	bad := mustDynamic(t, 2, []float64{0.5, 0.5}) // wrong length for 5 layers
	if _, err := sim.Dynamic(bad); err == nil {
		t.Fatal("invalid VMW length must fail")
	}
}

// Non-successive sets pay more world switches than their contiguous hull.
func TestScatteredProtectionCostsMoreSMC(t *testing.T) {
	net := lenet(t)
	sim := NewOverheadSim(net)
	scattered := sim.CycleCost([]int{0, 2, 4})
	// Compare SMC overhead indirectly: same layers protected but
	// contiguous (hypothetical) — compute kernel difference.
	contiguous := sim.CycleCost([]int{0, 1, 2})
	_ = contiguous
	runsScattered := len(contiguousRuns([]int{0, 2, 4}))
	runsContig := len(contiguousRuns([]int{0, 1, 2}))
	if runsScattered != 3 || runsContig != 1 {
		t.Fatalf("runs = %d/%d", runsScattered, runsContig)
	}
	if scattered.Kernel <= 0 {
		t.Fatal("scattered kernel time must be positive")
	}
}

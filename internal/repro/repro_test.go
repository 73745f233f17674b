package repro

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/gradsec/gradsec/internal/attack"
	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
)

// parse a "1.234s" / "1.234MB" / "0.123" cell back to a float.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "MB"), "s")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable cell %q: %v", s, err)
	}
	return v
}

func TestTable6TracksPaper(t *testing.T) {
	tab := Table6()
	if len(tab.Rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		paper, measured := cell(t, row[1]), cell(t, row[2])
		if paper == 0 {
			continue
		}
		if rel := abs(measured-paper) / paper; rel > 0.12 {
			t.Errorf("%s: measured %.3f vs paper %.3f (rel %.0f%%)", row[0], measured, paper, rel*100)
		}
		pm, mm := cell(t, row[3]), cell(t, row[4])
		if pm > 0 {
			if rel := abs(mm-pm) / pm; rel > 0.15 {
				t.Errorf("%s memory: measured %.3f vs paper %.3f", row[0], mm, pm)
			}
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestFigure7And8Shapes(t *testing.T) {
	f7 := Figure7()
	if len(f7.Rows) != 10 {
		t.Fatalf("fig7 rows = %d", len(f7.Rows))
	}
	f8 := Figure8()
	if len(f8.Rows) != 3 {
		t.Fatalf("fig8 rows = %d", len(f8.Rows))
	}
	// GradSec static must be cheaper than DarkneTZ in both time and memory.
	gs, dz := cell(t, f8.Rows[0][1]), cell(t, f8.Rows[1][1])
	if gs >= dz {
		t.Fatalf("static GradSec %.3f must beat DarkneTZ %.3f", gs, dz)
	}
	dyn := cell(t, f8.Rows[2][1])
	if dyn >= gs {
		t.Fatalf("dynamic average %.3f must beat static %.3f", dyn, gs)
	}
}

func TestTable1Assembles(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 5 {
		t.Fatalf("table1 rows = %d", len(tab.Rows))
	}
	// The gains row must contain percentages near the paper's claims.
	if !strings.Contains(tab.Rows[3][4], "%") {
		t.Fatalf("gain cell = %q", tab.Rows[3][4])
	}
}

func TestByIDCoversAllArtefacts(t *testing.T) {
	if len(IDs()) != 11 {
		t.Fatalf("registry lists %d artefacts, want the paper's 9 and the 2 ablations: %v", len(IDs()), IDs())
	}
	// A lookup runs the artefact: keep the attacks token-sized here, the
	// golden test runs them at full scale.
	old := DefaultScale
	DefaultScale = SecurityScale{DRIAIters: 2, MIASamples: 16, DPIACycles: 20}
	defer func() { DefaultScale = old }()
	for _, id := range IDs() {
		if tab := ByID(id); tab == nil || tab.ID != id || len(tab.Rows) == 0 {
			t.Fatalf("ByID(%q) = %v", id, tab)
		}
	}
	if tab := ByID("Figure7"); tab == nil || tab.ID != "fig7" {
		t.Fatalf("ByID(\"Figure7\") = %v, want the fig7 artefact", tab)
	}
	if ByID("nope") != nil {
		t.Fatal("unknown id must be nil")
	}
}

// goldenSHA256 is the contract of this package: the SHA-256 of every
// artefact's Print output, recorded at the commit before the plan table
// and the evaluator existed (stable over 10 runs there, amd64). A refactor
// keeps every row; a change that means to move a number re-records it and
// says so.
var goldenSHA256 = map[string]string{
	"table1":           "8cbcf6e6fddb78e3d1dada8661d28d21ab0c3ca641b6d271fb06f8b4ad2c6559",
	"table5":           "ad9e441bf718760787aa1b692f7c559e0f1d84fb1ce7a4588106f9a9e44e2230",
	"table6":           "81b0a51b48bf295a8e0d1f2b1153214776ecca824f1492c96f5968f99273e696",
	"fig5a":            "0f08ac39e81620d6fecd8bf31c38635e0ad4486aa6b5c0d66bc3386b87966515",
	"fig5b":            "a7e8bfb32abe524a7defb9e755f53deb0c8869bed300dc3d90e1e76225a1d33e",
	"fig6a":            "a061b86e2dd1933a526e88db46cba72afb9abd2f789a239a5c986be7922b08c1",
	"fig6b":            "5e357a894afd7436b5d7ea881a3c734b5a358476b8064805fc10aec58a7a9953",
	"fig7":             "0be111ebedc3791b8e731bde3e6a7c882454c850fb12a934e336ed685bc81ae9",
	"fig8":             "4a5e91249d4ce3ed2e97796c5ae47dee83d8fca0ca09494a6152a70d92275730",
	"ablation-smc":     "603486dbdeab2845d971df8aa4b02ca04fd18aaab06b501c05b3d433f5da8c3f",
	"ablation-enclave": "ed44a89f64840dc5431669c696366e259b3be957babd22c033d74509b1bbc7f7",
}

func TestGoldenArtefacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every artefact at full scale")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if len(goldenSHA256) != len(IDs()) {
		t.Fatalf("%d golden hashes for %d artefacts", len(goldenSHA256), len(IDs()))
	}
	for _, a := range artefacts {
		a := a
		t.Run(a.id, func(t *testing.T) {
			h := sha256.New()
			a.run().Print(h)
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenSHA256[a.id] {
				t.Errorf("Print output hashes to %s, want %s", got, goldenSHA256[a.id])
			}
		})
	}
}

// The shortcut every AUC in this package rides — train an unprotected
// victim once, delete the protected layers' feature blocks — against the
// real thing: a core.SecureTrainer on the Table 5 victim, whose TA
// withholds the protected layers' updates. Fed through the same
// featurizer, each live cycle's Observable must be the masked row bit for
// bit, NaN blocks included. It fails if the TA leaks a protected update,
// if secure training moves one bit of an unprotected one, or if masking
// and the live schedule disagree on a single cycle.
func TestLiveObservationEqualsMaskedShortcut(t *testing.T) {
	const cycles = 10 // MW=2 has 4 positions over 5 layers: two periods and a half
	net, faces, cfg := table5Victim(cycles)
	shortcut := attack.BuildDPIADataset(net, faces, cfg)

	plans := map[string]*core.Plan{
		"L2": l2.plan, "L2+L5": l2l5.plan, "DarkneTZ L2..L5": darknetz.plan,
		"uniform MW=2": must(core.UniformDynamicPlan(2, net.NumLayers())),
	}
	for name, plan := range plans {
		net, faces, cfg := table5Victim(cycles)
		// BuildDPIADataset's sampling order: one property draw per cycle,
		// then the cycle's batches, all from one stream.
		rng := rand.New(rand.NewSource(cfg.Seed))
		var withProp bool
		st, err := core.NewSecureTrainer(tz.NewDevice(name), net, plan, core.TrainerConfig{
			Iterations: cfg.ItersPerCycle, LR: cfg.LR,
			Batch: func(_, iter int) (x, y *tensor.Tensor) {
				if iter == 0 {
					withProp = rng.Intn(2) == 0
				}
				return faces.Batch(rng, cfg.BatchSize, withProp, cfg.PropFrac)
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := core.EstablishServerView(st); err != nil { // the TA seals protected updates for a server
			t.Fatalf("%s: %v", name, err)
		}
		want := shortcut.Masked(func(c int) []int { return plan.ProtectedLayers(c, net.NumLayers()) })
		shielded := 0
		for c := 0; c < cycles; c++ {
			res, err := st.RunCycle(c)
			if err != nil {
				t.Fatalf("%s cycle %d: %v", name, c, err)
			}
			if withProp != shortcut.Labels[c] {
				t.Fatalf("%s cycle %d: live batches drew property=%v, shortcut %v", name, c, withProp, shortcut.Labels[c])
			}
			got := shortcut.Features.Row(attack.Observe(net, res.Observable))
			if len(got) != len(want[c]) {
				t.Fatalf("%s cycle %d: %d live features, %d masked", name, c, len(got), len(want[c]))
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[c][k]) {
					t.Fatalf("%s cycle %d protecting %v: feature %d (layer %d) live %v, masked shortcut %v",
						name, c, res.Protected, k, k/shortcut.Features.PerLayer, got[k], want[c][k])
				}
				if math.IsNaN(got[k]) {
					shielded++
				}
			}
		}
		if wantShielded := cycles * len(plan.ProtectedLayers(0, net.NumLayers())) * shortcut.Features.PerLayer; shielded != wantShielded {
			t.Errorf("%s: %d shielded features over %d cycles, want %d", name, shielded, cycles, wantShielded)
		}
	}
}

func TestSecurityArtefactShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("attack experiments are slow in -short mode")
	}
	old := DefaultScale
	DefaultScale = SecurityScale{DRIAIters: 40, MIASamples: 32, DPIACycles: 60}
	defer func() { DefaultScale = old }()

	f5 := Figure5a()
	// Unprotected reconstruction must beat the L2-protected one.
	open, l2 := cell(t, f5.Rows[0][1]), cell(t, f5.Rows[2][1])
	if open >= l2 {
		t.Fatalf("fig5a: open %.3f must beat L2-protected %.3f", open, l2)
	}

	f6 := Figure6a()
	openAUC := cell(t, f6.Rows[0][2])
	allAUC := cell(t, f6.Rows[len(f6.Rows)-1][2])
	if openAUC < 0.7 {
		t.Fatalf("fig6a open AUC = %.3f", openAUC)
	}
	if abs(allAUC-0.5) > 0.15 {
		t.Fatalf("fig6a full-protection AUC = %.3f", allAUC)
	}

	t5 := Table5()
	openDPIA := cell(t, t5.Rows[0][2])
	if openDPIA < 0.7 {
		t.Fatalf("table5 open AUC = %.3f", openDPIA)
	}
}

func TestAblations(t *testing.T) {
	smc := AblationSMC()
	if len(smc.Rows) != 6 {
		t.Fatalf("smc rows = %d", len(smc.Rows))
	}
	// At the calibrated Pi switch cost, scattered must win.
	if !strings.HasPrefix(smc.Rows[1][3], "+") {
		t.Fatalf("scattered should win at 300µs: %v", smc.Rows[1])
	}
	enc := AblationEnclaveSize()
	for _, row := range enc.Rows {
		if row[4] != "yes" && row[0] != "all layers" {
			t.Errorf("%s should fit a 4MB enclave", row[0])
		}
	}
}

func TestPrintRendersEveryColumn(t *testing.T) {
	tab := Table6()
	var sb strings.Builder
	tab.Print(&sb)
	out := sb.String()
	if !strings.Contains(out, "table6") || !strings.Contains(out, "L2+L5") {
		t.Fatalf("print output incomplete:\n%s", out)
	}
}

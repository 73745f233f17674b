package repro

import (
	"fmt"
	"math/rand"

	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/nn"
)

// paperTable6 holds the published per-configuration values: user, kernel
// and allocation seconds plus TEE memory MB (Table 6 of the paper).
type paperRow struct {
	label                    string
	protected                []int // 0-based
	user, kernel, alloc, mem float64
}

var paperTable6Static = []paperRow{
	{"Baseline (no protection)", nil, 2.191, 0.021, 0, 0},
	{"L1", []int{0}, 1.886, 0.738, 0.09, 1.127},
	{"L2 (vs DRIA)", []int{1}, 1.672, 0.652, 0.34, 0.565},
	{"L3", []int{2}, 1.696, 0.674, 0.34, 0.286},
	{"L4", []int{3}, 1.691, 0.673, 0.34, 0.286},
	{"L5 (vs MIA)", []int{4}, 2.044, 0.187, 4.68, 0.704},
	{"L2+L5 (vs DRIA+MIA)", []int{1, 4}, 1.561, 0.846, 5.02, 1.269},
}

var paperTable6MW2 = []paperRow{
	{"MW2 L1+L2", []int{0, 1}, 1.323, 1.331, 0.43, 1.692},
	{"MW2 L2+L3", []int{1, 2}, 1.139, 1.275, 0.68, 0.851},
	{"MW2 L3+L4", []int{2, 3}, 1.134, 1.269, 0.68, 0.572},
	{"MW2 L4+L5", []int{3, 4}, 1.507, 0.808, 5.02, 0.99},
}

// Table6 reproduces the paper's Table 6: CPU time (user+kernel+alloc) and
// TEE memory per protected configuration of LeNet-5 (batch 32), static
// and dynamic, through the calibrated Pi-3B+ cost model.
func Table6() *Table {
	sim := lenetSim()
	t := &Table{
		ID:     "table6",
		Title:  "CPU time and TEE memory of GradSec (LeNet-5, batch 32, Pi-3B+ model)",
		Header: []string{"Configuration", "paper total", "measured total", "paper mem", "measured mem"},
		Notes: []string{
			"totals are user+kernel+alloc seconds for one FL cycle",
			"per-layer user shares deviate for L1 (paper's L1 runs anomalously fast); sums calibrated — docs/COSTMODEL.md",
		},
	}
	addRows := func(rows []paperRow) {
		for _, r := range rows {
			cost := sim.CycleCost(r.protected)
			t.Rows = append(t.Rows, []string{
				r.label,
				sec(r.user + r.kernel + r.alloc),
				sec(cost.Total().Seconds()),
				fmt.Sprintf("%.3fMB", r.mem),
				mb(sim.TEEMemory(r.protected)),
			})
		}
	}
	addRows(paperTable6Static)
	addRows(paperTable6MW2)

	// Dynamic averages, exactly the VMW rows the paper reports.
	dynRows := []struct {
		label                string
		size                 int
		vmw                  []float64
		paperTotal, paperMem float64
	}{
		{"AVG MW=2 VMW=[.2 .1 .6 .1] (vs DPIA)", 2, []float64{0.2, 0.1, 0.6, 0.1}, 1.21 + 1.236 + 1.064, 1.692},
		{"AVG MW=3 VMW=[.1 .1 .8]", 3, []float64{0.1, 0.1, 0.8}, 0.964 + 1.517 + 4.467, 1.978},
		{"AVG MW=4 VMW=[.1 .9]", 4, []float64{0.1, 0.9}, 0.904 + 1.553 + 5.241, 2.264},
	}
	for _, d := range dynRows {
		plan, err := core.NewDynamicPlan(d.size, d.vmw)
		if err != nil {
			panic(err)
		}
		res, err := sim.Dynamic(plan)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			d.label,
			sec(d.paperTotal),
			sec(res.Average.Total().Seconds()),
			fmt.Sprintf("%.3fMB", d.paperMem),
			mb(res.MaxMemory),
		})
	}
	return t
}

func lenetSim() *core.OverheadSim {
	return core.NewOverheadSim(nn.NewLeNet5(rand.New(rand.NewSource(1)), nn.ActReLU))
}

// Figure7 reproduces the paper's Figure 7: per-configuration training
// time breakdown and TEE memory bars for static GradSec (panels A, B) and
// dynamic GradSec with sizeMW=2 (panels C, D).
func Figure7() *Table {
	sim := lenetSim()
	t := &Table{
		ID:     "fig7",
		Title:  "Training time breakdown and TEE memory (static panels A/B, dynamic MW=2 panels C/D)",
		Header: []string{"Bars", "user", "kernel", "alloc", "TEE mem"},
	}
	configs := []paperRow{
		{"A/B L1", []int{0}, 0, 0, 0, 0},
		{"A/B L2 (vs DRIA)", []int{1}, 0, 0, 0, 0},
		{"A/B L3", []int{2}, 0, 0, 0, 0},
		{"A/B L4", []int{3}, 0, 0, 0, 0},
		{"A/B L5 (vs MIA)", []int{4}, 0, 0, 0, 0},
		{"A/B L2+L5", []int{1, 4}, 0, 0, 0, 0},
		{"C/D L1+L2", []int{0, 1}, 0, 0, 0, 0},
		{"C/D L2+L3", []int{1, 2}, 0, 0, 0, 0},
		{"C/D L3+L4", []int{2, 3}, 0, 0, 0, 0},
		{"C/D L4+L5", []int{3, 4}, 0, 0, 0, 0},
	}
	for _, cfgRow := range configs {
		cost := sim.CycleCost(cfgRow.protected)
		t.Rows = append(t.Rows, []string{
			cfgRow.label,
			sec(cost.User.Seconds()),
			sec(cost.Kernel.Seconds()),
			sec(cost.Alloc.Seconds()),
			mb(sim.TEEMemory(cfgRow.protected)),
		})
	}
	base := sim.CycleCost(nil)
	t.Notes = append(t.Notes, fmt.Sprintf("baseline (no protection): %s", base))
	return t
}

// Figure8 reproduces the paper's Figure 8: GradSec vs DarkneTZ for
// grouped protection (DRIA+MIA, panels A/B) and for DPIA (dynamic MW=2
// vs DarkneTZ L2..L5, panels C/D).
func Figure8() *Table {
	sim := lenetSim()
	gradsecStatic := sim.CycleCost([]int{1, 4})
	darknetz := sim.CycleCost([]int{1, 2, 3, 4})
	plan, err := core.NewDynamicPlan(2, []float64{0.2, 0.1, 0.6, 0.1})
	if err != nil {
		panic(err)
	}
	dyn, err := sim.Dynamic(plan)
	if err != nil {
		panic(err)
	}
	memGS := sim.TEEMemory([]int{1, 4})
	memDZ := sim.TEEMemory([]int{1, 2, 3, 4})

	gain := func(a, b float64) string { return fmt.Sprintf("%.1f%%", (1-a/b)*100) }
	t := &Table{
		ID:     "fig8",
		Title:  "GradSec vs DarkneTZ (A/B grouped protection, C/D dynamic vs DPIA)",
		Header: []string{"Configuration", "total time", "TEE mem", "gain vs DarkneTZ (time)", "gain (mem)"},
		Notes: []string{
			"paper gains: static −8.3% time / −30% mem; dynamic −56.7% time / −8% mem (Table 1)",
		},
	}
	t.Rows = append(t.Rows,
		[]string{"Static GradSec (L2+L5)", sec(gradsecStatic.Total().Seconds()), mb(memGS),
			gain(gradsecStatic.Total().Seconds(), darknetz.Total().Seconds()),
			gain(float64(memGS), float64(memDZ))},
		[]string{"DarkneTZ (L2+L3+L4+L5)", sec(darknetz.Total().Seconds()), mb(memDZ), "-", "-"},
		[]string{"Dynamic GradSec (MW=2, VMW=[.2 .1 .6 .1])", sec(dyn.Average.Total().Seconds()), mb(dyn.MaxMemory),
			gain(dyn.Average.Total().Seconds(), darknetz.Total().Seconds()),
			gain(float64(dyn.MaxMemory), float64(memDZ))},
	)
	return t
}

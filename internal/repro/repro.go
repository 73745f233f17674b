// Package repro regenerates every table and figure of the paper's
// evaluation (§8): one function per artefact, each returning a Table that
// prints the paper's published value next to the value measured by this
// reproduction. EXPERIMENTS.md records the comparison.
//
// Every artefact is a selection of rows (entries of the plan table,
// plans.go) and columns (methods of the one evaluator) — docs/EVALUATION.md
// maps each artefact to its view.
//
// Scale note (docs/EVALUATION.md, "Mini-scale deviations"): the overhead
// artefacts (Table 6, Figures 7–8) are exact-scale — the calibrated
// Pi-3B+ cost model over the full LeNet-5; the security artefacts
// (Figures 5–6, Table 5) run the real attacks against reduced-scale models
// on synthetic corpora, so they match the paper in *shape* (which
// protections defeat which attacks), not in absolute value.
package repro

import (
	"fmt"
	"io"
	"strings"
)

// Table is one reproduced artefact.
type Table struct {
	ID     string // e.g. "table6", "fig5a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// view appends one line per row — its label, then one cell per column: an
// artefact is a selection of plan-table rows and of published or evaluator
// columns.
func (t *Table) view(rows []row, cols ...func(row) string) *Table {
	for _, r := range rows {
		cells := []string{r.label}
		for _, col := range cols {
			cells = append(cells, col(r))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// artefacts is the one ordered list of what this package reproduces (the
// CLI, the root benchmarks and the golden-hash test read it), named after
// the paper's numbering.
var artefacts = []struct {
	id  string
	run func() *Table
}{
	{"table6", Table6},
	{"fig7", Figure7},
	{"fig8", Figure8},
	{"fig5a", Figure5a},
	{"fig5b", Figure5b},
	{"fig6a", Figure6a},
	{"fig6b", Figure6b},
	{"table5", Table5},
	{"table1", Table1},
	{"ablation-smc", AblationSMC},
	{"ablation-enclave", AblationEnclaveSize},
}

// IDs lists the artefact IDs, in the order a full run prints them.
func IDs() []string {
	ids := make([]string, len(artefacts))
	for i, a := range artefacts {
		ids[i] = a.id
	}
	return ids
}

// ByID returns the experiment with the given ID ("fig7" or "figure7",
// any case), or nil.
func ByID(id string) *Table {
	id = strings.Replace(strings.ToLower(id), "figure", "fig", 1)
	for _, a := range artefacts {
		if a.id == id {
			return a.run()
		}
	}
	return nil
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func sec(v float64) string { return fmt.Sprintf("%.3fs", v) }
func mb(bytes int) string  { return fmt.Sprintf("%.3fMB", float64(bytes)/1e6) }

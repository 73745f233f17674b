package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	cases := []struct {
		n    int
		want float64
	}{
		{3, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); pct != 90 || v < 89 || v > 90 {
		t.Errorf("tail of 0..99 = %g at p%g, want ≈89.1 at p90", v, pct)
	}
}

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	tr := newTracer("test")
	root := tr.openRoot("op", 0, 0, 0)
	tr.closeRoot(root, 100)
	tr.add("a", root, 0, 0, 10, 30)
	tr.add("b", root, 0, 0, 20, 50) // overlaps a: the union covers 40
	tr.add("c", root, 0, 0, 90, 140)
	if got := tr.selfTimes("op"); len(got) != 1 || got[0] != 50e-9 {
		t.Fatalf("self time = %v, want [5e-08]", got)
	}
	if got := tr.coverage("op"); got != 0.5 {
		t.Fatalf("coverage = %g, want 0.5", got)
	}
}

// A three-client round checked against the repository's own reference
// FedAvg, then against arithmetic done by hand.
func TestDyadicOracleThreeClientRound(t *testing.T) {
	state := []*tensor.Tensor{tensor.Full(0.5, 2, 3), tensor.Full(-1, 4)}
	d := newDyadic(7, state)
	for _, p := range d.pattern {
		for _, v := range p.Data {
			if v < -1 || v >= 1 || v*256 != float64(int(v*256)) {
				t.Fatalf("pattern value %g is not a multiple of 1/256 in [-1, 1)", v)
			}
		}
	}
	const round = 5
	oracle := newFedAvgOracle(d, state, wire.CodecF64)
	var updates [][]*tensor.Tensor
	sum16 := int64(0)
	for c := 0; c < 3; c++ {
		f := d.factor16(c, round)
		if f < -16 || f >= 16 {
			t.Fatalf("factor16 = %d out of range", f)
		}
		sum16 += f
		upd, _, err := newStubTrainer("c", c, d).TrainRound(round, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		updates = append(updates, upd)
		oracle.folded(c, round)
	}
	fl.ApplyUpdate(state, fl.FedAvg(updates), 1)
	// By hand: element j of tensor i moved by (Σfactor16 / 16 / 3)·P[i][j].
	want := 0.5 + float64(sum16)/48*d.pattern[0].Data[0]
	if got := state[0].Data[0]; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("reference FedAvg moved element to %g, by hand %g", got, want)
	}
	if n, err := oracle.check(state); err != nil || n != 3 {
		t.Fatalf("oracle rejected a correct round: n=%d err=%v", n, err)
	}

	// A second round with one element off by 1e-6 must fail, and the
	// oracle must re-arm afterwards.
	oracle.folded(0, round+1)
	upd, _, _ := newStubTrainer("c", 0, d).TrainRound(round+1, nil, nil, nil)
	fl.ApplyUpdate(state, upd, 1)
	state[1].Data[2] += 1e-6
	if _, err := oracle.check(state); err == nil {
		t.Fatal("oracle accepted a state that is off by 1e-6")
	}
	oracle.folded(1, round+2)
	upd, _, _ = newStubTrainer("c", 1, d).TrainRound(round+2, nil, nil, nil)
	fl.ApplyUpdate(state, upd, 1)
	if _, err := oracle.check(state); err != nil {
		t.Fatalf("oracle did not re-arm after a failed round: %v", err)
	}
	if _, err := oracle.check(state); err == nil {
		t.Fatal("oracle accepted a round in which nothing folded")
	}
}

func TestStragglerPlanPicksDistinctClients(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		for _, size := range [][2]int{{256, 3}, {8, 2}, {3, 3}} {
			n, k := size[0], size[1]
			plan := newStragglerPlan(seed, 12, n, k)
			for r, picked := range plan {
				seen := make(map[int]bool)
				for _, c := range picked {
					if c < 0 || c >= n || seen[c] {
						t.Fatalf("seed %d round %d: bad or repeated client %d in %v", seed, r, c, picked)
					}
					seen[c] = true
				}
				if len(seen) != k {
					t.Fatalf("seed %d round %d: %d stragglers, want %d", seed, r, len(seen), k)
				}
				dropped := 0
				for c := 0; c < n; c++ {
					if plan.drops(r, c) {
						dropped++
					}
				}
				if dropped != k {
					t.Fatalf("seed %d round %d: drops() names %d clients, want %d", seed, r, dropped, k)
				}
			}
		}
	}
	if maxStragglers(256) != 3 || maxStragglers(8) != 2 {
		t.Fatalf("maxStragglers(256, 8) = %d, %d, want 3, 2", maxStragglers(256), maxStragglers(8))
	}
}

// smokeConfig is the unit-test scale: one session of two sampled
// operations over a cohort of eight.
func smokeConfig(t *testing.T) *config {
	return &config{seed: 3, seconds: 1, sessions: 1, cohort: 8, fixedOps: 2, outDir: t.TempDir()}
}

// The deadline driver: an 8-client masked fleet drops its stragglers on
// the virtual clock (a 30 s deadline that never costs wall time) and
// reconciles them every round.
func TestVirtualClockDeadlineOnMaskedFleet(t *testing.T) {
	cfg := smokeConfig(t)
	passes := runSet(cfg, []*workload{workloadByName("fleet-masked")}, []bool{false})
	r := passes[0]["fleet-masked"]
	if r.failed != 0 {
		t.Fatalf("failed operations: %v", r.failures)
	}
	want := float64(maxStragglers(cfg.cohort))
	recon := r.observed["secagg.reconciled_per_round"]
	if len(recon) != warmupOps+cfg.fixedOps {
		t.Fatalf("observed %d rounds, want %d", len(recon), warmupOps+cfg.fixedOps)
	}
	for i, got := range recon {
		if got != want {
			t.Fatalf("round %d reconciled %g clients, want %g", i, got, want)
		}
	}
	if got, want := r.updates, cfg.fixedOps*(cfg.cohort-int(want)); got != want {
		t.Fatalf("folded %d updates over the sampled rounds, want %d", got, want)
	}
	if total := r.opSeconds(); total > 5 {
		t.Fatalf("two masked rounds took %.1f s: the deadline was waited for on the wall clock", total)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	cfg := smokeConfig(t)
	passes := runSet(cfg, workloads, []bool{false, true})
	for _, w := range workloads {
		un, tr := passes[0][w.name], passes[1][w.name]
		for _, r := range []*passResult{un, tr} {
			if r.failed != 0 {
				t.Errorf("%s (traced=%v): failed operations: %v", w.name, r.tr != nil, r.failures)
			}
			if len(r.opTimes) != cfg.fixedOps || len(r.setups) != 1 {
				t.Errorf("%s (traced=%v): %d operations and %d set-ups, want %d and 1", w.name, r.tr != nil, len(r.opTimes), len(r.setups), cfg.fixedOps)
			}
		}
		for name, v := range endToEndValues(un) {
			if !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, name, v)
			}
		}
		layer := perLayerValues(w, un, tr, nil, 1)
		if len(layer) != len(perLayer) {
			t.Errorf("%s: %d per-layer values, the table has %d", w.name, len(layer), len(perLayer))
		}
		if got := layer["obs.span_coverage_ratio"]; got < 0.9 {
			t.Errorf("%s: spans cover %.2f of %s, want ≥ 0.9", w.name, got, w.rootSpan)
		}
		if _, err := tr.tr.write(cfg.outDir); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in this package
// are what the program reports. They must name the same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", manifest.Paths)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", manifest.EndToEnd, endToEnd)
	}
	stripped := make([]metricDef, len(perLayer))
	for i, m := range perLayer {
		stripped[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}
	}
	if !reflect.DeepEqual(manifest.PerLayer, stripped) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", manifest.PerLayer, stripped)
	}
}

package flsim

import (
	"reflect"
	"testing"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
)

// assertTraceMatchesFlat compares a hierarchical trace against the
// flat trace of the same fleet: every fleet-wide statistic must agree
// (Shards is the hierarchy's own bookkeeping and is checked
// separately; Elapsed may differ — shard deadlines can fire in
// several virtual steps).
func assertTraceMatchesFlat(t *testing.T, hierTrace, flatTrace []fl.RoundStats, shards int) {
	t.Helper()
	if len(hierTrace) != len(flatTrace) {
		t.Fatalf("trace lengths differ: hier %d vs flat %d", len(hierTrace), len(flatTrace))
	}
	for r := range hierTrace {
		h, f := hierTrace[r], flatTrace[r]
		if h.Shards != shards {
			t.Fatalf("round %d folded %d shards, want %d", r, h.Shards, shards)
		}
		h.Shards = 0
		if !reflect.DeepEqual(h, f) {
			t.Fatalf("round %d diverged:\n  hier: %+v\n  flat: %+v", r, hierTrace[r], f)
		}
	}
}

// TestHierScenarioMatchesFlatPlain: a full-participation hierarchical
// session — weighted updates, training failures, probation — produces
// a final model and trace bit-identical to the flat session over the
// same fleet: partial sums compose exactly.
func TestHierScenarioMatchesFlatPlain(t *testing.T) {
	base := Scenario{
		Clients:          64,
		Rounds:           5,
		WeightedExamples: true,
		FailureFraction:  0.125,
		QuarantineRounds: 1,
		Seed:             42,
	}
	flat, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	hierSc := base
	hierSc.Shards = 8
	hier, err := Run(hierSc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinal(t, "plain hierarchy", flat, hier)
	assertTraceMatchesFlat(t, hier.Trace, flat.Trace, 8)
	if !reflect.DeepEqual(flat.Quarantined, hier.Quarantined) {
		t.Fatalf("quarantine sets diverged: flat %v vs hier %v", flat.Quarantined, hier.Quarantined)
	}
	// And the hierarchical run is itself reproducible.
	again, err := Run(hierSc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinal(t, "hier reruns", hier, again)
	if !reflect.DeepEqual(hier.Trace, again.Trace) {
		t.Fatalf("hier traces differ between runs:\n  %+v\n  %+v", hier.Trace, again.Trace)
	}
}

// TestHierScenarioMatchesFlatMasked: the secagg-masked hierarchy —
// shard-scoped mask rosters, ring-sum partials — reproduces both the
// flat masked session and the flat plaintext session bit for bit.
func TestHierScenarioMatchesFlatMasked(t *testing.T) {
	base := Scenario{
		Clients:          48,
		Rounds:           4,
		WeightedExamples: true,
		Seed:             11,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	flatMaskedSc := base
	flatMaskedSc.SecAgg = true
	flatMasked, err := Run(flatMaskedSc)
	if err != nil {
		t.Fatal(err)
	}
	hierSc := flatMaskedSc
	hierSc.Shards = 6
	hierMasked, err := Run(hierSc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinal(t, "flat masked vs plain", plain, flatMasked)
	assertSameFinal(t, "hier masked vs plain", plain, hierMasked)
	assertTraceMatchesFlat(t, hierMasked.Trace, flatMasked.Trace, 6)
}

// TestHierScenarioStragglerDropout: stragglers are dropped at each
// shard's own deadline and — under secure aggregation — each shard
// reconciles its dropped members' masks locally; the hierarchical
// aggregate still equals the flat session (which dropped the very same
// devices) bit for bit. This is the shard-level straggler-dropout
// acceptance round. The mask degree is pinned at 10 so that wherever
// the 4 stragglers land — all in one 16-client shard, or anywhere in
// the flat cohort of 80 — they stay within the graph's worst-case
// dropout bound ⌊(k−1)/2⌋ = 4.
func TestHierScenarioStragglerDropout(t *testing.T) {
	base := Scenario{
		Clients:           80,
		Rounds:            4,
		Deadline:          time.Second,
		StragglerFraction: 0.05,
		MaskDegree:        10,
		Seed:              7,
	}
	for _, secAgg := range []bool{false, true} {
		name := "plain"
		if secAgg {
			name = "masked"
		}
		flatSc := base
		flatSc.SecAgg = secAgg
		flat, err := Run(flatSc)
		if err != nil {
			t.Fatalf("%s flat: %v", name, err)
		}
		hierSc := flatSc
		hierSc.Shards = 5
		hier, err := Run(hierSc)
		if err != nil {
			t.Fatalf("%s hier: %v", name, err)
		}
		assertSameFinal(t, name+" dropout", flat, hier)
		assertTraceMatchesFlat(t, hier.Trace, flat.Trace, 5)
		for r, st := range hier.Trace {
			if st.Dropped != 4 {
				t.Fatalf("%s round %d dropped %d, want 4", name, r, st.Dropped)
			}
			if secAgg && st.Reconciled != 4 {
				t.Fatalf("%s round %d reconciled %d, want 4", name, r, st.Reconciled)
			}
		}
	}
}

// TestHierScenarioShardDegradation: a shard whose clients all straggle
// never contributes a partial; with MinShards below the shard count
// the fleet's rounds degrade to the healthy shards instead of failing.
// The failed shard round's accounting still reaches the root — in a
// masked session through the accounting-only partial of a shard that
// failed its gate.
func TestHierScenarioShardDegradation(t *testing.T) {
	for _, secAgg := range []bool{false, true} {
		sc := Scenario{
			Clients:         32,
			Rounds:          3,
			Shards:          4,
			MinShards:       3,
			Deadline:        time.Second,
			ShardStragglers: []float64{0, 0, 0, 1}, // one fully congested edge
			SecAgg:          secAgg,
			Seed:            3,
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("secAgg=%v: session should degrade, not fail: %v", secAgg, err)
		}
		for r, st := range res.Trace {
			if st.Shards != 3 {
				t.Fatalf("secAgg=%v: round %d folded %d shards, want 3", secAgg, r, st.Shards)
			}
			if st.Responded != 24 || st.Dropped != 8 {
				t.Fatalf("secAgg=%v: round %d stats = %+v", secAgg, r, st)
			}
		}
		// Reproducible, like every scenario.
		again, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Trace, again.Trace) {
			t.Fatalf("secAgg=%v: degraded traces differ between runs:\n  %+v\n  %+v", secAgg, res.Trace, again.Trace)
		}
	}
}

// TestHierScenarioLargeFleet: the fleet-scale smoke — 4096 clients
// over 16 edges, still bit-identical to the flat run. (16384 clients ×
// 64 shards is exercised by BenchmarkHierRound.)
func TestHierScenarioLargeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("large fleet in -short mode")
	}
	base := Scenario{
		Clients:          4096,
		Rounds:           2,
		WeightedExamples: true,
		Seed:             9,
	}
	flat, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	hierSc := base
	hierSc.Shards = 16
	hier, err := Run(hierSc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinal(t, "large fleet", flat, hier)
	assertTraceMatchesFlat(t, hier.Trace, flat.Trace, 16)
	for r, st := range hier.Trace {
		if st.Responded != 4096 {
			t.Fatalf("round %d responded %d, want 4096", r, st.Responded)
		}
	}
}

// TestHierScenarioValidation covers the hierarchy scenario checks.
func TestHierScenarioValidation(t *testing.T) {
	if _, err := Run(Scenario{Clients: 8, Shards: 2, SecAgg: true, Protect: []int{0}}); err == nil {
		t.Fatal("hierarchical secagg with protected tensors must fail")
	}
	if _, err := Run(Scenario{Clients: 8, Shards: 2, ShardStragglers: []float64{0.5}}); err == nil {
		t.Fatal("mis-sized per-shard fractions must fail")
	}
	if _, err := Run(Scenario{Clients: 8, ShardFailures: []float64{0.5}}); err == nil {
		t.Fatal("per-shard fractions without shards must fail")
	}
	if _, err := Run(Scenario{Clients: 4, Shards: 8}); err == nil {
		t.Fatal("more shards than clients must fail")
	}
	if _, err := Run(Scenario{Clients: 8, Shards: 2, MinShards: 3}); err == nil {
		t.Fatal("MinShards above Shards must fail")
	}
}

package flsim

import (
	"errors"
	"testing"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/tensor"
)

// modelSum totals every model coordinate — with PositiveDeltas the
// honest fleet pushes it strictly up, so its sign and magnitude tell
// whether an attack won.
func modelSum(model []*tensor.Tensor) float64 {
	var s float64
	for _, t := range model {
		for _, v := range t.Data {
			s += v
		}
	}
	return s
}

func poisonScenario(agg string, trim, poison float64) Scenario {
	return Scenario{
		Clients:        20,
		Rounds:         5,
		MinClients:     5,
		PositiveDeltas: true, // honest fleet: every update coordinate > 0
		PoisonFraction: poison,
		PoisonMode:     "signflip",
		Aggregation:    agg,
		TrimFraction:   trim,
		Seed:           42,
	}
}

// TestSignFlipDefeatsFedAvg: 30% sign-flip poisoners at γ=4 drag the
// plain average negative — the model moves opposite the honest
// direction — while trimmed-mean and median shrug the attack off and
// keep the model climbing.
func TestSignFlipDefeatsFedAvgNotRobust(t *testing.T) {
	clean, err := Run(poisonScenario("fedavg", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	cleanSum := modelSum(clean.Final)
	if cleanSum <= 0 {
		t.Fatalf("clean positive-delta fleet should grow the model, sum = %v", cleanSum)
	}

	poisonedAvg, err := Run(poisonScenario("fedavg", 0, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if got := modelSum(poisonedAvg.Final); got >= 0 {
		t.Fatalf("FedAvg under 30%% sign-flip at γ=4 should be dragged negative, sum = %v", got)
	}

	for _, tc := range []struct {
		agg  string
		trim float64
	}{{"trimmed-mean", 0.3}, {"median", 0}} {
		res, err := Run(poisonScenario(tc.agg, tc.trim, 0.3))
		if err != nil {
			t.Fatalf("%s: %v", tc.agg, err)
		}
		got := modelSum(res.Final)
		if got <= 0 {
			t.Fatalf("%s under 30%% sign-flip should keep growing the model, sum = %v", tc.agg, got)
		}
		// The robust aggregate of the honest majority tracks the clean
		// run's direction within a factor — the attack changed the
		// estimator, not the sign or scale of progress.
		if got < cleanSum/4 || got > cleanSum*4 {
			t.Fatalf("%s poisoned sum %v implausibly far from clean %v", tc.agg, got, cleanSum)
		}
	}
}

// TestScalePoisonInflatesFedAvgOnly: γ-scaled poisoners inflate the
// plain average's magnitude; the median stays at honest scale.
func TestScalePoisonInflatesFedAvgOnly(t *testing.T) {
	clean, err := Run(poisonScenario("fedavg", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	sc := poisonScenario("fedavg", 0, 0.3)
	sc.PoisonMode = "scale"
	inflated, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc = poisonScenario("median", 0, 0.3)
	sc.PoisonMode = "scale"
	robust, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	cleanSum, inflatedSum, robustSum := modelSum(clean.Final), modelSum(inflated.Final), modelSum(robust.Final)
	if inflatedSum < cleanSum*1.5 {
		t.Fatalf("scaled poison should inflate FedAvg: poisoned %v vs clean %v", inflatedSum, cleanSum)
	}
	if robustSum > cleanSum*1.5 {
		t.Fatalf("median should hold honest scale: %v vs clean %v", robustSum, cleanSum)
	}
}

// TestPoisonedRunsAreDeterministic: the Byzantine roles ride the same
// seeded shuffle as every other role — two runs agree bitwise.
func TestPoisonedRunsAreDeterministic(t *testing.T) {
	a, err := Run(poisonScenario("median", 0, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(poisonScenario("median", 0, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Final {
		for j := range a.Final[i].Data {
			if a.Final[i].Data[j] != b.Final[i].Data[j] {
				t.Fatalf("final[%d][%d] differs across identical runs", i, j)
			}
		}
	}
	poisoners := 0
	for _, p := range a.Profiles {
		if p.Poison != "" {
			poisoners++
		}
	}
	if poisoners != 6 {
		t.Fatalf("30%% of 20 clients = 6 poisoners, got %d", poisoners)
	}
}

// TestHierPoisonMatchesFlat: a poisoner is a device, not a topology —
// sharding the fleet must not change what it pushes. Plain FedAvg over
// 25% sign-flippers at the scenario's γ lands on the same model, bit
// for bit, flat and through four edges.
func TestHierPoisonMatchesFlat(t *testing.T) {
	base := poisonScenario("fedavg", 0, 0.25)
	flat, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	hierSc := base
	hierSc.Shards = 4
	hier, err := Run(hierSc)
	if err != nil {
		t.Fatal(err)
	}
	requireSameModel(t, "4-shard poisoned model", hier.Final, flat.Final)
	if clean, _ := Run(poisonScenario("fedavg", 0, 0)); modelSum(hier.Final) >= modelSum(clean.Final)/2 {
		t.Fatalf("γ=4 sign-flippers should drag the hierarchical FedAvg well below the clean run: %v vs %v",
			modelSum(hier.Final), modelSum(clean.Final))
	}
	// Robust aggregation cannot defend a hierarchy (shard partials are
	// sums): refused up front, not silently run as FedAvg at the edges.
	hierSc.Aggregation = "median"
	if _, err := Run(hierSc); err == nil {
		t.Fatal("robust aggregation over shards must be rejected")
	}
}

// TestRobustSecAggRejected: the composition is structurally impossible
// and must fail loudly at open, not silently fall back.
func TestRobustSecAggRejected(t *testing.T) {
	sc := poisonScenario("median", 0, 0.3)
	sc.SecAgg = true
	_, err := Run(sc)
	if !errors.Is(err, fl.ErrRobustSecAgg) {
		t.Fatalf("err = %v, want ErrRobustSecAgg", err)
	}
}

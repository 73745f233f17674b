package flsim

import (
	"reflect"
	"testing"
	"time"

	"github.com/gradsec/gradsec/internal/secagg"
)

// assertSameFinal fails unless the two results hold bitwise-identical
// final models.
func assertSameFinal(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Final) != len(b.Final) {
		t.Fatalf("%s: model tensor counts differ", label)
	}
	for i := range a.Final {
		for j := range a.Final[i].Data {
			if a.Final[i].Data[j] != b.Final[i].Data[j] {
				t.Fatalf("%s: final models differ at tensor %d elem %d: %v != %v",
					label, i, j, a.Final[i].Data[j], b.Final[i].Data[j])
			}
		}
	}
}

// TestSecAggMatchesPlaintextFullCohort: with every sampled client
// responding, the masked session's trace and final model are
// bit-identical to the plaintext session — the acceptance criterion of
// the secure-aggregation subsystem.
func TestSecAggMatchesPlaintextFullCohort(t *testing.T) {
	base := Scenario{
		Clients:          48,
		Rounds:           5,
		MinClients:       4,
		SampleFraction:   0.5,
		WeightedExamples: true,
		Seed:             42,
	}
	plainSc := base
	plain, err := Run(plainSc)
	if err != nil {
		t.Fatal(err)
	}
	maskedSc := base
	maskedSc.SecAgg = true
	masked, err := Run(maskedSc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinal(t, "full cohort", plain, masked)
	for r := range plain.Trace {
		p, m := plain.Trace[r], masked.Trace[r]
		m.Reconciled = 0
		if !reflect.DeepEqual(p, m) {
			t.Fatalf("round %d trace diverged:\n  plain:  %+v\n  masked: %+v", r, p, masked.Trace[r])
		}
	}
	// And the masked run itself is reproducible: masks differ between
	// runs but cancel exactly, so the trace is bit-stable.
	again, err := Run(maskedSc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(masked.Trace, again.Trace) {
		t.Fatalf("masked traces differ between runs:\n  %+v\n  %+v", masked.Trace, again.Trace)
	}
	assertSameFinal(t, "masked reruns", masked, again)
}

// TestSecAggStragglerDropoutReconciled: stragglers are dropped at the
// deadline every round; mask reconciliation recovers exactly the
// plaintext aggregate over the survivors, deterministically across
// runs — the documented reproducible dropout trace. The degree is left
// at its default (auto: k = 6 for 20 clients), so the 2 stragglers sit
// exactly on the dropout bound ⌊(k−1)/2⌋ an unconfigured session gets.
func TestSecAggStragglerDropoutReconciled(t *testing.T) {
	base := Scenario{
		Clients:           20,
		Rounds:            4,
		Deadline:          time.Second,
		StragglerFraction: 0.1,
		Seed:              7,
	}
	plainSc := base
	plain, err := Run(plainSc)
	if err != nil {
		t.Fatal(err)
	}
	maskedSc := base
	maskedSc.SecAgg = true
	masked, err := Run(maskedSc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinal(t, "straggler dropout", plain, masked)
	for r, st := range masked.Trace {
		if st.Sampled != 20 || st.Responded != 18 || st.Dropped != 2 {
			t.Fatalf("round %d stats = %+v", r, st)
		}
		if st.Reconciled != 2 {
			t.Fatalf("round %d reconciled %d masks, want 2 (one per dropped client)", r, st.Reconciled)
		}
		if plain.Trace[r].UpdateNorm != st.UpdateNorm {
			t.Fatalf("round %d aggregate norm diverged: plain %v, masked %v",
				r, plain.Trace[r].UpdateNorm, st.UpdateNorm)
		}
	}
	again, err := Run(maskedSc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(masked.Trace, again.Trace) {
		t.Fatalf("dropout traces differ between runs:\n  %+v\n  %+v", masked.Trace, again.Trace)
	}
	assertSameFinal(t, "dropout reruns", masked, again)
}

// TestSecAggKRegularMatchesPlaintextFullCohort: the k-regular graph
// plus double masking must preserve the subsystem's acceptance
// criterion — a full-cohort masked fleet lands bit-identically on the
// plaintext trace and final model, with the self masks removed via
// Shamir reconstruction rather than counted as reconciled dropouts.
func TestSecAggKRegularMatchesPlaintextFullCohort(t *testing.T) {
	base := Scenario{
		Clients:          48,
		Rounds:           5,
		MinClients:       4,
		SampleFraction:   0.5,
		WeightedExamples: true,
		Seed:             42,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	maskedSc := base
	maskedSc.SecAgg = true
	maskedSc.MaskDegree = secagg.AutoDegree // DegreeFor(24) = 6 of 23 possible edges
	masked, err := Run(maskedSc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinal(t, "k-regular full cohort", plain, masked)
	for r := range plain.Trace {
		p, m := plain.Trace[r], masked.Trace[r]
		if m.Reconciled != 0 {
			t.Fatalf("round %d: full k-regular fold reported %d reconciled dropouts", r, m.Reconciled)
		}
		if !reflect.DeepEqual(p, m) {
			t.Fatalf("round %d trace diverged:\n  plain:  %+v\n  masked: %+v", r, p, m)
		}
	}
	again, err := Run(maskedSc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(masked.Trace, again.Trace) {
		t.Fatalf("k-regular traces differ between runs:\n  %+v\n  %+v", masked.Trace, again.Trace)
	}
	assertSameFinal(t, "k-regular reruns", masked, again)
}

// TestSecAggKRegularStragglerDropoutReconciled: dropping 5 of 20
// clients per round under a degree-12 graph stays within the
// worst-case tolerance (threshold 7 ≤ 12−5 surviving neighbours), so
// two-phase reconciliation — pair seeds for the dropped, Shamir
// shares for the survivors' self masks — recovers exactly the
// plaintext aggregate, deterministically across runs.
func TestSecAggKRegularStragglerDropoutReconciled(t *testing.T) {
	base := Scenario{
		Clients:           20,
		Rounds:            4,
		Deadline:          time.Second,
		StragglerFraction: 0.25,
		Seed:              7,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	maskedSc := base
	maskedSc.SecAgg = true
	maskedSc.MaskDegree = 12
	masked, err := Run(maskedSc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinal(t, "k-regular straggler dropout", plain, masked)
	for r, st := range masked.Trace {
		if st.Sampled != 20 || st.Responded != 15 || st.Dropped != 5 {
			t.Fatalf("round %d stats = %+v", r, st)
		}
		if st.Reconciled != 5 {
			t.Fatalf("round %d reconciled %d, want 5 (one per dropped client)", r, st.Reconciled)
		}
		if plain.Trace[r].UpdateNorm != st.UpdateNorm {
			t.Fatalf("round %d aggregate norm diverged: plain %v, masked %v",
				r, plain.Trace[r].UpdateNorm, st.UpdateNorm)
		}
	}
	again, err := Run(maskedSc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(masked.Trace, again.Trace) {
		t.Fatalf("k-regular dropout traces differ between runs:\n  %+v\n  %+v", masked.Trace, again.Trace)
	}
	assertSameFinal(t, "k-regular dropout reruns", masked, again)
}

// TestSecAggEnclaveProtectedTensors: protected tensors ride the sealed
// path into the aggregation enclave; the combined masked+enclave
// aggregate still equals the plaintext TEE session bit for bit, and the
// enclave demonstrably did the sealed-path work.
func TestSecAggEnclaveProtectedTensors(t *testing.T) {
	base := Scenario{
		Clients:          16,
		Rounds:           3,
		Protect:          []int{0},
		WeightedExamples: true,
		RequireTEE:       true,
		Seed:             11,
	}
	plainSc := base
	plain, err := Run(plainSc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.EnclaveSMCs != 0 {
		t.Fatalf("plaintext session used the enclave: %d SMCs", plain.EnclaveSMCs)
	}
	maskedSc := base
	maskedSc.SecAgg = true
	masked, err := Run(maskedSc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinal(t, "enclave protected", plain, masked)
	if masked.EnclaveSMCs == 0 {
		t.Fatal("secagg session never crossed the enclave boundary")
	}
	for r, st := range masked.Trace {
		if st.Responded != 16 {
			t.Fatalf("round %d stats = %+v", r, st)
		}
	}
}

// TestSecAggStragglersWithEnclave: dropout reconciliation and enclave
// aggregation compose — the enclave folds exactly the survivors and the
// masked plain half reconciles to match the plaintext baseline. Two
// stragglers of 16 stay within the auto degree's (k = 6) dropout bound.
func TestSecAggStragglersWithEnclave(t *testing.T) {
	base := Scenario{
		Clients:           16,
		Rounds:            3,
		Deadline:          time.Second,
		StragglerFraction: 0.125,
		Protect:           []int{1},
		RequireTEE:        true,
		Seed:              5,
	}
	plainSc := base
	plain, err := Run(plainSc)
	if err != nil {
		t.Fatal(err)
	}
	maskedSc := base
	maskedSc.SecAgg = true
	masked, err := Run(maskedSc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFinal(t, "straggler enclave", plain, masked)
	for r, st := range masked.Trace {
		if st.Dropped != 2 || st.Reconciled != 2 {
			t.Fatalf("round %d stats = %+v", r, st)
		}
	}
}

// TestQuarantineProbationScenario: failed clients re-enter the fleet
// after their probation window instead of disappearing for the session.
func TestQuarantineProbationScenario(t *testing.T) {
	sc := Scenario{
		Clients:          12,
		Rounds:           6,
		FailureFraction:  0.25,
		QuarantineRounds: 1,
		Seed:             3,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Every failer fails exactly once (simulated devices recover), so the
	// quarantine log matches the permanent-exclusion scenario…
	if len(res.Quarantined) != 3 {
		t.Fatalf("quarantined %v, want 3 devices", res.Quarantined)
	}
	// …and the fleet heals on schedule. With no sampling limits a
	// failer fails exactly in its FailRound, sits out the next round,
	// and participates again from FailRound+2 — so each round's books
	// are fully predictable from the assigned profiles.
	failedAt := func(r int) int {
		if r < 0 {
			return 0
		}
		n := 0
		for _, p := range res.Profiles {
			if p.FailRound == r {
				n++
			}
		}
		return n
	}
	for r, st := range res.Trace {
		wantSampled := 12 - failedAt(r-1) // last round's failers are on probation
		wantResponded := wantSampled - failedAt(r)
		if st.Sampled != wantSampled || st.Responded != wantResponded || st.Probation != failedAt(r) || st.Quarantined != 0 {
			t.Fatalf("round %d stats = %+v, want sampled %d responded %d", r, st, wantSampled, wantResponded)
		}
	}
	// Contrast with permanent quarantine under the same seed: once all
	// three failers have tripped, the fleet stays shrunken.
	sc.QuarantineRounds = 0
	perm, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	permLast := perm.Trace[len(perm.Trace)-1]
	healedLast := res.Trace[len(res.Trace)-1]
	if permLast.Sampled >= healedLast.Sampled {
		t.Fatalf("probation gave no re-admission benefit: permanent %+v vs probation %+v", permLast, healedLast)
	}
}

// TestSecAggScenarioValidation covers the new scenario checks.
func TestSecAggScenarioValidation(t *testing.T) {
	if _, err := Run(Scenario{Clients: 2, Protect: []int{9}}); err == nil {
		t.Fatal("out-of-range protected index must fail")
	}
	if _, err := Run(Scenario{Clients: 2, Protect: []int{0, 0}}); err == nil {
		t.Fatal("duplicate protected index must fail")
	}
	if _, err := Run(Scenario{Clients: 4, Protect: []int{0}, NoTEEFraction: 0.5}); err == nil {
		t.Fatal("protected tensors with a partial-TEE fleet must fail")
	}
	if _, err := Run(Scenario{Clients: 4, SecAgg: true, MaskDegree: -1}); err == nil {
		t.Fatal("negative mask degree must fail")
	}
}

package flsim

import (
	"reflect"
	"testing"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/tensor"
)

// asyncBase is the shared fleet for the asynchronous scenarios: a
// quarter of the clients are slow (the synchronous run drops them at
// every deadline; the asynchronous run folds them discounted), and
// updates are positive dyadics so the model norm grows monotonically —
// comparable across pacing modes.
func asyncBase() Scenario {
	return Scenario{
		Clients: 8, Rounds: 6, MinClients: 1,
		StragglerFraction: 0.25, Deadline: time.Second,
		PositiveDeltas: true, Seed: 42,
	}
}

// modelEqual reports bitwise equality of two models.
func modelEqual(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// TestAsyncScenarioDeterministic: two runs of the same asynchronous
// scenario produce identical traces, identical virtual elapsed time,
// and a bitwise-identical final model — the async analogue of the
// synchronous reproducibility guarantee.
func TestAsyncScenarioDeterministic(t *testing.T) {
	sc := func() AsyncScenario {
		return AsyncScenario{Scenario: asyncBase(), Versions: 12, GoalUpdates: 6}
	}
	a, err := RunAsync(sc())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAsync(sc())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatalf("traces diverge:\n%+v\n%+v", a.Trace, b.Trace)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("elapsed diverges: %v vs %v", a.Elapsed, b.Elapsed)
	}
	if !modelEqual(a.Final, b.Final) {
		t.Fatal("final models diverge")
	}
	if len(a.Trace) != 12 {
		t.Fatalf("trace has %d versions, want 12", len(a.Trace))
	}
	for v, st := range a.Trace {
		if st.Responded != 6 {
			t.Fatalf("version %d stats = %+v, want 6 folds", v, st)
		}
	}
	if a.Pushes != a.Folds || a.Stale != 0 || a.Duplicates != 0 {
		t.Fatalf("pushes %d folds %d stale %d dup %d: healthy fleet must fold every push",
			a.Pushes, a.Folds, a.Stale, a.Duplicates)
	}
}

// TestSyncVsAsyncSameFleet replays the same seeded fleet under both
// pacing modes — the paper-style comparison the async tier exists for:
//
//   - each mode's trace is bit-reproducible (asserted per mode),
//   - the asynchronous run reaches (and passes) the synchronous run's
//     final-norm target,
//   - it does so with zero fleet-idle time, against the hours the
//     synchronous barrier burns waiting out straggler deadlines
//     (Deadline × responders for every round that dropped someone),
//     and in far less virtual wall time.
func TestSyncVsAsyncSameFleet(t *testing.T) {
	syncA, err := Run(asyncBase())
	if err != nil {
		t.Fatal(err)
	}
	syncB, err := Run(asyncBase())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(syncA.Trace, syncB.Trace) || !modelEqual(syncA.Final, syncB.Final) {
		t.Fatal("synchronous replay is not reproducible")
	}

	async, err := RunAsync(AsyncScenario{Scenario: asyncBase(), Versions: 12, GoalUpdates: 6})
	if err != nil {
		t.Fatal(err)
	}

	// The same profiles were dealt to both modes from the same seed.
	if !reflect.DeepEqual(syncA.Profiles, async.Profiles) {
		t.Fatal("fleet profiles diverge between modes")
	}

	// Every synchronous round dropped the two stragglers, so each of
	// its six responders idled out the full deadline every round.
	wantIdle := 6 * 6 * time.Second
	if syncA.Idle != wantIdle {
		t.Fatalf("sync idle = %v, want %v", syncA.Idle, wantIdle)
	}

	syncNorm := fl.UpdateNorm(syncA.Final)
	asyncNorm := fl.UpdateNorm(async.Final)
	if asyncNorm < syncNorm {
		t.Fatalf("async norm %v below the sync target %v", asyncNorm, syncNorm)
	}
	if async.Idle != 0 || async.Idle >= syncA.Idle {
		t.Fatalf("async idle = %v, want 0 (< sync %v)", async.Idle, syncA.Idle)
	}
	if async.Elapsed >= syncA.Elapsed {
		t.Fatalf("async elapsed %v not below sync %v", async.Elapsed, syncA.Elapsed)
	}
}

// TestAsyncScenarioLargeFleet: 4096 free-running devices (plain, as in
// BenchmarkAsyncRound) at a sub-millisecond cadence, whose first-push
// offsets collide with later pushes — the scheduler fires simultaneous
// timers in client order — run to completion and reproduce their
// outcome.
func TestAsyncScenarioLargeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("large fleet in -short mode")
	}
	run := func() (*AsyncResult, string) {
		res, err := RunAsync(AsyncScenario{
			Scenario:    Scenario{Clients: 4096, Rounds: 4, MinClients: 1, StragglerFraction: 0.25, Deadline: time.Second, NoTEEFraction: 1, Seed: 9},
			Versions:    4,
			GoalUpdates: 1024,
			FastLatency: 1500 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, hashOutcome(res.Selected, res.Rejected, res.Trace, res.Final, res.Quarantined, res.Elapsed)
	}
	res, hash := run()
	if _, again := run(); again != hash {
		t.Fatalf("outcome hash %s, rerun %s", hash, again)
	}
	if len(res.Trace) != 4 || res.Folds != 4*1024 {
		t.Fatalf("%d versions folding %d updates, want 4 of 1024", len(res.Trace), res.Folds)
	}
}

// TestAsyncScenarioValidation: the async harness rejects scenario
// shapes it cannot replay deterministically.
func TestAsyncScenarioValidation(t *testing.T) {
	bad := AsyncScenario{Scenario: asyncBase()}
	bad.FailureFraction = 0.5
	if _, err := RunAsync(bad); err == nil {
		t.Fatal("FailureFraction must be rejected")
	}
	bad = AsyncScenario{Scenario: asyncBase()}
	bad.SecAgg = true
	if _, err := RunAsync(bad); err == nil {
		t.Fatal("SecAgg must be rejected")
	}
}

package flsim

import (
	"errors"
	"reflect"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
)

func requireSameModel(t *testing.T, what string, a, b []*tensor.Tensor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d tensors vs %d", what, len(a), len(b))
	}
	for i := range a {
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				t.Fatalf("%s: tensor %d[%d] = %v, want %v", what, i, j, a[i].Data[j], b[i].Data[j])
			}
		}
	}
}

// TestCrashRecoverBitIdenticalFlat: a flat session killed mid-way and
// recovered from its journal finishes with the same trace and the same
// model, bit for bit, as a session that never crashed — at a round
// boundary, mid-round after some folds were journaled, under client
// failures committed before the crash, under cohort sampling (the RNG
// fast-forward), and under secure aggregation (fresh mask keys on
// rejoin are invisible to the aggregate).
func TestCrashRecoverBitIdenticalFlat(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		spec   CrashSpec
	}{
		{"round-boundary", func(sc *Scenario) { sc.FailureFraction = 0.2 }, CrashSpec{Round: 3}},
		{"mid-round", func(sc *Scenario) { sc.FailureFraction = 0.2 }, CrashSpec{Round: 2, Folds: 3}},
		{"sampled", func(sc *Scenario) { sc.SampleFraction = 0.5; sc.MinClients = 2 }, CrashSpec{Round: 3}},
		{"masked", func(sc *Scenario) { sc.SecAgg = true }, CrashSpec{Round: 3}},
		{"masked-mid-round", func(sc *Scenario) { sc.SecAgg = true }, CrashSpec{Round: 4, Folds: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := Scenario{Clients: 18, Rounds: 6, MinClients: 4, Seed: 11}
			tc.mutate(&base)
			crashed := base // same scenario, independent default models
			baseline, err := Run(base)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			recovered, err := RunWithCrash(crashed, tc.spec, t.TempDir()+"/flat.journal")
			if err != nil {
				t.Fatalf("RunWithCrash: %v", err)
			}
			if !reflect.DeepEqual(baseline.Trace, recovered.Trace) {
				t.Fatalf("trace diverged\nbaseline:  %+v\nrecovered: %+v", baseline.Trace, recovered.Trace)
			}
			requireSameModel(t, "final model", recovered.Final, baseline.Final)
		})
	}
}

// TestCrashRecoverBitIdenticalHier: the root process dies mid-session
// and the whole tree — root, every edge, a fresh fleet — recovers from
// its journals; the completed run is bit-identical to one that never
// crashed, plain and masked — and under cohort sampling, which the
// recovered shards must be configured with exactly as Run configures
// them (every shard samples half its clients, and fast-forwards its
// sampling RNG over the committed rounds).
func TestCrashRecoverBitIdenticalHier(t *testing.T) {
	cases := []struct {
		name    string
		sc      Scenario
		sampled int // per-round fleet-wide cohort
	}{
		{"plain", Scenario{Clients: 12, Rounds: 6, MinClients: 1, Shards: 3, Seed: 7}, 12},
		{"masked", Scenario{Clients: 12, Rounds: 6, MinClients: 1, Shards: 3, Seed: 7, SecAgg: true}, 12},
		{"sampled", Scenario{Clients: 16, Rounds: 6, MinClients: 1, Shards: 4, Seed: 7, SampleFraction: 0.5}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.sc
			crashed := base
			baseline, err := Run(base)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			recovered, err := RunHierWithRootCrash(crashed, 3, t.TempDir())
			if err != nil {
				t.Fatalf("RunHierWithRootCrash: %v", err)
			}
			if !reflect.DeepEqual(baseline.Trace, recovered.Trace) {
				t.Fatalf("trace diverged\nbaseline:  %+v\nrecovered: %+v", baseline.Trace, recovered.Trace)
			}
			requireSameModel(t, "final model", recovered.Final, baseline.Final)
			for _, st := range recovered.Trace {
				if st.Sampled != tc.sampled {
					t.Fatalf("round %d sampled %d clients, want %d", st.Round, st.Sampled, tc.sampled)
				}
			}
		})
	}
}

// shardOf returns the shard owning client i under the contiguous
// partition of shardRange.
func shardOf(i, clients, shards int) int {
	for s := 0; s < shards; s++ {
		if lo, hi := shardRange(clients, shards, s); i >= lo && i < hi {
			return s
		}
	}
	return -1
}

// expectedHierFinal recomputes the final model value of a degraded
// plain hierarchical run coordinate-exactly: per round, the dyadic sum
// of every client in an alive shard, normalised by one multiply —
// operation-for-operation what the root does, so the comparison is
// bitwise.
func expectedHierFinal(sc Scenario, alive func(shard, round int) bool) float64 {
	var state float64
	for r := 0; r < sc.Rounds; r++ {
		var sum float64
		n := 0
		for i := 0; i < sc.Clients; i++ {
			if !alive(shardOf(i, sc.Clients, sc.Shards), r) {
				continue
			}
			sum += dyadicDelta(sc.Seed, i, r)
			n++
		}
		state += sum * (1 / float64(n))
	}
	return state
}

// TestEdgeCrashDegradesAndRejoins: one edge dies mid-session, the root
// degrades to the surviving shards for three rounds, then the edge
// recovers from its journal and rejoins with its clients — and the
// final model matches the coordinate-exact recomputation of exactly
// that degraded-then-restored participation.
func TestEdgeCrashDegradesAndRejoins(t *testing.T) {
	sc := Scenario{Clients: 12, Rounds: 8, MinClients: 1, Shards: 4, MinShards: 2, Seed: 5}
	const crashShard, crashRound, rejoinRound = 1, 2, 5
	res, err := RunHierWithEdgeCrash(sc, crashShard, crashRound, rejoinRound, t.TempDir())
	if err != nil {
		t.Fatalf("RunHierWithEdgeCrash: %v", err)
	}
	if len(res.Trace) != sc.Rounds {
		t.Fatalf("trace has %d rounds, want %d", len(res.Trace), sc.Rounds)
	}
	for r, st := range res.Trace {
		want := sc.Shards
		if r >= crashRound && r < rejoinRound {
			want = sc.Shards - 1
		}
		if st.Shards != want {
			t.Fatalf("round %d folded %d shards, want %d", r, st.Shards, want)
		}
	}
	want := expectedHierFinal(sc, func(shard, round int) bool {
		return !(shard == crashShard && round >= crashRound && round < rejoinRound)
	})
	for i, ten := range res.Final {
		for j, v := range ten.Data {
			if v != want {
				t.Fatalf("final[%d][%d] = %v, want %v", i, j, v, want)
			}
		}
	}
}

// TestPartitionDegradesGracefully: severing a shard's uplink drops it
// for the rest of the session; the root keeps closing rounds over the
// survivors, deterministically.
func TestPartitionDegradesGracefully(t *testing.T) {
	sc := Scenario{Clients: 12, Rounds: 6, MinClients: 1, Shards: 4, MinShards: 2, Seed: 9}
	const severShard, severRound = 2, 3
	res, err := RunHierWithPartition(sc, severShard, severRound)
	if err != nil {
		t.Fatalf("RunHierWithPartition: %v", err)
	}
	for r, st := range res.Trace {
		want := sc.Shards
		if r >= severRound {
			want = sc.Shards - 1
		}
		if st.Shards != want {
			t.Fatalf("round %d folded %d shards, want %d", r, st.Shards, want)
		}
	}
	want := expectedHierFinal(sc, func(shard, round int) bool {
		return !(shard == severShard && round >= severRound)
	})
	for i, ten := range res.Final {
		for j, v := range ten.Data {
			if v != want {
				t.Fatalf("final[%d][%d] = %v, want %v", i, j, v, want)
			}
		}
	}
	again, err := RunHierWithPartition(sc, severShard, severRound)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	requireSameModel(t, "determinism", again.Final, res.Final)
}

// TestDisconnectsQuarantinedSessionContinues: clients that go dark
// mid-session surface as transport-error quarantines in the round they
// drop; the session keeps running over the remaining fleet.
func TestDisconnectsQuarantinedSessionContinues(t *testing.T) {
	sc := Scenario{Clients: 12, Rounds: 5, MinClients: 4, DisconnectFraction: 0.25, DisconnectRound: 2, Seed: 3}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	droppers := 0
	for _, p := range res.Profiles {
		if p.DropRound >= 0 {
			droppers++
		}
	}
	if droppers != 3 {
		t.Fatalf("25%% of 12 clients = 3 droppers, got %d", droppers)
	}
	if len(res.Quarantined) != droppers {
		t.Fatalf("quarantined %v, want the %d droppers", res.Quarantined, droppers)
	}
	if st := res.Trace[sc.DisconnectRound]; st.Sampled != 12 || st.Quarantined != 3 || st.Responded != 9 {
		t.Fatalf("drop round stats = %+v, want Sampled 12 / Quarantined 3 / Responded 9", st)
	}
	if st := res.Trace[len(res.Trace)-1]; st.Sampled != 9 || st.Quarantined != 0 {
		t.Fatalf("final round stats = %+v, want the 9 survivors and no new quarantines", st)
	}
	again, err := Run(sc)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	requireSameModel(t, "determinism", again.Final, res.Final)
}

// TestFaultHarnessValidation: the harnesses reject specs that cannot
// produce the fault they claim to study.
func TestFaultHarnessValidation(t *testing.T) {
	flat := Scenario{Clients: 8, Rounds: 3, MinClients: 2, Seed: 1}
	if _, err := RunWithCrash(flat, CrashSpec{Round: 7}, t.TempDir()+"/j"); err == nil {
		t.Fatal("crash round past the session end must be rejected")
	}
	sharded := Scenario{Clients: 8, Rounds: 4, MinClients: 1, Shards: 2, Seed: 1}
	if _, err := RunWithCrash(sharded, CrashSpec{Round: 1}, t.TempDir()+"/j"); err == nil {
		t.Fatal("RunWithCrash must reject hierarchical scenarios")
	}
	// MinShards defaults to "every shard" — no headroom to lose one.
	noHeadroom := Scenario{Clients: 8, Rounds: 6, MinClients: 1, Shards: 2, Seed: 1}
	if _, err := RunHierWithEdgeCrash(noHeadroom, 0, 2, 4, t.TempDir()); err == nil {
		t.Fatal("edge crash without MinShards headroom must be rejected")
	}
	dirty := Scenario{Clients: 8, Rounds: 6, MinClients: 1, Shards: 2, MinShards: 1, FailureFraction: 0.5, Seed: 1}
	if _, err := RunHierWithPartition(dirty, 0, 2); err == nil {
		t.Fatal("hier fault scenarios must reject a dirty fleet")
	}
	if !errors.Is(ErrSimCrash, ErrSimCrash) {
		t.Fatal("sentinel sanity")
	}
}

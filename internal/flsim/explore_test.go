package flsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// composition is one drawn session: a pacing, a device role, and the
// harness that runs it.
type composition struct {
	name  string
	sc    Scenario
	async bool
	// crash, when set, runs the draw through its fault harness; recovers
	// marks a flat or root crash, whose result must equal the uncrashed
	// run's.
	crash    func(sc Scenario, dir string) (*Result, error)
	recovers bool
}

// drawComposition draws pacing {sync, masked, 2–4 shards, async} ×
// role {stragglers + deadline, fail-once + probation, disconnect, no-TEE
// + RequireTEE, poison + trimmed-mean} × {plain run, the matching
// crash or partition harness} from seed.
func drawComposition(seed int64) composition {
	rng := rand.New(rand.NewSource(seed))
	c := composition{sc: Scenario{Clients: 24, Rounds: 6, MinClients: 2, Seed: seed}}
	pacing := []string{"sync", "masked", "hier", "async"}[rng.Intn(4)]
	switch pacing {
	case "masked":
		c.sc.SecAgg = true
	case "hier":
		c.sc.Shards = 2 + rng.Intn(3)
		c.sc.MinShards = c.sc.Shards - 1 // headroom for an edge crash or a partition
		c.sc.SecAgg = rng.Intn(2) == 0
	case "async":
		c.async = true
	}
	role := []string{"stragglers", "fail-once", "disconnect", "no-tee", "poison"}[rng.Intn(5)]
	switch role {
	case "stragglers":
		c.sc.StragglerFraction, c.sc.Deadline = 1.0/12, time.Second
	case "fail-once":
		c.sc.FailureFraction, c.sc.QuarantineRounds = 1.0/12, 1
	case "disconnect":
		c.sc.DisconnectFraction, c.sc.DisconnectRound = 1.0/12, 2
	case "no-tee":
		c.sc.NoTEEFraction, c.sc.RequireTEE = 0.25, true
	case "poison":
		c.sc.PoisonFraction, c.sc.Aggregation, c.sc.TrimFraction = 1.0/12, "trimmed-mean", 0.25
	}
	harness := "plain"
	if !c.async && rng.Intn(2) == 0 {
		r := 1 + rng.Intn(c.sc.Rounds-2) // leaves a later round to rejoin in
		switch {
		case c.sc.Shards == 0:
			harness = "crash"
			spec := CrashSpec{Round: r, Folds: rng.Intn(3)}
			c.crash = func(sc Scenario, dir string) (*Result, error) { return RunWithCrash(sc, spec, dir+"/flat.journal") }
			c.recovers = true
		default:
			shard := rng.Intn(c.sc.Shards)
			switch harness = []string{"root-crash", "edge-crash", "partition"}[rng.Intn(3)]; harness {
			case "root-crash":
				c.crash = func(sc Scenario, dir string) (*Result, error) { return RunHierWithRootCrash(sc, r, dir) }
				c.recovers = true
			case "edge-crash":
				c.crash = func(sc Scenario, dir string) (*Result, error) { return RunHierWithEdgeCrash(sc, shard, r, r+1, dir) }
			case "partition":
				c.crash = func(sc Scenario, _ string) (*Result, error) { return RunHierWithPartition(sc, shard, r) }
			}
		}
	}
	c.name = fmt.Sprintf("%02d-%s-%s-%s", seed, pacing, role, harness)
	return c
}

// admissible reports whether the scenario's own validation accepts the
// draw (on a copy: Validate applies defaults).
func (c composition) admissible() bool {
	if c.async {
		sc := AsyncScenario{Scenario: c.sc}
		return sc.validate() == nil
	}
	sc := c.sc
	return sc.Validate() == nil
}

// run executes the draw once and returns its outcome hash.
func (c composition) run(t *testing.T) (*Result, string) {
	t.Helper()
	var res *Result
	var err error
	switch {
	case c.async:
		var ares *AsyncResult
		if ares, err = RunAsync(AsyncScenario{Scenario: c.sc}); ares != nil {
			res = &ares.Result
		}
	case c.crash != nil:
		res, err = c.crash(c.sc, t.TempDir())
	default:
		res, err = Run(c.sc)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, hashOutcome(res.Selected, res.Rejected, res.Trace, res.Final, res.Quarantined, res.Elapsed)
}

// TestCompositionsDeterministic is the schedule explorer's first rung:
// seeded compositions of pacing, device roles and fault harnesses, each
// run twice under the one virtual-time scheduler. Every draw must reproduce
// its outcome hash, and every flat or root crash must land on its
// uncrashed run's trace and final model. Draws the scenario's own
// validation rejects are skipped.
func TestCompositionsDeterministic(t *testing.T) {
	seeds := int64(32)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		c := drawComposition(seed)
		t.Run(c.name, func(t *testing.T) {
			if !c.admissible() {
				t.Skip("rejected by validation")
			}
			first, hash := c.run(t)
			if _, again := c.run(t); again != hash {
				t.Fatalf("outcome hash %s, rerun %s\ntrace: %+v", hash, again, first.Trace)
			}
			if !c.recovers {
				return
			}
			uncrashed, err := Run(c.sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(uncrashed.Trace, first.Trace) {
				t.Fatalf("trace diverged\nuncrashed: %+v\nrecovered: %+v", uncrashed.Trace, first.Trace)
			}
			requireSameModel(t, "final model", first.Final, uncrashed.Final)
		})
	}
}

// Package flsim is a deterministic scenario-simulation harness for the
// FL round engine: it spins up N real fl.Clients over fl.Pipe with
// per-client latency/failure/no-TEE profiles drawn from a seeded RNG,
// drives the engine's round deadlines through a virtual clock, and
// returns a round-by-round trace (participation, drops, quarantines,
// aggregate update norm).
//
// Determinism: the cohort sampler, profile assignment, and failure
// schedule all derive from Scenario.Seed; virtual time passes only when
// every device and server of the session is parked, and then exactly the
// earliest armed timer fires (sched.go, docs/SIMULATION.md); and
// simulated updates are dyadic rationals, so their sums are exact in
// float64 and independent of goroutine arrival order. Two runs of the
// same scenario therefore produce identical traces and bitwise-identical
// final models.
package flsim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// Profile describes one simulated client.
type Profile struct {
	// Device is the client's device ID.
	Device string
	// Straggler marks a client that never answers a round inside the
	// deadline: it is dropped every round it is sampled in, but not
	// quarantined. (Latency is modelled as binary relative to the
	// scenario deadline, not as a graded delay.)
	Straggler bool
	// FailRound, when ≥ 0, makes the client report a training failure
	// if it is addressed in round FailRound (the engine then quarantines
	// it, or puts it on probation), and in no other round — a pure
	// function of the round, so a fleet rebuilt after a crash fails
	// exactly where the dead one did.
	FailRound int
	// NoTEE marks a device without a TEE; under RequireTEE it is
	// rejected at selection.
	NoTEE bool
	// Examples is the client's simulated local-example count; when
	// positive it rides GradUp and weights the server's FedAvg.
	Examples int
	// Poison marks a Byzantine client: "signflip" negates-and-scales
	// its honest update before pushing, "scale" inflates it. Empty is
	// honest.
	Poison string
	// DropRound, when ≥ 0, makes the client sever its connection
	// mid-session the first time it is addressed in a round ≥
	// DropRound — a device going dark, not a protocol fault. The
	// engine quarantines it on the transport error.
	DropRound int
}

// Scenario parameterises a simulated fleet session.
type Scenario struct {
	// Clients is the fleet size.
	Clients int
	// Rounds is the number of FL cycles.
	Rounds int
	// MinClients is the per-round responder floor (engine semantics).
	MinClients int
	// SampleCount / SampleFraction configure per-round cohort sampling,
	// forwarded to the engine.
	SampleCount    int
	SampleFraction float64
	// Deadline is the per-round straggler cutoff. Required when
	// StragglerFraction > 0.
	Deadline time.Duration
	// StragglerFraction of the fleet gets a latency beyond Deadline.
	StragglerFraction float64
	// FailureFraction of the fleet fails training at some round and is
	// quarantined.
	FailureFraction float64
	// NoTEEFraction of the fleet has no TEE.
	NoTEEFraction float64
	// RequireTEE enables attested selection: no-TEE devices are
	// rejected, the rest attest against an auto-provisioned verifier.
	RequireTEE bool
	// Codec is the tensor wire codec the server offers the fleet
	// (f64/f32/q8); every simulated client accepts the offer. Simulated
	// updates are constant tensors, which all three codecs round-trip
	// exactly, so traces stay bit-reproducible under any codec.
	Codec wire.Codec
	// WeightedExamples assigns each client a deterministic local-example
	// count in [1,16] from the seed; GradUp carries it and the engine
	// weights FedAvg by it. Off = uniform (unit) weights.
	WeightedExamples bool
	// SecAgg runs the session under secure aggregation: clients send
	// pairwise-masked fixed-point updates, stragglers' masks are
	// reconciled from survivor shares, and (with Protect) sealed
	// updates aggregate inside a simulated server enclave. Simulated
	// updates are dyadic, so the masked aggregate is bit-identical to
	// the plaintext aggregate of the same scenario.
	SecAgg bool
	// MaskDegree is the SecAgg mask-graph degree, forwarded to
	// fl.ServerConfig.MaskDegree: 0 (secagg.AutoDegree) sizes the
	// per-round k-regular graph from the cohort, >0 pins the degree,
	// negative is rejected. Pair and self masks cancel exactly in the
	// ring, so either reproduces the plaintext aggregate bit for bit —
	// as long as each round's stragglers stay within the graph's
	// dropout tolerance ⌊(k−1)/2⌋.
	MaskDegree int
	// Protect lists flat tensor indices shielded every round: they
	// travel sealed through each client's trusted channel. Under SecAgg
	// an aggregation enclave is created to fold them; without SecAgg
	// the server unseals them itself (the plaintext baseline).
	Protect []int
	// QuarantineRounds forwards the probation re-admission policy to
	// the engine: failed clients sit out that many rounds instead of
	// being excluded for the session.
	QuarantineRounds int
	// Shards, when > 1, runs the scenario through the hierarchical
	// aggregation tier (internal/hier): the fleet is partitioned into
	// that many contiguous shards, each served by an edge aggregator
	// running the full round protocol, and the root folds one partial
	// per shard per round. Client indices, device names, profiles, and
	// weights are assigned exactly as in the flat run of the same
	// scenario, so a full-participation hierarchical trace is
	// bit-identical to the flat trace (asserted by the hier scenarios).
	// Sampling, MinClients, and Deadline apply per shard. SecAgg
	// composes (shard-scoped mask rosters); Protect does not (sealed
	// aggregation needs the root's enclave).
	Shards int
	// MinShards is the root's per-round partial floor in hierarchical
	// scenarios: rounds succeed while at least this many shards
	// contribute. 0 requires every shard.
	MinShards int
	// ShardStragglers / ShardFailures, when non-empty (length must
	// equal Shards), give each shard its own straggler/failure
	// fraction, overriding the fleet-wide fractions — heterogeneous
	// edge profiles (a congested cell, a flaky region) for hierarchy
	// scenarios. Assignment stays seed-deterministic per shard.
	ShardStragglers []float64
	ShardFailures   []float64
	// PositiveDeltas draws simulated updates from (0, 1] instead of
	// [-1, 1): every fold strictly grows the model norm, so runs of the
	// same fleet under different pacing (sync vs async) can be compared
	// by the virtual time each takes to push the norm past a target.
	PositiveDeltas bool
	// PoisonFraction of the fleet is Byzantine: compromised clients
	// transform their honest update (PoisonMode) before pushing.
	// Poisoners are drawn disjoint from stragglers and failers — an
	// attacker wants its update folded.
	PoisonFraction float64
	// PoisonMode picks the transformation: "signflip" (default) pushes
	// -γ× the honest update, "scale" pushes +γ×.
	PoisonMode string
	// PoisonGamma is the attack amplification γ; 0 defaults to 4
	// (dyadic, so poisoned updates stay exactly summable).
	PoisonGamma float64
	// Aggregation selects the server's aggregation strategy ("fedavg",
	// "trimmed-mean", "median"; see fl.ParseAggMethod). Robust methods
	// are how a scenario survives PoisonFraction > 0.
	Aggregation string
	// TrimFraction parameterises "trimmed-mean".
	TrimFraction float64
	// DisconnectFraction of the fleet goes dark mid-session: those
	// clients close their connections when addressed in a round ≥
	// DisconnectRound. Disjoint from the other roles.
	DisconnectFraction float64
	// DisconnectRound is the round the disconnecting clients drop at.
	DisconnectRound int
	// Seed drives every random choice in the scenario.
	Seed int64
	// Model is the initial global model; a small two-tensor model is
	// used when nil. The slice is updated in place round by round.
	Model []*tensor.Tensor
	// Planner forwards a protection plan to the engine (default: none).
	Planner fl.RoundPlanner
	// Metrics, when set, receives the engine's fleet telemetry: the
	// flat server's registry, or the root's in hierarchical scenarios.
	// Metrics never feed back into the protocol, so traces are
	// unchanged by enabling them.
	Metrics *obs.Registry
	// Spans, when set, receives round spans as JSONL timed on the
	// simulation's virtual clock: two runs of the same scenario write
	// byte-identical span streams (asserted by the determinism tests).
	Spans io.Writer
	// FleetTelemetry, in hierarchical scenarios, gives every edge a
	// private metrics registry whose per-round deltas ride upstream on
	// each PartialUp and fold into Metrics at the root under
	// tier/shard labels — the in-band telemetry plane. The per-edge
	// registries are exposed on Result.EdgeMetrics so tests can
	// reconcile the fleet view against its shards exactly. Telemetry
	// never feeds back into the protocol, so traces are unchanged.
	FleetTelemetry bool
	// EdgeSpans, when non-nil with one writer per shard, receives each
	// edge engine's span stream (JSONL on the shared virtual clock),
	// stamped with the root-minted round trace IDs — the inputs to a
	// cross-tier obs.StitchSpans timeline.
	EdgeSpans []io.Writer
}

// Result is a completed (or aborted) simulation.
type Result struct {
	// Selected is the number of clients that passed selection.
	Selected int
	// Rejected is the number turned away at selection.
	Rejected int
	// Trace holds one entry per started round.
	Trace []fl.RoundStats
	// Final is the global model after the last round (aliases the
	// scenario's Model slice).
	Final []*tensor.Tensor
	// Profiles are the assigned per-client profiles, in client order.
	Profiles []Profile
	// Quarantined lists devices the engine excluded (permanently or on
	// probation), in quarantine order.
	Quarantined []string
	// Elapsed is the virtual time the session consumed: the deadlines
	// it waited out, and in an asynchronous session the devices'
	// training latencies.
	Elapsed time.Duration
	// Idle is the virtual fleet-idle time implied by the trace: in a
	// synchronous round that waited out its deadline (Dropped > 0),
	// every on-time responder sat idle from its fold to the deadline —
	// accounted here as Deadline per responder. Async sessions have no
	// round barrier, so their Idle is 0.
	Idle time.Duration
	// EnclaveSMCs counts world switches of the aggregation enclave
	// (0 when the scenario ran without one).
	EnclaveSMCs int64
	// EdgeMetrics holds each edge's private registry in shard order when
	// the scenario ran with FleetTelemetry; nil otherwise.
	EdgeMetrics []*obs.Registry
}

// splitmix64 is a tiny deterministic mixer for per-client/per-round
// values that must not depend on shared RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dyadicDelta returns client i's update value for a round: a multiple
// of 1/256 in [-1, 1), so any summation order is exact in float64.
func dyadicDelta(seed int64, client, round int) float64 {
	h := splitmix64(uint64(seed)*0x100000001b3 ^ uint64(client)<<20 ^ uint64(round))
	return float64(int64(h%512)-256) / 256
}

// posDyadicDelta is the PositiveDeltas variant: a multiple of 1/256 in
// (0, 1], so every fold strictly grows the model norm while sums stay
// exact in float64.
func posDyadicDelta(seed int64, client, round int) float64 {
	h := splitmix64(uint64(seed)*0x100000001b3 ^ uint64(client)<<20 ^ uint64(round))
	return float64(h%256+1) / 256
}

// idleFromTrace derives the fleet-idle accounting for a synchronous
// trace: every round that waited out the deadline (some sampled client
// dropped) held each on-time responder at the barrier for up to the
// full deadline after its fold.
func idleFromTrace(trace []fl.RoundStats, deadline time.Duration) time.Duration {
	var idle time.Duration
	for _, st := range trace {
		if st.Dropped > 0 {
			idle += deadline * time.Duration(st.Responded)
		}
	}
	return idle
}

// Validate checks the scenario's own consistency, applies defaults, and
// then lets the engine judge the session it describes:
// fl.ServerConfig.Validate on every tier's configuration, before any
// tier starts.
func (sc *Scenario) Validate() error {
	if sc.Clients <= 0 {
		return errors.New("flsim: scenario needs at least one client")
	}
	if sc.Rounds <= 0 {
		sc.Rounds = 1
	}
	if sc.MinClients <= 0 {
		sc.MinClients = 1
	}
	if sc.StragglerFraction < 0 || sc.StragglerFraction > 1 ||
		sc.FailureFraction < 0 || sc.FailureFraction > 1 ||
		sc.NoTEEFraction < 0 || sc.NoTEEFraction > 1 ||
		sc.PoisonFraction < 0 || sc.PoisonFraction > 1 ||
		sc.DisconnectFraction < 0 || sc.DisconnectFraction > 1 {
		return errors.New("flsim: fractions must be within [0,1]")
	}
	if sc.PoisonFraction > 0 {
		switch sc.PoisonMode {
		case "":
			sc.PoisonMode = "signflip"
		case "signflip", "scale":
		default:
			return fmt.Errorf("flsim: unknown poison mode %q", sc.PoisonMode)
		}
		if sc.PoisonGamma == 0 {
			sc.PoisonGamma = 4
		}
	}
	if _, err := fl.ParseAggMethod(sc.Aggregation); err != nil {
		return err
	}
	if sc.StragglerFraction > 0 && sc.Deadline <= 0 {
		return errors.New("flsim: StragglerFraction needs a Deadline")
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Model == nil {
		sc.Model = []*tensor.Tensor{tensor.New(8, 8), tensor.New(8)}
	}
	seen := make(map[int]bool)
	for _, id := range sc.Protect {
		if id < 0 || id >= len(sc.Model) {
			return fmt.Errorf("flsim: protected index %d outside the %d-tensor model", id, len(sc.Model))
		}
		if seen[id] {
			return fmt.Errorf("flsim: protected index %d listed twice", id)
		}
		seen[id] = true
	}
	if len(sc.Protect) > 0 && sc.NoTEEFraction > 0 {
		return errors.New("flsim: protected tensors need a full-TEE fleet (NoTEEFraction must be 0)")
	}
	if sc.Shards < 0 || sc.Shards > sc.Clients {
		return fmt.Errorf("flsim: %d shards for %d clients", sc.Shards, sc.Clients)
	}
	if sc.Shards > 1 {
		if len(sc.Protect) > 0 && sc.SecAgg {
			return errors.New("flsim: hierarchical secure aggregation cannot protect tensors (the sealed path needs the root's enclave)")
		}
		if sc.MinShards < 0 || sc.MinShards > sc.Shards {
			return fmt.Errorf("flsim: MinShards %d outside [0,%d]", sc.MinShards, sc.Shards)
		}
		if sc.MinShards == 0 {
			sc.MinShards = sc.Shards
		}
		checkFractions := func(name string, fs []float64) error {
			if len(fs) == 0 {
				return nil
			}
			if len(fs) != sc.Shards {
				return fmt.Errorf("flsim: %s covers %d shards, scenario has %d", name, len(fs), sc.Shards)
			}
			for _, f := range fs {
				if f < 0 || f > 1 {
					return fmt.Errorf("flsim: %s fractions must be within [0,1]", name)
				}
			}
			return nil
		}
		if err := checkFractions("ShardStragglers", sc.ShardStragglers); err != nil {
			return err
		}
		if err := checkFractions("ShardFailures", sc.ShardFailures); err != nil {
			return err
		}
		if len(sc.EdgeSpans) > 0 && len(sc.EdgeSpans) != sc.Shards {
			return fmt.Errorf("flsim: EdgeSpans covers %d shards, scenario has %d", len(sc.EdgeSpans), sc.Shards)
		}
		for _, f := range sc.ShardStragglers {
			if f > 0 && sc.Deadline <= 0 {
				return errors.New("flsim: ShardStragglers needs a Deadline")
			}
		}
	} else if len(sc.ShardStragglers) > 0 || len(sc.ShardFailures) > 0 {
		return errors.New("flsim: per-shard fractions need Shards > 1")
	} else if sc.FleetTelemetry || len(sc.EdgeSpans) > 0 {
		return errors.New("flsim: fleet telemetry needs Shards > 1")
	}
	return sc.validateEngine(nil)
}

// assignProfiles deals straggler/failure/no-TEE roles across the fleet
// from the scenario seed. Roles are disjoint: a straggler never also
// fails (its failure would be unobservable anyway). Per-shard fractions,
// when the scenario gives any, then redraw those two roles shard by
// shard.
func assignProfiles(sc *Scenario) []Profile {
	rng := rand.New(rand.NewSource(sc.Seed))
	n := sc.Clients
	order := rng.Perm(n)
	profiles := make([]Profile, n)
	for i := range profiles {
		profiles[i] = Profile{
			Device:    fmt.Sprintf("sim-%04d", i),
			FailRound: -1,
			DropRound: -1,
		}
		if sc.WeightedExamples {
			h := splitmix64(uint64(sc.Seed)*0x9e3779b9 ^ uint64(i)<<24 ^ 0x5eed)
			profiles[i].Examples = 1 + int(h%16)
		}
	}
	rest := deal(order, n, sc.StragglerFraction, func(i int) { profiles[i].Straggler = true })
	rest = deal(rest, n, sc.FailureFraction, func(i int) { profiles[i].FailRound = rng.Intn(sc.Rounds) })
	// Poisoners follow stragglers and failers in the shuffle — disjoint
	// roles, because an attacker wants its update folded every round.
	rest = deal(rest, n, sc.PoisonFraction, func(i int) { profiles[i].Poison = sc.PoisonMode })
	// Disconnectors are next in the shuffle: a client that goes dark
	// mid-session (connection severed, engine quarantines on the
	// transport error).
	deal(rest, n, sc.DisconnectFraction, func(i int) { profiles[i].DropRound = sc.DisconnectRound })
	// No-TEE devices are drawn from the back of the shuffle, keeping the
	// role disjoint from stragglers/failers while fractions sum to ≤ 1.
	for k := 0; k < int(float64(n)*sc.NoTEEFraction+0.5); k++ {
		profiles[order[n-1-k]].NoTEE = true
	}
	overrideShardProfiles(sc, profiles)
	return profiles
}

// deal gives role to the next ⌊n·f⌉ devices of a shuffled order — as
// many of them as are left — and returns the rest.
func deal(order []int, n int, f float64, role func(i int)) []int {
	k := min(int(float64(n)*f+0.5), len(order))
	for _, i := range order[:k] {
		role(i)
	}
	return order[k:]
}

// shardRange returns shard s's contiguous client range [lo, hi): the
// fleet is partitioned in index order, so device names, profiles, and
// update values line up exactly with the flat run of the same
// scenario.
func shardRange(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// overrideShardProfiles applies per-shard straggler/failure fractions
// on top of the fleet-wide assignment: each overridden shard redraws
// its roles from a per-shard seeded RNG, so heterogeneous edge
// profiles stay deterministic.
func overrideShardProfiles(sc *Scenario, profiles []Profile) {
	if len(sc.ShardStragglers) == 0 && len(sc.ShardFailures) == 0 {
		return
	}
	for s := 0; s < sc.Shards; s++ {
		lo, hi := shardRange(sc.Clients, sc.Shards, s)
		size := hi - lo
		sf := sc.StragglerFraction
		if len(sc.ShardStragglers) > 0 {
			sf = sc.ShardStragglers[s]
		}
		ff := sc.FailureFraction
		if len(sc.ShardFailures) > 0 {
			ff = sc.ShardFailures[s]
		}
		for i := lo; i < hi; i++ {
			profiles[i].Straggler = false
			profiles[i].FailRound = -1
		}
		rng := rand.New(rand.NewSource(sc.Seed ^ (int64(s)+1)*0x9e3779b9))
		rest := deal(rng.Perm(size), size, sf, func(i int) { profiles[lo+i].Straggler = true })
		deal(rest, size, ff, func(i int) { profiles[lo+i].FailRound = rng.Intn(sc.Rounds) })
	}
}

// staticProtect shields a fixed flat-index set every round.
type staticProtect map[int]bool

// PlanRound implements fl.RoundPlanner.
func (p staticProtect) PlanRound(int) (map[int]bool, []byte) { return p, nil }

// Run executes the scenario and returns its trace. The trace and final
// model are identical across runs of the same scenario — including
// under SecAgg, where the pairwise masks differ between runs but cancel
// exactly in the ring.
func Run(sc Scenario) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return runTree(sc, assignProfiles(&sc), treeOpts{})
}

// Package gradsec is the public facade of the GradSec reproduction: a
// TEE-shielded federated-learning stack reproducing "Shielding Federated
// Learning Systems against Inference Attacks with ARM TrustZone"
// (Middleware 2022).
//
// GradSec protects selected layers of a neural network inside a (simulated)
// ARM TrustZone enclave during FL local training, so a compromised client
// OS observes only the gradients of unprotected layers. Two modes exist:
//
//   - static: a fixed, possibly non-successive, layer set (e.g. the first
//     conv layer against data-reconstruction attacks plus the dense head
//     against membership inference);
//   - dynamic: a moving window of successive layers slides across the
//     model over FL cycles following a probability distribution VMW,
//     defeating long-term property-inference attacks with only a couple
//     of layers resident at a time.
//
// Quick start:
//
//	rng := rand.New(rand.NewSource(1))
//	model := gradsec.NewLeNet5(rng, gradsec.ActReLU)
//	plan, _ := gradsec.NewStaticPlan(1, 4) // L2 + L5, paper naming
//	dev := gradsec.NewDevice("pi-client-1")
//	trainer, _ := gradsec.NewSecureTrainer(dev, model, plan, gradsec.TrainerConfig{
//		Iterations: 10, LR: 0.05, Batch: batchFn,
//	})
//	sv, _ := gradsec.EstablishServerView(trainer)
//	res, _ := trainer.RunCycle(0)
//	// res.Observable — the attacker's view (nil at protected layers)
//	// sv.FullUpdate(res) — the trusted server's complete update
//
// # Fleet-scale orchestration
//
// Beyond the single-device trainer, internal/fl provides a concurrent FL
// round engine: client selection/attestation runs across a bounded
// worker pool, each round samples a cohort (SampleFraction/SampleCount),
// a per-round deadline drops stragglers (a round succeeds with ≥
// MinClients responders; late updates are discarded), failed clients are
// quarantined instead of aborting the session, and aggregation streams
// each update into a running weighted sum so server memory stays
// O(model) rather than O(clients × model). Wall time flows through an
// injected clock (internal/simclock), so deadline behaviour is
// deterministic under test.
//
// RunFleet drives that engine against a simulated fleet: N in-memory
// clients with per-client latency/failure/no-TEE profiles from a seeded
// RNG, returning a round-by-round trace (participation, drops,
// quarantines, aggregate update norm). Two runs of the same scenario
// produce identical traces:
//
//	res, _ := gradsec.RunFleet(gradsec.FleetScenario{
//		Clients: 256, Rounds: 10, SampleFraction: 0.5,
//		Deadline: 2 * time.Second, StragglerFraction: 0.1, Seed: 42,
//	})
//	for _, round := range res.Trace { fmt.Println(round) }
//
// Model traffic rides a negotiated wire codec (Codec): f64 is the exact
// baseline, f32 and q8 shrink transfers 2–8× (q8 error ≤ range/255 per
// tensor, sealed TEE tensors always exact). The server encodes each
// round's model once per codec and broadcasts the shared frame.
//
// Secure aggregation (FleetScenario.SecAgg, flserver -secagg) extends
// the paper's threat model to a compromised aggregator: clients send
// double-masked fixed-point updates — pairwise masks along a k-regular
// graph (FleetScenario.MaskDegree; 0 sizes it from the cohort) that
// cancel over the cohort, plus a Shamir-shared self mask — dropped
// stragglers are reconciled from survivor-revealed round seeds, up to
// ⌊(k−1)/2⌋ of them per round, and protected tensors fold inside a
// simulated server enclave (internal/secagg) — the server never
// materialises an individual client's gradients, yet the aggregate is
// bit-identical to plaintext FedAvg for the simulator's dyadic updates.
//
// Fleet scale comes from the hierarchical aggregation tier
// (internal/hier, FleetScenario.Shards): the fleet is partitioned
// across edge aggregators that each run the full round protocol
// against their shard and forward one exact partial aggregate
// upstream, so the root folds O(shards) frames instead of O(fleet)
// and a round is bounded by the slowest shard. Partial sums compose
// exactly — plain sums in f64, masked sums in the ring with
// shard-scoped mask graphs — so the hierarchical aggregate is
// bit-identical to flat FedAvg over the same fleet.
//
// Asynchronous buffered federation (AsyncFleetScenario, flserver
// -async) removes the round barrier entirely: clients pull the current
// model and push updates whenever ready, the server folds each update
// into a buffer discounted by its staleness (1/√(1+s) versions behind)
// and applies the buffer every K folds, bumping the model version. A
// bounded arrival channel pushes backpressure to the transports, a
// per-device rate limit stops fast devices flooding the buffer, and
// duplicate pushes strike a health budget (probation, then
// quarantine). RunFleetAsync replays the same seeded fleet as RunFleet
// without the barrier, so the two pacing modes are directly
// comparable: same stragglers, zero fleet-idle time.
//
// Run `go run ./examples/fleet` for a full scenario walk-through,
// `go run ./examples/secagg` for the secure-aggregation proof,
// `go run ./examples/hier` for the flat-vs-hierarchy identity and
// degradation demo, or `go run ./cmd/flserver -deadline 5s
// -sample-fraction 0.5 -codec q8` plus several `go run ./cmd/flclient`
// processes for the engine over real TCP (`flserver -edges N` plus
// `cmd/fledge` processes for the two-tier topology).
//
// See examples/ for runnable programs and internal/repro for the code
// that regenerates every table and figure of the paper.
package gradsec

import (
	"math/rand"

	"io"

	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/flsim"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// Re-exported core types: protection plans and the secure trainer.
type (
	// Plan describes which layers are shielded per FL cycle.
	Plan = core.Plan
	// Mode selects static/dynamic/DarkneTZ plan semantics.
	Mode = core.Mode
	// TrainerConfig parameterises secure local training.
	TrainerConfig = core.TrainerConfig
	// CycleResult is one cycle's outcome, including the attacker-visible
	// gradient view.
	CycleResult = core.CycleResult
	// SecureTrainer executes GradSec training on a simulated device.
	SecureTrainer = core.SecureTrainer
	// ServerView is the trusted server's end of the trusted I/O path.
	ServerView = core.ServerView
	// OverheadSim reproduces the paper's Table 6 cost accounting.
	OverheadSim = core.OverheadSim
	// Device is a simulated TrustZone-capable client device.
	Device = tz.Device
	// Network is a feed-forward neural network.
	Network = nn.Network
	// Activation selects layer nonlinearities.
	Activation = nn.Activation
)

// Re-exported fleet types: the round engine's trace and its scenario
// simulator.
type (
	// RoundStats is one round's trace entry (participation, drops,
	// quarantines, aggregate update norm).
	RoundStats = fl.RoundStats
	// FleetScenario parameterises a simulated fleet session.
	FleetScenario = flsim.Scenario
	// FleetProfile describes one simulated client (latency, failure
	// round, TEE capability).
	FleetProfile = flsim.Profile
	// FleetResult is a completed simulation: selection outcome, trace,
	// and final model.
	FleetResult = flsim.Result
	// AsyncFleetScenario replays a seeded fleet through asynchronous
	// buffered federation instead of synchronous rounds.
	AsyncFleetScenario = flsim.AsyncScenario
	// AsyncFleetResult is a completed asynchronous simulation: one
	// trace entry per applied model version, plus push accounting.
	AsyncFleetResult = flsim.AsyncResult
	// Codec selects the negotiated tensor wire encoding for fleet
	// traffic: CodecF64 (exact), CodecF32 (4 B/elem), CodecQ8
	// (1 B/elem, error ≤ range/255 per tensor).
	Codec = wire.Codec
	// Tensor is a dense float64 tensor — model parameters and updates.
	Tensor = tensor.Tensor
)

// Re-exported observability types: the fleet telemetry registry and
// its admin HTTP surface (FleetScenario.Metrics / FleetScenario.Spans
// accept them; see docs/METRICS.md for the metric families).
type (
	// Metrics is a process-wide telemetry registry of counters, gauges,
	// and mergeable histograms with Prometheus text exposition.
	Metrics = obs.Registry
	// AdminServer is the admin HTTP listener: /metrics, /healthz, and
	// /debug/pprof.
	AdminServer = obs.Admin
	// AdminSecurity carries the admin listener's bearer token and TLS
	// key pair; non-loopback binds without a token are refused.
	AdminSecurity = obs.AdminSecurity
	// Health is the /healthz payload summarising a running session.
	Health = obs.Health
	// MetricsSnapshot is a registry's compact wire-portable state: the
	// payload that rides the federation protocol for fleet-wide merging.
	MetricsSnapshot = obs.Snapshot
	// SpanSource names one JSONL span stream for StitchSpans.
	SpanSource = obs.SpanSource
)

// NewMetrics creates an empty telemetry registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// ServeAdmin starts the admin HTTP listener on addr, exporting reg at
// /metrics. Both reg and health may be nil. Loopback binds only; use
// ServeAdminSecure for anything reachable off-host.
func ServeAdmin(addr string, reg *Metrics, health func() Health) (*AdminServer, error) {
	return obs.ServeAdmin(addr, reg, health)
}

// ServeAdminSecure is ServeAdmin with bearer-token auth and optional
// TLS; non-loopback binds are refused unless sec.Token is set.
func ServeAdminSecure(addr string, reg *Metrics, health func() Health, sec AdminSecurity) (*AdminServer, error) {
	return obs.ServeAdminSecure(addr, reg, health, sec)
}

// SnapshotMetrics captures a registry's current state as a compact,
// wire-portable snapshot.
func SnapshotMetrics(reg *Metrics) *MetricsSnapshot { return obs.TakeSnapshot(reg) }

// StitchSpans merges per-tier JSONL span streams into one causal round
// timeline ordered by virtual start time — the cross-tier trace view.
// Deterministic inputs yield byte-identical output.
func StitchSpans(w io.Writer, sources ...SpanSource) error {
	return obs.StitchSpans(w, sources...)
}

// WriteMetrics writes the registry's current state as Prometheus text
// exposition.
func WriteMetrics(w io.Writer, reg *Metrics) error { return obs.WritePrometheus(w, reg) }

// UpdateNorm returns the L2 norm of a flat model state or update — the
// metric the adaptive codec threshold and the sync-vs-async pacing
// comparison use.
func UpdateNorm(update []*Tensor) float64 { return fl.UpdateNorm(update) }

// Tensor wire codecs, in increasing compression order.
const (
	CodecF64 = wire.CodecF64
	CodecF32 = wire.CodecF32
	CodecQ8  = wire.CodecQ8
)

// Plan modes.
const (
	ModeStatic   = core.ModeStatic
	ModeDynamic  = core.ModeDynamic
	ModeDarkneTZ = core.ModeDarkneTZ
)

// Activations.
const (
	ActNone    = nn.ActNone
	ActReLU    = nn.ActReLU
	ActSigmoid = nn.ActSigmoid
	ActTanh    = nn.ActTanh
)

// NewStaticPlan protects an arbitrary (possibly non-successive) layer set.
func NewStaticPlan(layers ...int) (*Plan, error) { return core.NewStaticPlan(layers...) }

// NewDynamicPlan builds a moving-window plan with distribution vmw.
func NewDynamicPlan(sizeMW int, vmw []float64) (*Plan, error) {
	return core.NewDynamicPlan(sizeMW, vmw)
}

// NewDarkneTZPlan builds the contiguous-slice baseline plan.
func NewDarkneTZPlan(first, last int) (*Plan, error) { return core.NewDarkneTZPlan(first, last) }

// NewDevice creates a simulated TrustZone device (4 MiB enclave, Pi-3B+
// cost model).
func NewDevice(name string, opts ...tz.DeviceOption) *Device { return tz.NewDevice(name, opts...) }

// NewSecureTrainer installs the GradSec TA on dev and prepares secure
// training of net under plan.
func NewSecureTrainer(dev *Device, net *Network, plan *Plan, cfg TrainerConfig) (*SecureTrainer, error) {
	return core.NewSecureTrainer(dev, net, plan, cfg)
}

// EstablishServerView connects a trusted-server channel endpoint to the
// trainer's TA (for standalone, non-networked use).
func EstablishServerView(t *SecureTrainer) (*ServerView, error) {
	return core.EstablishServerView(t)
}

// NewOverheadSim builds the Table-6 cost simulator for net.
func NewOverheadSim(net *Network) *OverheadSim { return core.NewOverheadSim(net) }

// NewLeNet5 builds the paper's LeNet-5 (Table 4).
func NewLeNet5(rng *rand.Rand, act Activation) *Network { return nn.NewLeNet5(rng, act) }

// NewAlexNet builds the paper's AlexNet (Table 4).
func NewAlexNet(rng *rand.Rand) *Network { return nn.NewAlexNet(rng) }

// Pi3BCostModel returns the calibrated Raspberry-Pi-3B+/OP-TEE cost model.
func Pi3BCostModel() simclock.CostModel { return simclock.Pi3B() }

// RunFleet simulates an FL session over an in-memory fleet with the
// given scenario, deterministically: identical scenarios yield identical
// traces and final models.
func RunFleet(sc FleetScenario) (*FleetResult, error) { return flsim.Run(sc) }

// RunFleetAsync simulates an asynchronous buffered-federation session
// over the same seeded fleet RunFleet would build, on the same
// virtual-time scheduler: clients push on their own per-device cadence, the
// server folds staleness-discounted updates and applies every
// GoalUpdates folds. Time passes only once every client is parked on its
// training timer, and simultaneous timers fire in client order, so the
// trace is deterministic for any fleet size and latency.
func RunFleetAsync(sc AsyncFleetScenario) (*AsyncFleetResult, error) { return flsim.RunAsync(sc) }

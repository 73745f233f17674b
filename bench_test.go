package gradsec_test

// One sub-benchmark per table and figure of the paper's evaluation (§8).
// Each regenerates the artefact through internal/repro; run
//
//	go test -bench=. -benchmem
//
// and compare against the published values (EXPERIMENTS.md records a
// reference run). The overhead artefacts (Table 6, Figures 7–8) are
// deterministic cost-model computations; the security artefacts
// (Figures 5–6, Table 5) run the real attacks at reduced scale.

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"github.com/gradsec/gradsec"
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/hier"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/repro"
	"github.com/gradsec/gradsec/internal/tensor"
)

// BenchmarkArtefacts regenerates every artefact of internal/repro's
// registry, one sub-benchmark per ID (-bench 'BenchmarkArtefacts/table6').
func BenchmarkArtefacts(b *testing.B) {
	for _, id := range repro.IDs() {
		id := id
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := repro.ByID(id)
				if t == nil || len(t.Rows) == 0 {
					b.Fatalf("artefact %s produced no rows", id)
				}
				t.Print(io.Discard)
				if i == 0 && testing.Verbose() {
					b.Logf("artefact %s: %d rows", id, len(t.Rows))
				}
			}
		})
	}
}

// BenchmarkFleetRound measures one full FL cycle of the concurrent
// round engine over a simulated fleet: every client receives the
// LeNet-5 model, trains (constant-work simulated update), and the
// server streams all updates into the aggregate. Devices are plain
// (no TEE) so the number isolates protocol + codec + aggregation
// throughput rather than attestation crypto. The codec dimension
// sweeps the negotiated wire encoding: f64 is the exact baseline
// protocol, f32 and q8 the compressed transfers. MB/s counts logical
// model-down + update-up traffic (params × 8 bytes), so compressed
// codecs report effective throughput on the same axis as f64.
// EXPERIMENTS.md records a reference run.
func BenchmarkFleetRound(b *testing.B) {
	for _, clients := range []int{64, 256, 1024} {
		for _, codec := range []gradsec.Codec{gradsec.CodecF64, gradsec.CodecF32, gradsec.CodecQ8} {
			if testing.Short() && clients > 64 {
				continue // CI bench smoke: compile-and-run, smallest case only
			}
			b.Run(fmt.Sprintf("clients=%d/codec=%s", clients, codec), func(b *testing.B) {
				model := gradsec.NewLeNet5(rand.New(rand.NewSource(7)), gradsec.ActReLU)
				params := 0
				for _, t := range model.StateDict() {
					params += t.Size()
				}
				b.SetBytes(int64(2 * clients * params * 8)) // model down + update up
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					state := gradsec.NewLeNet5(rand.New(rand.NewSource(7)), gradsec.ActReLU).StateDict()
					b.StartTimer()
					res, err := gradsec.RunFleet(gradsec.FleetScenario{
						Clients:       clients,
						Rounds:        1,
						NoTEEFraction: 1.0,
						Seed:          int64(i + 1),
						Model:         state,
						Codec:         codec,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Trace[0].Responded != clients {
						b.Fatalf("round folded %d of %d updates", res.Trace[0].Responded, clients)
					}
				}
			})
		}
	}
}

// BenchmarkAsyncRound measures the asynchronous buffered-federation
// engine: a deterministic virtual-time fleet where every client pushes the
// moment its (virtual-clock) training timer fires, and the server folds
// each update staleness-discounted and applies the buffer every
// K = clients/4 folds, for 8 model versions per iteration. Devices are
// plain (no TEE) as in BenchmarkFleetRound, so the number isolates the
// async fan-in path: bounded-channel arrivals, per-push fold + re-arm,
// buffered application. MB/s counts logical model-down + update-up
// traffic per fold on the same axis as the synchronous benchmark.
// EXPERIMENTS.md records a reference run.
func BenchmarkAsyncRound(b *testing.B) {
	const versions = 8
	for _, clients := range []int{64, 256} {
		if testing.Short() && clients > 64 {
			continue // CI bench smoke: compile-and-run, smallest case only
		}
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			goal := clients / 4
			model := gradsec.NewLeNet5(rand.New(rand.NewSource(7)), gradsec.ActReLU)
			params := 0
			for _, t := range model.StateDict() {
				params += t.Size()
			}
			b.SetBytes(int64(2 * versions * goal * params * 8)) // model down + update up, per fold
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				state := gradsec.NewLeNet5(rand.New(rand.NewSource(7)), gradsec.ActReLU).StateDict()
				b.StartTimer()
				res, err := gradsec.RunFleetAsync(gradsec.AsyncFleetScenario{
					Scenario: gradsec.FleetScenario{
						Clients:       clients,
						Rounds:        versions,
						MinClients:    1,
						NoTEEFraction: 1.0,
						Seed:          int64(i + 1),
						Model:         state,
					},
					GoalUpdates: goal,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Folds != versions*goal {
					b.Fatalf("session folded %d updates, want %d", res.Folds, versions*goal)
				}
			}
		})
	}
}

// benchModel builds the LeNet-5 flat state used by the fan-in
// benchmarks.
func benchModel() []*tensor.Tensor {
	return gradsec.NewLeNet5(rand.New(rand.NewSource(7)), gradsec.ActReLU).StateDict()
}

// runFlatStubRound drives one flat FL round against `fleet` stub
// clients that answer every ModelDown with one precomputed GradUp
// frame. The stubs spend no cycles on training or encoding, so the
// measured work is the server's own fan-in: `fleet` model
// distributions, `fleet` update decodes, `fleet` folds. cfg carries
// optional engine settings (telemetry, deadlines); Rounds is forced
// to 1.
func runFlatStubRound(b *testing.B, fleet int, state []*tensor.Tensor, cfg fl.ServerConfig) {
	b.Helper()
	upd := make([]*tensor.Tensor, len(state))
	for i, t := range state {
		upd[i] = tensor.Full(0.25, t.Shape...)
	}
	payload := fl.EncodeMessageCodec(&fl.GradUp{Round: 0, Plain: upd}, gradsec.CodecF64)
	conns := make([]fl.Conn, fleet)
	var wg sync.WaitGroup
	for i := range conns {
		server, client := fl.Pipe()
		conns[i] = server
		wg.Add(1)
		go func(id int, c fl.Conn) {
			defer wg.Done()
			defer c.Close()
			msg, err := c.Recv()
			if err != nil {
				return
			}
			ch, ok := msg.(*fl.Challenge)
			if !ok {
				return
			}
			if err := c.Send(&fl.Attest{DeviceID: fmt.Sprintf("stub-%05d", id), Codec: ch.Codec}); err != nil {
				return
			}
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				switch m.(type) {
				case *fl.ModelDown:
					if err := c.SendFrame(fl.MsgGradUp, payload); err != nil {
						return
					}
				default:
					return // Done or teardown
				}
			}
		}(i, client)
	}
	cfg.Rounds = 1
	srv := fl.NewServer(state, cfg)
	if _, err := srv.Run(conns); err != nil {
		b.Fatal(err)
	}
	wg.Wait()
}

// BenchmarkObsRound isolates the telemetry tax on the server's round
// fan-in: the flat stub-client round of BenchmarkHierRound, run with
// observability disabled (the shipped default — ServerConfig.Metrics
// and Spans nil, every instrument call a nil-receiver no-op) and
// enabled (a live registry plus a JSONL span sink writing to
// io.Discard). Compare the two cases with -benchmem: the disabled
// case must cost zero extra allocations over a build without the
// subsystem. EXPERIMENTS.md records a reference pair.
func BenchmarkObsRound(b *testing.B) {
	const fleet = 256
	cases := []struct {
		name string
		cfg  func() fl.ServerConfig
	}{
		{name: "obs=off", cfg: func() fl.ServerConfig { return fl.ServerConfig{} }},
		{name: "obs=on", cfg: func() fl.ServerConfig {
			return fl.ServerConfig{
				Metrics: obs.NewRegistry(),
				Spans:   obs.NewTraceSink(io.Discard, nil),
			}
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			model := benchModel()
			params := 0
			for _, t := range model {
				params += t.Size()
			}
			b.SetBytes(int64(2 * fleet * params * 8)) // model down + update up
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				state := benchModel()
				cfg := tc.cfg()
				b.StartTimer()
				runFlatStubRound(b, fleet, state, cfg)
			}
		})
	}
}

// BenchmarkObsRoundMerged measures the root-side cost of the in-band
// telemetry plane: per iteration, 16 shard registries each record one
// round of engine activity, cut a delta snapshot, and the root decodes
// and folds every snapshot into the fleet registry under tier/shard
// labels — the exact work hier.Root does per round when every edge
// piggybacks telemetry on its PartialUp. Compare ns/op and B/op
// against one BenchmarkObsRound fan-in to size the telemetry tax.
func BenchmarkObsRoundMerged(b *testing.B) {
	const shards = 16
	phases := []string{"sample", "broadcast", "collect", "close", "round"}
	edges := make([]*obs.Registry, shards)
	snaps := make([]*obs.Snapshotter, shards)
	names := make([]string, shards)
	for s := range edges {
		edges[s] = obs.NewRegistry()
		snaps[s] = obs.NewSnapshotter(edges[s])
		names[s] = fmt.Sprintf("edge-%03d", s)
	}
	root := obs.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < shards; s++ {
			edges[s].Counter("gradsec_rounds_total", "rounds", "mode", "sync", "result", "ok").Inc()
			for _, phase := range phases {
				edges[s].Histogram("gradsec_phase_ns", "phase latency", "phase", phase).
					ObserveEx(int64(1000*(s+1)+i), i)
			}
			snap, err := obs.DecodeSnapshot(snaps[s].Delta())
			if err != nil {
				b.Fatal(err)
			}
			root.MergeSnapshot(snap, "tier", "edge", "shard", names[s])
		}
	}
}

// runHierStubRound drives one hierarchical FL round against `shards`
// stub edges, each representing fleet/shards clients through one
// precomputed PartialUp frame. The measured work is the root's fan-in:
// `shards` ShardDown broadcasts, `shards` partial decodes and folds —
// independent of the fleet size the partials claim to represent.
func runHierStubRound(b *testing.B, fleet, shards int, state []*tensor.Tensor) {
	b.Helper()
	shardSize := fleet / shards
	sum := make([]*tensor.Tensor, len(state))
	for i, t := range state {
		sum[i] = tensor.Full(0.25*float64(shardSize), t.Shape...)
	}
	payload := fl.EncodeMessageCodec(&fl.PartialUp{
		Round: 0, Sum: sum, Weight: float64(shardSize),
		Count: uint64(shardSize), Sampled: uint64(shardSize),
	}, gradsec.CodecF64)
	conns := make([]fl.Conn, shards)
	var wg sync.WaitGroup
	for s := range conns {
		rootSide, edgeSide := fl.Pipe()
		conns[s] = rootSide
		wg.Add(1)
		go func(id int, c fl.Conn) {
			defer wg.Done()
			defer c.Close()
			msg, err := c.Recv()
			if err != nil {
				return
			}
			ch, ok := msg.(*fl.Challenge)
			if !ok {
				return
			}
			if err := c.Send(&fl.Attest{DeviceID: fmt.Sprintf("edge-%03d", id), Codec: ch.Codec}); err != nil {
				return
			}
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				switch m.(type) {
				case *fl.ShardDown:
					if err := c.SendFrame(fl.MsgPartialUp, payload); err != nil {
						return
					}
				default:
					return // Done or teardown
				}
			}
		}(s, edgeSide)
	}
	root := hier.NewRoot(state, hier.RootConfig{Rounds: 1, MinShards: shards})
	if _, err := root.Run(conns); err != nil {
		b.Fatal(err)
	}
	wg.Wait()
}

// BenchmarkHierRound isolates root-side fan-in cost across the
// hierarchy design space: one FL round of the LeNet-5 model over
// protocol stubs that answer instantly (no training, no client-side
// encode), so ns/op and B/op measure what the aggregation tier itself
// must do per round. "flat" is the single-tier baseline — the server
// fans in every client directly and its cost grows with the fleet;
// "shards=K" is the hierarchical root fanning in K edge partials —
// its cost grows with K and stays flat as the fleet behind the edges
// quadruples from 4096 to 16384 (the acceptance claim of PR 4).
// End-to-end hierarchy correctness at these sizes is covered by the
// flsim multi-tier scenarios. EXPERIMENTS.md records a reference run.
func BenchmarkHierRound(b *testing.B) {
	for _, fleet := range []int{4096, 16384} {
		for _, shards := range []int{0, 16, 64} { // 0 = flat baseline
			if testing.Short() && (fleet > 4096 || shards == 0) {
				continue // CI bench smoke: the flat 4096/16384-client fan-ins dominate
			}
			name := fmt.Sprintf("fleet=%d/mode=flat", fleet)
			if shards > 0 {
				name = fmt.Sprintf("fleet=%d/mode=shards-%d", fleet, shards)
			}
			b.Run(name, func(b *testing.B) {
				model := benchModel()
				params := 0
				for _, t := range model {
					params += t.Size()
				}
				// Root-side logical traffic: one model down and one
				// aggregate-sized payload up per fan-in peer.
				peers := fleet
				if shards > 0 {
					peers = shards
				}
				b.SetBytes(int64(2 * peers * params * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					state := benchModel()
					b.StartTimer()
					if shards == 0 {
						runFlatStubRound(b, fleet, state, fl.ServerConfig{})
					} else {
						runHierStubRound(b, fleet, shards, state)
					}
				}
			})
		}
	}
}

// BenchmarkSecAggRound measures the cost of the privacy ladder at
// fleet scale: one full FL cycle per mode over the LeNet-5 model.
// "plain" is the PR 2 baseline (plaintext FedAvg); "masked" adds
// fixed-point masked aggregation over the k-regular graph (auto
// degree ⌈log₂ n⌉ rounded to even, floored at 6: 8 B/element level
// transfer, k AES-CTR mask expansions per client plus one
// Shamir-shared self mask); and "enclave" additionally routes one protected tensor through the
// simulated aggregation enclave's sealed path. MB/s counts logical
// model-down + update-up traffic on the same axis as BenchmarkFleetRound.
// EXPERIMENTS.md records a reference run.
func BenchmarkSecAggRound(b *testing.B) {
	type mode struct {
		name    string
		secagg  bool
		protect []int
	}
	modes := []mode{
		{name: "plain"},
		{name: "masked", secagg: true},
		{name: "enclave", secagg: true, protect: []int{0}},
	}
	for _, clients := range []int{64, 256, 1024} {
		for _, m := range modes {
			if testing.Short() && clients > 64 {
				continue // CI bench smoke: the 1024-client masked rounds alone take minutes
			}
			b.Run(fmt.Sprintf("clients=%d/mode=%s", clients, m.name), func(b *testing.B) {
				model := gradsec.NewLeNet5(rand.New(rand.NewSource(7)), gradsec.ActReLU)
				params := 0
				for _, t := range model.StateDict() {
					params += t.Size()
				}
				b.SetBytes(int64(2 * clients * params * 8)) // model down + update up
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					state := gradsec.NewLeNet5(rand.New(rand.NewSource(7)), gradsec.ActReLU).StateDict()
					b.StartTimer()
					res, err := gradsec.RunFleet(gradsec.FleetScenario{
						Clients: clients,
						Rounds:  1,
						SecAgg:  m.secagg,
						Protect: m.protect,
						Seed:    int64(i + 1),
						Model:   state,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Trace[0].Responded != clients {
						b.Fatalf("round folded %d of %d updates", res.Trace[0].Responded, clients)
					}
				}
			})
		}
	}
}

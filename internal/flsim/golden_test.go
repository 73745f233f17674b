package flsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// hashOutcome folds everything a scenario promises to reproduce — the
// selection split, the trace, the final model's bits, the quarantine
// set and the virtual time consumed — into one SHA-256.
func hashOutcome(selected, rejected int, trace []fl.RoundStats, final []*tensor.Tensor, quarantined []string, elapsed time.Duration) string {
	h := sha256.New()
	fmt.Fprintf(h, "selected %d rejected %d elapsed %d\n", selected, rejected, elapsed)
	for _, st := range trace {
		// %+v covers every counter; the two floats also go in as bits.
		fmt.Fprintf(h, "%+v %x %x\n", st, math.Float64bits(st.WeightTotal), math.Float64bits(st.UpdateNorm))
	}
	hashModel(h, final)
	fmt.Fprintf(h, "quarantined %q\n", quarantined)
	return hex.EncodeToString(h.Sum(nil))
}

func hashModel(h hash.Hash, model []*tensor.Tensor) {
	var b [8]byte
	for _, t := range model {
		fmt.Fprintf(h, "tensor %v\n", t.Shape)
		for _, v := range t.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}

// TestGoldenTraces pins absolute outcomes — not run against run, but
// against hashes recorded with the hand-written simulated devices that
// preceded fl.Client in this harness (PR 19's parent commit). Every
// Profile role and session mode has a row; a change that moves one has
// changed what a simulated device or the engine does on the wire.
func TestGoldenTraces(t *testing.T) {
	syncCases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"plain-f64", Scenario{Clients: 16, Rounds: 3, Seed: 9},
			"908314647e56afa9b2e924c795adf706ddd442ae93cfbcac00b6771748046740"},
		{"plain-q8", Scenario{Clients: 16, Rounds: 3, Seed: 9, Codec: wire.CodecQ8},
			"908314647e56afa9b2e924c795adf706ddd442ae93cfbcac00b6771748046740"},
		{"weighted-sampled", Scenario{Clients: 24, Rounds: 4, MinClients: 2, SampleFraction: 0.5, WeightedExamples: true, Seed: 42},
			"88a27a886dfb739418017cdb4544fb56c7e00ad20389a482467c38f3785b34c6"},
		{"stragglers-deadline", Scenario{Clients: 16, Rounds: 4, Deadline: time.Second, StragglerFraction: 0.25, Seed: 7},
			"c84816006b860190f013840df665a431977b48506c26c7aa521e210284e12ca5"},
		{"fail-permanent", Scenario{Clients: 12, Rounds: 5, FailureFraction: 0.25, Seed: 3},
			"860688e7f74e0fb9b199c769d9ce23db6b6f1ddae711d8ed698050803b188611"},
		{"fail-once-probation", Scenario{Clients: 12, Rounds: 6, FailureFraction: 0.25, QuarantineRounds: 1, Seed: 3},
			"db3b55c05be4e995198aadfb218ed746eb009dc522f6275020f490166af7cc73"},
		{"disconnect", Scenario{Clients: 16, Rounds: 5, MinClients: 2, DisconnectFraction: 0.25, DisconnectRound: 2, Seed: 13},
			"2dd08583e9070a8371aa6cfc96fe1f63fecfd74c664e4a2dc16944c317ccd396"},
		{"no-tee-rejected", Scenario{Clients: 16, Rounds: 3, NoTEEFraction: 0.25, RequireTEE: true, Seed: 5},
			"04340d2ef8f87436f43612b04b4de05c094d9865d691e9387b295c92ec0915ba"},
		{"protect-sealed", Scenario{Clients: 12, Rounds: 3, Protect: []int{0}, WeightedExamples: true, RequireTEE: true, Seed: 11},
			"7c66259ef74b835218087484fce0b4f671a701610989202187b536b47bf9cfa7"},
		{"secagg-stragglers", Scenario{Clients: 20, Rounds: 4, Deadline: time.Second, StragglerFraction: 0.1, SecAgg: true, WeightedExamples: true, Seed: 7},
			"89a2bfb70bc9046e2455e14d04e498e19983b85007354ec7331e3c0e197c5a58"},
		{"secagg-pinned-degree", Scenario{Clients: 20, Rounds: 3, Deadline: time.Second, StragglerFraction: 0.25, SecAgg: true, MaskDegree: 12, Seed: 7},
			"728abc68a2ffd9b5d2f8766d54a14ec60f81e3b79f352d22de13d784a8e14114"},
		{"secagg-enclave", Scenario{Clients: 16, Rounds: 3, Deadline: time.Second, StragglerFraction: 0.125, Protect: []int{1}, RequireTEE: true, SecAgg: true, Seed: 5},
			"1c9cf228d3f0e759d4e4ee02e3f98a584e1ffaeb3904ca549ff680047adf3161"},
		{"poison-signflip-trimmed", Scenario{Clients: 20, Rounds: 4, PoisonFraction: 0.2, Aggregation: "trimmed-mean", TrimFraction: 0.25, Seed: 17},
			"334a4dcf8272f69c792c8f3930e077a73829f0f2c4da676db6486a86daf1a7e7"},
		{"poison-scale-fedavg", Scenario{Clients: 20, Rounds: 3, PoisonFraction: 0.2, PoisonMode: "scale", PoisonGamma: 8, Protect: []int{0}, Seed: 17},
			"627d210518f9b3005920ecbf61308e3ee4853cfd3dc3671fd18a1905f6afed4c"},
		{"hier-plain", Scenario{Clients: 32, Rounds: 4, Shards: 4, WeightedExamples: true, FailureFraction: 0.125, QuarantineRounds: 1, Seed: 42},
			"a34de3a916c8b3c25147ee02987e9eeb18b40b6782f19e736a72779ccbbbaead"},
		{"hier-stragglers-q8", Scenario{Clients: 32, Rounds: 4, Shards: 4, MinShards: 3, Deadline: time.Second, ShardStragglers: []float64{0, 0.25, 0, 0.5}, SampleFraction: 0.75, Codec: wire.CodecQ8, Seed: 21},
			"5343995c0e2d3dfe26cfa1b1950be45f7a348e13c383e45ab86355a6e645c095"},
		{"hier-masked", Scenario{Clients: 32, Rounds: 4, Shards: 4, SecAgg: true, Deadline: time.Second, StragglerFraction: 0.0625, WeightedExamples: true, Seed: 42},
			"0ecb3a6ab2cfb41df83cd7184522a2a50cf3b8ad7a5da2e7611d6277103af504"},
		{"hier-protect-sealed", Scenario{Clients: 16, Rounds: 3, Shards: 4, Protect: []int{1}, RequireTEE: true, Seed: 8},
			"4f78581c890c24ad875eefec22adc5b5c844b1679515e89ed048cc99ca59fc95"},
	}
	for _, tc := range syncCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			got := hashOutcome(res.Selected, res.Rejected, res.Trace, res.Final, res.Quarantined, res.Elapsed)
			if got != tc.want {
				t.Fatalf("outcome hash %s, recorded %s\ntrace: %+v", got, tc.want, res.Trace)
			}
		})
	}

	asyncCases := []struct {
		name string
		sc   AsyncScenario
		want string
	}{
		{"async-staleness", AsyncScenario{Scenario: asyncBase(), Versions: 12, GoalUpdates: 6, MaxStaleness: 2},
			"a3eee04dab21537bc36e279f6be603f5640ff59b68ac0bf233e7f5b40d7311ae"},
		{"async-weighted-q8", AsyncScenario{
			Scenario:    Scenario{Clients: 12, Rounds: 5, StragglerFraction: 0.25, Deadline: time.Second, WeightedExamples: true, NoTEEFraction: 0.25, Codec: wire.CodecQ8, Seed: 4},
			GoalUpdates: 4, FastLatency: 20 * time.Millisecond, SlowLatency: 70 * time.Millisecond},
			"fd8edb1879040a884458b36cb608052e4c4ab48dfe6cf5650b5d5f1c85a063ff"},
	}
	for _, tc := range asyncCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunAsync(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			got := hashOutcome(res.Selected, res.Rejected, res.Trace, res.Final, nil, res.Elapsed)
			if got != tc.want {
				t.Fatalf("outcome hash %s, recorded %s\ntrace: %+v", got, tc.want, res.Trace)
			}
		})
	}
}

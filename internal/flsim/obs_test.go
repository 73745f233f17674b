package flsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/obs"
)

func obsScenario() Scenario {
	return Scenario{
		Clients:           32,
		Rounds:            4,
		MinClients:        4,
		SampleFraction:    0.5,
		Deadline:          2 * time.Second,
		StragglerFraction: 0.20,
		Seed:              42,
	}
}

// TestSpansDeterministicAndNonPerturbing: enabling span export must not
// change the trace (telemetry never feeds back into the protocol), and
// two runs of the same scenario must write byte-identical JSONL —
// spans are timed on the virtual clock, not the wall clock.
func TestSpansDeterministicAndNonPerturbing(t *testing.T) {
	plain, err := Run(obsScenario())
	if err != nil {
		t.Fatal(err)
	}

	var bufA, bufB bytes.Buffer
	scA := obsScenario()
	scA.Spans = &bufA
	a, err := Run(scA)
	if err != nil {
		t.Fatal(err)
	}
	scB := obsScenario()
	scB.Spans = &bufB
	if _, err := Run(scB); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(a.Trace, plain.Trace) {
		t.Fatalf("span export perturbed the trace:\n  plain: %+v\n  spans: %+v", plain.Trace, a.Trace)
	}
	if bufA.Len() == 0 {
		t.Fatal("span export wrote nothing")
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("span streams differ between identical runs:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}

	// Every line is a well-formed span record on the expected schema.
	lines := strings.Split(strings.TrimRight(bufA.String(), "\n"), "\n")
	rounds := 0
	for _, line := range lines {
		var rec struct {
			Span    string `json:"span"`
			Round   int    `json:"round"`
			StartUS int64  `json:"start_us"`
			DurUS   int64  `json:"dur_us"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		if rec.Span == "" || rec.StartUS < 0 || rec.DurUS < 0 {
			t.Fatalf("implausible span record %q", line)
		}
		if rec.Span == "round" {
			rounds++
		}
	}
	if rounds != 4 {
		t.Fatalf("got %d round spans, want 4", rounds)
	}
}

// TestMetricsDeterministicAndAccounted: a metrics-enabled run reports
// the same trace as a plain run (modulo the byte counters only a meter
// can fill), and the registry's round and byte totals agree with the
// trace.
func TestMetricsDeterministicAndAccounted(t *testing.T) {
	plain, err := Run(obsScenario())
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	sc := obsScenario()
	sc.Metrics = reg
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	var upTotal, downTotal uint64
	stripped := make([]fl.RoundStats, len(res.Trace))
	for i, st := range res.Trace {
		if st.BytesUp == 0 || st.BytesDown == 0 {
			t.Fatalf("round %d has no wire accounting: %+v", st.Round, st)
		}
		upTotal += st.BytesUp
		downTotal += st.BytesDown
		st.BytesUp, st.BytesDown = 0, 0
		stripped[i] = st
	}
	if !reflect.DeepEqual(stripped, plain.Trace) {
		t.Fatalf("metrics perturbed the trace:\n  plain:   %+v\n  metrics: %+v", plain.Trace, stripped)
	}

	if got := reg.Counter("gradsec_rounds_total", "", "mode", "sync", "result", "ok").Value(); got != uint64(len(res.Trace)) {
		t.Fatalf("rounds_total{ok} = %d, want %d", got, len(res.Trace))
	}
	if got := reg.Counter("gradsec_wire_bytes_total", "", "direction", "up").Value(); got != upTotal {
		t.Fatalf("wire_bytes_total{up} = %d, trace sums to %d", got, upTotal)
	}
	if got := reg.Counter("gradsec_wire_bytes_total", "", "direction", "down").Value(); got != downTotal {
		t.Fatalf("wire_bytes_total{down} = %d, trace sums to %d", got, downTotal)
	}
	for _, phase := range []string{"sample", "broadcast", "collect", "close", "round"} {
		if got := reg.Histogram("gradsec_phase_ns", "", "phase", phase).Count(); got != uint64(len(res.Trace)) {
			t.Fatalf("phase_ns{%s} count = %d, want %d", phase, got, len(res.Trace))
		}
	}
}

// TestHierMetricsAndSpans: the hierarchical tier reports root fan-in
// telemetry and deterministic spans on the same virtual clock.
func TestHierMetricsAndSpans(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Clients:    24,
			Rounds:     3,
			MinClients: 2,
			Shards:     4,
			Seed:       9,
		}
	}
	plain, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}

	var bufA, bufB bytes.Buffer
	reg := obs.NewRegistry()
	scA := base()
	scA.Metrics = reg
	scA.Spans = &bufA
	res, err := Run(scA)
	if err != nil {
		t.Fatal(err)
	}
	scB := base()
	scB.Spans = &bufB
	if _, err := Run(scB); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(res.Trace, plain.Trace) {
		t.Fatalf("hier telemetry perturbed the trace:\n  plain: %+v\n  obs:   %+v", plain.Trace, res.Trace)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("hier span streams differ between identical runs:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
	if got := reg.Counter("gradsec_hier_rounds_total", "", "result", "ok").Value(); got != 3 {
		t.Fatalf("hier_rounds_total{ok} = %d, want 3", got)
	}
	if got := reg.Histogram("gradsec_hier_fanin_ns", "").Count(); got != 3 {
		t.Fatalf("hier_fanin_ns count = %d, want 3", got)
	}
	if got := reg.Histogram("gradsec_hier_partial_ns", "").Count(); got != 3*4 {
		t.Fatalf("hier_partial_ns count = %d, want %d", got, 3*4)
	}
}

// snapInstrument finds one instrument in a snapshot by family name and
// exact label values.
func snapInstrument(s *obs.Snapshot, family string, vals ...string) *obs.SnapInstrument {
	for fi := range s.Families {
		f := &s.Families[fi]
		if f.Name != family {
			continue
		}
		for ii := range f.Instruments {
			if reflect.DeepEqual(f.Instruments[ii].LabelVals, vals) {
				return &f.Instruments[ii]
			}
		}
	}
	return nil
}

// TestFleetTelemetryPlane: the in-band telemetry plane end to end.
// Each edge's registry deltas ride its PartialUps into the root's
// fleet registry under tier/shard labels; the merged histograms must
// reconcile bucket for bucket with the per-edge registries, the trace
// must be unperturbed, and the stitched cross-tier span timeline must
// be byte-identical across reruns on the virtual clock.
func TestFleetTelemetryPlane(t *testing.T) {
	const shards, rounds = 4, 3
	base := func() Scenario {
		return Scenario{Clients: 24, Rounds: rounds, MinClients: 2, Shards: shards, Seed: 9}
	}
	plain, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}

	run := func() (*Result, *obs.Registry, string) {
		reg := obs.NewRegistry()
		sc := base()
		sc.Metrics = reg
		sc.FleetTelemetry = true
		var rootSpans bytes.Buffer
		sc.Spans = &rootSpans
		edgeBufs := make([]*bytes.Buffer, shards)
		sc.EdgeSpans = make([]io.Writer, shards)
		for i := range edgeBufs {
			edgeBufs[i] = &bytes.Buffer{}
			sc.EdgeSpans[i] = edgeBufs[i]
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		srcs := []obs.SpanSource{{Name: "root", R: bytes.NewReader(rootSpans.Bytes())}}
		for i, buf := range edgeBufs {
			srcs = append(srcs, obs.SpanSource{Name: fmt.Sprintf("edge-%03d", i), R: bytes.NewReader(buf.Bytes())})
		}
		var stitched bytes.Buffer
		if err := obs.StitchSpans(&stitched, srcs...); err != nil {
			t.Fatal(err)
		}
		return res, reg, stitched.String()
	}
	res, reg, stitched := run()
	_, _, stitchedB := run()

	if !reflect.DeepEqual(res.Trace, plain.Trace) {
		t.Fatalf("fleet telemetry perturbed the trace:\n  plain: %+v\n  fleet: %+v", plain.Trace, res.Trace)
	}
	if stitched != stitchedB {
		t.Fatalf("stitched timelines differ across reruns:\n%s\nvs\n%s", stitched, stitchedB)
	}
	lines := strings.Split(strings.TrimSuffix(stitched, "\n"), "\n")
	// One hier_round span per round plus 6 shard-phase spans per shard
	// round (sample/broadcast/collect/close/round and the per-shard
	// engine's own round phases overlap: exact composition is pinned by
	// the obs unit tests; here every line must parse and carry a trace).
	if len(lines) < rounds*(1+shards) {
		t.Fatalf("stitched timeline implausibly short (%d lines):\n%s", len(lines), stitched)
	}
	for _, line := range lines {
		if !strings.Contains(line, `"trace":"`) {
			t.Fatalf("stitched span without a trace ID: %s", line)
		}
	}

	// Reconciliation: every root-merged shard histogram equals the
	// edge's own registry bucket for bucket, and the fleet-wide family
	// is exactly the per-shard sum.
	if len(res.EdgeMetrics) != shards {
		t.Fatalf("EdgeMetrics has %d registries, want %d", len(res.EdgeMetrics), shards)
	}
	rootSnap := obs.TakeSnapshot(reg)
	phases := []string{"sample", "broadcast", "collect", "close", "round"}
	for s, ereg := range res.EdgeMetrics {
		shard := fmt.Sprintf("edge-%03d", s)
		edgeSnap := obs.TakeSnapshot(ereg)
		for _, phase := range phases {
			want := snapInstrument(edgeSnap, "gradsec_phase_ns", phase)
			got := snapInstrument(rootSnap, "gradsec_phase_ns", phase, "edge", shard)
			if want == nil || got == nil {
				t.Fatalf("shard %s phase %s missing from a snapshot (edge %v, root %v)", shard, phase, want != nil, got != nil)
			}
			if !reflect.DeepEqual(got.BucketIdx, want.BucketIdx) || !reflect.DeepEqual(got.BucketN, want.BucketN) ||
				got.Count != want.Count || got.Sum != want.Sum {
				t.Fatalf("shard %s phase %s: root-merged buckets diverge from the edge registry:\nroot: %+v\nedge: %+v",
					shard, phase, got, want)
			}
			if want.Count != rounds {
				t.Fatalf("shard %s phase %s observed %d rounds, want %d", shard, phase, want.Count, rounds)
			}
		}
		if got := reg.Counter("gradsec_rounds_total", "", "mode", "sync", "result", "ok", "tier", "edge", "shard", shard).Value(); got != rounds {
			t.Fatalf("rounds_total{%s} = %d, want %d", shard, got, rounds)
		}
	}

	// Fleet-wide exposition: the merged family renders per-shard
	// quantile-ready histograms with the tier/shard label scheme.
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for s := 0; s < shards; s++ {
		probe := fmt.Sprintf(`gradsec_phase_ns_count{phase="round",tier="edge",shard="edge-%03d"}`, s)
		if !strings.Contains(expo, probe) {
			t.Fatalf("fleet exposition misses %s:\n%s", probe, expo)
		}
	}
}

// phaseCounts reads one tier's span stream into per-round counts of each
// span name.
func phaseCounts(t *testing.T, stream []byte) map[int]map[string]int {
	t.Helper()
	out := make(map[int]map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(string(stream)), "\n") {
		var rec struct {
			Span  string `json:"span"`
			Round int    `json:"round"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		if out[rec.Round] == nil {
			out[rec.Round] = make(map[string]int)
		}
		out[rec.Round][rec.Span]++
	}
	return out
}

// TestEveryModeTimesEveryPhase: every tier of every synchronous mode
// times each phase of each round exactly once — sample, broadcast,
// collect, close (the gates, a nested reconcile and the commit) and the
// round itself — and a masked device tier times one reconcile per
// committed round. Each tier's span stream is read per round; on the
// edges, whose registry deltas ride upstream (FleetTelemetry), the phase
// histograms must agree.
func TestEveryModeTimesEveryPhase(t *testing.T) {
	const rounds, shards = 3, 4
	for _, tc := range []struct {
		name   string
		secAgg bool
		hier   bool
	}{
		{"plain-flat", false, false},
		{"masked-flat", true, false},
		{"plain-4-shard", false, true},
		{"masked-4-shard", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := Scenario{Clients: 24, Rounds: rounds, SecAgg: tc.secAgg, Seed: 9, Metrics: obs.NewRegistry()}
			var top bytes.Buffer
			sc.Spans = &top
			var edges []*bytes.Buffer
			if tc.hier {
				sc.Shards, sc.FleetTelemetry = shards, true
				for i := 0; i < shards; i++ {
					edges = append(edges, &bytes.Buffer{})
					sc.EdgeSpans = append(sc.EdgeSpans, edges[i])
				}
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			// check asserts one tier's phases; recon is the reconcile count
			// every round must show.
			check := func(tier string, stream []byte, roundSpan string, recon int) {
				counts := phaseCounts(t, stream)
				for r := 0; r < rounds; r++ {
					for _, phase := range []string{"sample", "broadcast", "collect", "close", roundSpan} {
						if got := counts[r][phase]; got != 1 {
							t.Errorf("%s round %d: %s timed %d times, want 1", tier, r, phase, got)
						}
					}
					if got := counts[r]["reconcile"]; got != recon {
						t.Errorf("%s round %d: reconcile timed %d times, want %d", tier, r, got, recon)
					}
				}
			}
			recon := 0
			if tc.secAgg {
				recon = 1 // every round commits, and every cohort's mask graph has edges
			}
			if !tc.hier {
				check("server", top.Bytes(), "round", recon)
				return
			}
			check("root", top.Bytes(), "hier_round", 0)
			for i, buf := range edges {
				shard := fmt.Sprintf("edge-%03d", i)
				check(shard, buf.Bytes(), "round", recon)
				for _, phase := range []string{"sample", "broadcast", "collect", "close", "round", "reconcile"} {
					want := uint64(rounds)
					if phase == "reconcile" {
						want = uint64(rounds * recon)
					}
					if got := res.EdgeMetrics[i].Histogram("gradsec_phase_ns", "", "phase", phase).Count(); got != want {
						t.Errorf("%s registry: phase %s observed %d times, want %d", shard, phase, got, want)
					}
				}
			}
		})
	}
}

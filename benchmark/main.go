// Command benchmark is the repository's performance ledger: seven named
// workloads, a gated end-to-end ledger measured with tracing off, and a
// per-layer ledger from a traced run. See README.md in this directory.
//
//	go run ./benchmark -seed 1                      every workload, untraced
//	go run ./benchmark -seed 1 -trace 1             plus the traced pass and layer probes
//	go run ./benchmark -workload fleet-f64 -seed 1  one workload; the last stdout line is its JSON result
//	go run ./benchmark -seed 1 -repeat 2            self-agreement check against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"github.com/gradsec/gradsec/internal/wire"
)

// workloads is the benchmark's fixed workload set. Later changes refer
// to workloads and metrics by these names.
var workloads = []*workload{
	{
		name: "device-train", nominalOp: 0.18, opMultiple: devicePeriod, examplesPerOp: deviceIterations * deviceBatch,
		why:      "one TrustZone device: secure LeNet-5 training under a moving window plus the server-side unseal; all time is tensor/autodiff/nn/core/tz",
		rootSpan: "device.op", probes: []string{"tensor", "nn", "core", "tz", "obs"},
		run: runDeviceTrain,
	},
	{
		name: "fleet-f64", nominalOp: 0.15,
		why:      "flat server, 256 clients, f64, plain FedAvg: the default deployment and the materialising decode-then-AxPy fold",
		rootSpan: "fl.round", probes: []string{"axpy", "wire-f64", "fl", "obs"},
		run: func(s *session) error { return runFleetSync(s, fleetOpts{codec: wire.CodecF64}) },
	},
	{
		name: "fleet-q8", nominalOp: 0.1,
		why:      "same fleet over q8: the lazy Q8Tensor + AccumulateQ8 fold that materialises nothing, which an f64 fold change must not slow",
		rootSpan: "fl.round", probes: []string{"wire-q8", "fl"},
		run: func(s *session) error { return runFleetSync(s, fleetOpts{codec: wire.CodecQ8}) },
	},
	{
		name: "fleet-masked", nominalOp: 0.5,
		why:      "secure aggregation on the k=8 mask graph with 3 stragglers per round: PRG, X25519, Shamir and both reconciliation paths every round",
		rootSpan: "fl.round", probes: []string{"wire-u64", "secagg", "fl"},
		run: func(s *session) error { return runFleetSync(s, fleetOpts{secAgg: true}) },
	},
	{
		name: "async-f64", nominalOp: 0.035,
		why:      "barrier-free RunAsync, 256 free-running clients, one model version per 64 folds: same fold layer, different pacing",
		rootSpan: "fl.version", probes: []string{"axpy", "wire-f64", "fl"},
		run: runFleetAsync,
	},
	{
		name: "hier-f64", nominalOp: 0.13,
		why:      "hier.Root over 8 edges of 32 clients: the fourth round loop, fl.Server partial mode and exact partial sums",
		rootSpan: "hier.round", probes: []string{"axpy", "wire-f64", "wire-exact", "fl"},
		run: runHier,
	},
	{
		name: "tcp-tee", nominalOp: 0.025, examplesPerOp: tcpDevices * 3 * 12,
		why:      "the paper's deployment over loopback TCP: 4 attested GradSec devices, sealed weights and updates, journaled server; every layer runs",
		rootSpan: "fl.round", probes: []string{"tensor", "nn", "tz", "wire-f64", "fl", "journal"},
		run: runTCPTee,
	},
}

// outDir is where span files and scratch files (the tcp-tee journal)
// go, relative to the repository root the benchmark is run from. It is
// git-ignored.
const outDir = "benchmark/out"

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the single-workload result line the benchmark
// driver reads: the last line of standard output.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadReport is one workload's entry in the -out file.
type workloadReport struct {
	Ops       int                    `json:"ops"`
	FailedOps int                    `json:"failed_ops"`
	Failures  []string               `json:"failures,omitempty"`
	Samples   int                    `json:"samples"`
	RoundQ1   float64                `json:"round_s_q1"`
	RoundQ2   float64                `json:"round_s_p50"`
	RoundQ3   float64                `json:"round_s_q3"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	SpanFile  string                 `json:"span_file,omitempty"`
}

// report is the -out file.
type report struct {
	Commit     string                     `json:"commit"`
	GoVersion  string                     `json:"go_version"`
	CPU        string                     `json:"cpu"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Workloads  map[string]*workloadReport `json:"workloads"`
	Metrics    struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	} `json:"metrics"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		out[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

func printMetrics(workload string, defs []metricDef, vals map[string]float64) {
	for _, m := range defs {
		fmt.Printf("%s %s %.6g %s\n", workload, m.Name, vals[m.Name], m.Unit)
	}
}

// measure runs the selected workloads once (plus the traced pass and
// probes when traced) and returns each workload's report.
func measure(cfg *config, selected []*workload, traced bool, gomaxprocs int) (map[string]*workloadReport, error) {
	modes := []bool{false}
	if traced {
		modes = []bool{false, true}
	}
	passes := runSet(cfg, selected, modes)
	reports := make(map[string]*workloadReport, len(selected))
	for _, w := range selected {
		un := passes[0][w.name]
		e2e := endToEndValues(un)
		q1, q2, q3 := quartiles(un.opTimes)
		rep := &workloadReport{
			Ops: len(un.opTimes), FailedOps: un.failed, Failures: un.failures,
			Samples: len(un.opTimes), RoundQ1: q1, RoundQ2: q2, RoundQ3: q3,
			EndToEnd: withUnits(endToEnd, e2e),
		}
		fmt.Printf("%s ops %d count\n%s failed_ops %d count\n", w.name, rep.Ops, w.name, rep.FailedOps)
		printMetrics(w.name, endToEnd, e2e)
		fmt.Printf("%s round_s_p50_samples %d count\n", w.name, rep.Samples)
		if traced {
			tr := passes[1][w.name]
			rep.Ops += len(tr.opTimes)
			rep.FailedOps += tr.failed
			rep.Failures = append(rep.Failures, tr.failures...)
			probes, err := runProbes(cfg, w)
			if err != nil {
				return nil, fmt.Errorf("%s probes: %w", w.name, err)
			}
			layer := perLayerValues(w, un, tr, probes, gomaxprocs)
			rep.PerLayer = withUnits(perLayer, layer)
			printMetrics(w.name, perLayer, layer)
			path, err := tr.tr.write(cfg.outDir)
			if err != nil {
				return nil, err
			}
			rep.SpanFile = path
			fmt.Printf("%s: spans account for %.1f%% of %s, tracing overhead ratio %.3f, tail read at p%g, %d spans in %s\n",
				w.name, 100*layer["obs.span_coverage_ratio"], w.rootSpan, layer["obs.trace_overhead_ratio"],
				layer["fl.round_tail_pct"], len(tr.tr.spans), path)
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "%s FAILED: %s\n", w.name, f)
		}
		reports[w.name] = rep
	}
	return reports, nil
}

// checkRepeat prints, per end-to-end metric and workload, the relative
// spread of the runs against the metric's bound, and reports whether
// every spread is inside its bound.
func checkRepeat(selected []*workload, runs []map[string]*workloadReport) bool {
	ok := true
	for _, w := range selected {
		for _, m := range endToEnd {
			vals := make([]float64, len(runs))
			for i, run := range runs {
				vals[i] = run[w.name].EndToEnd[m.Name].Value
			}
			spread := relSpread(vals)
			verdict := "ok"
			// setup_s is gated on its median only; its spread is shown
			// but cannot fail the check.
			if spread > m.Bound && m.Name != "setup_s" {
				verdict, ok = "EXCEEDED", false
			}
			fmt.Printf("%s %s spread %.4f bound %.4f %s\n", w.name, m.Name, spread, m.Bound, verdict)
		}
	}
	return ok
}

func run() int {
	name := flag.String("workload", "", "run only this workload and end with its JSON result line (default: all)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "measured seconds per workload; with -trace 1 split between the untraced and the traced pass")
	trace := flag.Int("trace", 0, "1 adds the traced pass and the layer probes and reports the per-layer metrics")
	repeat := flag.Int("repeat", 1, "run the untraced set this many times and check the spread of every end-to-end metric against its bound")
	outPath := flag.String("out", "", "write the full report as JSON to this file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}

	// Sizing was done at nproc = 2; more than 4 threads only adds
	// scheduling noise to a workload whose parallelism is its cohort.
	gomaxprocs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(gomaxprocs)

	traced := *trace == 1
	cfg := &config{seed: *seed, seconds: *seconds, sessions: 3, cohort: 256, outDir: outDir}
	if traced {
		cfg.seconds /= 2
		cfg.sessions = 2
	}

	began := time.Now()
	var runs []map[string]*workloadReport
	for i := 0; i < *repeat; i++ {
		reports, err := measure(cfg, selected, traced, gomaxprocs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		runs = append(runs, reports)
	}
	last := runs[len(runs)-1]
	fmt.Printf("measured %d workloads in %.1f s (seed %d, GOMAXPROCS %d of %d)\n",
		len(selected), time.Since(began).Seconds(), *seed, gomaxprocs, runtime.NumCPU())

	status := 0
	for _, reports := range runs {
		for _, rep := range reports {
			if rep.FailedOps > 0 {
				status = 1
			}
		}
	}
	if *repeat > 1 && !checkRepeat(selected, runs) {
		status = 1
	}

	if *outPath != "" {
		rep := report{
			Commit: gitCommit(), GoVersion: runtime.Version(), CPU: cpuModel(), NProc: runtime.NumCPU(),
			GOMAXPROCS: gomaxprocs, Seed: *seed, Seconds: *seconds, Workloads: last,
		}
		rep.Metrics.EndToEnd, rep.Metrics.PerLayer = endToEnd, perLayer
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "writing report:", err)
			return 1
		}
	}

	if *name != "" {
		rep := last[*name]
		metrics := rep.EndToEnd
		if traced {
			metrics = rep.PerLayer
		}
		line, err := json.Marshal(contractResult{
			Correct: status == 0, Attempted: max(rep.Ops, 1), Failed: rep.FailedOps, Metrics: metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(line))
	}
	return status
}

func main() { os.Exit(run()) }

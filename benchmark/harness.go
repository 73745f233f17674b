package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/gradsec/gradsec/internal/wire"
)

// warmupOps is the number of operations at the start of every session
// that are run but not sampled; they count towards setup_s.
const warmupOps = 2

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64 // measured seconds per workload and pass
	sessions int     // sessions per workload and pass
	cohort   int     // fleet size (256; the smoke tests shrink it)
	fixedOps int     // >0 pins the sampled operations per session
	outDir   string  // span files and scratch files go here
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// nominalOp is the operation's wall time on the 2-core sizing host;
	// it plans the first session, later sessions use what was measured.
	nominalOp float64
	// opMultiple rounds a session's operation count (device-train runs
	// whole periods of its moving window).
	opMultiple int
	// examplesPerOp is the number of training examples one operation
	// consumes (0 for the stub-trainer workloads).
	examplesPerOp int
	// rootSpan is the name of the operation's root span in the traced
	// pass.
	rootSpan string
	// probes names the layer-probe groups that run after the traced
	// sessions of this workload.
	probes []string
	run    func(s *session) error
}

// passResult pools one workload's samples over the sessions of one
// pass (untraced or traced).
type passResult struct {
	tr *tracer // nil in the untraced pass

	setups   []float64 // seconds, one per session
	opTimes  []float64 // seconds, one per sampled operation
	updates  int       // client updates folded during sampled operations
	failed   int
	failures []string // first few failure reasons

	allocBytes uint64
	wire       wire.MeterSnapshot // client-side, sampled operations only

	heapLiveMax uint64
	gcCPU       float64 // seconds of GC CPU over the sampled operations
	totalCPU    float64

	// observed holds workload-reported per-layer samples by metric name.
	observed map[string][]float64
	// pinned holds values that must repeat exactly across sessions (the
	// modelled TEE costs), by key.
	pinned map[string]float64
}

// pin records a deterministic value under key, or reports that it
// differs from what an earlier session recorded there.
func (r *passResult) pin(key string, v float64) error {
	if old, ok := r.pinned[key]; ok && old != v {
		return fmt.Errorf("%s is %v, an earlier session saw %v", key, v, old)
	}
	r.pinned[key] = v
	return nil
}

func (r *passResult) observe(name string, v float64) {
	r.observed[name] = append(r.observed[name], v)
}

func (r *passResult) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *passResult) opSeconds() float64 {
	total := 0.0
	for _, d := range r.opTimes {
		total += d
	}
	return total
}

// session is what a workload's run function drives: it builds its
// fixture, runs warmupOps operations, calls beginSampling, records
// s.ops operations and calls endSampling.
type session struct {
	cfg   *config
	index int
	ops   int     // sampled operations to run
	tr    *tracer // nil in the untraced pass
	res   *passResult
	// meter counts this session's client-side wire traffic; workloads
	// attach it to every client-side connection with fl.SetMeter.
	meter *wire.Meter

	start     time.Time
	sampling  bool
	alloc0    uint64
	wire0     wire.MeterSnapshot
	gc0, cpu0 float64
}

// rounds is the total number of operations of the session.
func (s *session) rounds() int { return warmupOps + s.ops }

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

type procStats struct {
	allocBytes, heapLive uint64
	gcCPU, totalCPU      float64
}

// readProc reads the process-wide allocation and GC counters. Unlike
// runtime.ReadMemStats it does not stop the world, so it is safe to
// call from an engine hook between two timed operations.
func readProc() procStats {
	samples := make([]metrics.Sample, len(procSamples))
	copy(samples, procSamples)
	metrics.Read(samples)
	var p procStats
	if samples[0].Value.Kind() == metrics.KindUint64 {
		p.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		p.heapLive = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = samples[2].Value.Float64()
	}
	if samples[3].Value.Kind() == metrics.KindFloat64 {
		p.totalCPU = samples[3].Value.Float64()
	}
	return p
}

// beginSampling ends set-up: everything since the session started,
// warm-up operations included, is setup_s.
func (s *session) beginSampling() {
	s.res.setups = append(s.res.setups, time.Since(s.start).Seconds())
	p := readProc()
	s.alloc0, s.gc0, s.cpu0 = p.allocBytes, p.gcCPU, p.totalCPU
	s.wire0 = s.meter.Snapshot()
	s.sampling = true
}

// record adds one sampled operation. err marks it failed; a failed
// operation still contributes its time (it was attempted).
func (s *session) record(d time.Duration, updates int, err error) {
	s.res.opTimes = append(s.res.opTimes, d.Seconds())
	s.res.updates += updates
	if err != nil {
		s.res.fail(fmt.Errorf("session %d: %w", s.index, err))
	}
	if s.tr != nil {
		// Live heap is only sampled in the traced pass; the read costs
		// microseconds but the untraced pass stays free of it.
		if p := readProc(); p.heapLive > s.res.heapLiveMax {
			s.res.heapLiveMax = p.heapLive
		}
	}
}

// endSampling closes the sampled window.
func (s *session) endSampling() {
	if !s.sampling {
		return
	}
	s.sampling = false
	p := readProc()
	s.res.allocBytes += p.allocBytes - s.alloc0
	s.res.gcCPU += p.gcCPU - s.gc0
	s.res.totalCPU += p.totalCPU - s.cpu0
	w := s.meter.Snapshot()
	s.res.wire.TxBytes += w.TxBytes - s.wire0.TxBytes
	s.res.wire.RxBytes += w.RxBytes - s.wire0.RxBytes
	for i := range w.TxFrames {
		s.res.wire.TxFrames[i] += w.TxFrames[i] - s.wire0.TxFrames[i]
		s.res.wire.RxFrames[i] += w.RxFrames[i] - s.wire0.RxFrames[i]
	}
}

// planOps sizes the next session of a workload so the pass measures
// cfg.seconds in total: the first session trusts nominalOp, later ones
// the median operation time measured so far.
func planOps(cfg *config, w *workload, r *passResult, sessionsLeft int) int {
	mult := max(w.opMultiple, 1)
	if cfg.fixedOps > 0 {
		return cfg.fixedOps
	}
	est := w.nominalOp
	if len(r.opTimes) > 0 {
		est = median(r.opTimes)
	}
	budget := (cfg.seconds - r.opSeconds()) / float64(sessionsLeft)
	ops := int(math.Round(budget / est))
	ops = (ops + mult - 1) / mult * mult
	// Three operations per session is the floor below which a median is
	// meaningless; a slow host overruns its budget instead.
	return max(ops, 3, mult)
}

// runSet measures the workloads once per entry of traced (false: the
// untraced pass, true: the traced one) and returns each pass's results
// by workload name. Sessions are interleaved across workloads and
// passes (A B C … A B C …) so a noisy moment on a shared host cannot hit
// every sample of one workload.
func runSet(cfg *config, workloads []*workload, traced []bool) []map[string]*passResult {
	passes := make([]map[string]*passResult, len(traced))
	for i, t := range traced {
		passes[i] = make(map[string]*passResult)
		for _, w := range workloads {
			r := &passResult{observed: make(map[string][]float64), pinned: make(map[string]float64)}
			if t {
				r.tr = newTracer(w.name)
			}
			passes[i][w.name] = r
		}
	}
	for si := 0; si < cfg.sessions; si++ {
		for _, p := range passes {
			for _, w := range workloads {
				r := p[w.name]
				s := &session{
					cfg: cfg, index: si, tr: r.tr, res: r, meter: &wire.Meter{},
					ops: planOps(cfg, w, r, cfg.sessions-si),
				}
				runtime.GC()
				s.start = time.Now()
				if err := w.run(s); err != nil {
					r.fail(fmt.Errorf("session %d: %w", si, err))
				}
				s.endSampling()
			}
		}
	}
	return passes
}

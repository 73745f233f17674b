package fl

import (
	"time"

	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/wire"
)

// serverObs holds the server's pre-resolved telemetry handles. It is
// nil when observability is disabled (no Metrics and no Spans in the
// config), and every method is nil-receiver-safe, so the hot path pays
// one predictable branch — no allocation, no clock read, no atomics —
// when the subsystem is off. BenchmarkObsRound proves the property.
type serverObs struct {
	clock simclock.WallClock
	spans *obs.TraceSink

	// meter is shared by every connection of the session; lastSnap is
	// the meter reading at the previous round boundary, owned by the
	// round goroutine (closeRound is the only reader/writer).
	meter    *wire.Meter
	lastSnap wire.MeterSnapshot

	roundsOK     *obs.Counter
	roundsFailed *obs.Counter
	// roundSpan names the whole-round span: "round", or "hier_round"
	// on an edge-peer tier.
	roundSpan string

	// fanIn and partial time an edge-peer round from the end of its
	// broadcast: to the end of collect, and to each folded partial.
	fanIn   *obs.Histogram
	partial *obs.Histogram

	phaseSample    *obs.Histogram
	phaseBroadcast *obs.Histogram
	phaseCollect   *obs.Histogram
	phaseReconcile *obs.Histogram
	phaseClose     *obs.Histogram
	phaseRound     *obs.Histogram

	// pushNS times the async push→fold→reply cycle; staleness and
	// strikes are the per-device health distributions.
	pushNS    *obs.Histogram
	staleness *obs.Histogram
	strikes   *obs.Histogram

	// maskExpand times secure-aggregation seed-mask expansion (CPU
	// work on the real clock, like journal I/O).
	maskExpand *obs.Histogram

	sampled     *obs.Counter
	responded   *obs.Counter
	dropped     *obs.Counter
	late        *obs.Counter
	duplicates  *obs.Counter
	quarantines *obs.Counter
	probations  *obs.Counter
	reconciled  *obs.Counter

	bytesUp   *obs.Counter
	bytesDown *obs.Counter
	txFrames  [wire.NumCodecs]*obs.Counter
	rxFrames  [wire.NumCodecs]*obs.Counter
}

// engineMetrics is the registry the round-engine families register in:
// cfg.Metrics, except on an edge-peer tier. There cfg.Metrics is the
// fleet registry — the engine families of the tiers below merge into it
// under tier/shard labels, and a same-named family registered here
// without them would fix the label schema first and shadow them all. So
// an edge-peer tier exports only the gradsec_hier_* families, times its
// phases as spans, and meters no wire bytes (RoundStats.BytesUp/Down
// stay 0).
func (cfg *ServerConfig) engineMetrics() *obs.Registry {
	if cfg.EdgePeers {
		return nil
	}
	return cfg.Metrics
}

// newServerObs resolves every instrument once. mode labels the session
// flavour on the round counter ("sync", "async", "secagg"). Returns nil
// when both surfaces are disabled.
func newServerObs(cfg *ServerConfig) *serverObs {
	if cfg.Metrics == nil && cfg.Spans == nil {
		return nil
	}
	r := cfg.engineMetrics() // nil registry hands out nil (no-op) instruments
	mode := "sync"
	switch {
	case cfg.Async.Enabled:
		mode = "async"
	case cfg.SecAgg:
		mode = "secagg"
	}
	o := &serverObs{
		clock: cfg.Clock,
		spans: cfg.Spans,

		roundsOK:     r.Counter("gradsec_rounds_total", "FL rounds closed by mode and result", "mode", mode, "result", "ok"),
		roundsFailed: r.Counter("gradsec_rounds_total", "FL rounds closed by mode and result", "mode", mode, "result", "failed"),
		roundSpan:    "round",

		phaseSample:    r.Histogram("gradsec_phase_ns", "per-phase round latency in nanoseconds", "phase", "sample"),
		phaseBroadcast: r.Histogram("gradsec_phase_ns", "per-phase round latency in nanoseconds", "phase", "broadcast"),
		phaseCollect:   r.Histogram("gradsec_phase_ns", "per-phase round latency in nanoseconds", "phase", "collect"),
		phaseReconcile: r.Histogram("gradsec_phase_ns", "per-phase round latency in nanoseconds", "phase", "reconcile"),
		phaseClose:     r.Histogram("gradsec_phase_ns", "per-phase round latency in nanoseconds", "phase", "close"),
		phaseRound:     r.Histogram("gradsec_phase_ns", "per-phase round latency in nanoseconds", "phase", "round"),

		pushNS:    r.Histogram("gradsec_push_ns", "async push→fold→reply latency in nanoseconds"),
		staleness: r.Histogram("gradsec_staleness", "async update staleness in model versions"),
		strikes:   r.Histogram("gradsec_strikes", "violation strikes at async quarantine time"),

		maskExpand: r.Histogram("gradsec_secagg_ns", "secure-aggregation mask work in nanoseconds", "op", "expand"),

		sampled:     r.Counter("gradsec_clients_total", "per-client round events", "event", "sampled"),
		responded:   r.Counter("gradsec_clients_total", "per-client round events", "event", "responded"),
		dropped:     r.Counter("gradsec_clients_total", "per-client round events", "event", "dropped"),
		late:        r.Counter("gradsec_clients_total", "per-client round events", "event", "late"),
		duplicates:  r.Counter("gradsec_clients_total", "per-client round events", "event", "duplicate"),
		quarantines: r.Counter("gradsec_clients_total", "per-client round events", "event", "quarantined"),
		probations:  r.Counter("gradsec_clients_total", "per-client round events", "event", "probation"),
		reconciled:  r.Counter("gradsec_clients_total", "per-client round events", "event", "reconciled"),

		bytesUp:   r.Counter("gradsec_wire_bytes_total", "wire bytes by direction (up = client→server)", "direction", "up"),
		bytesDown: r.Counter("gradsec_wire_bytes_total", "wire bytes by direction (up = client→server)", "direction", "down"),
	}
	if o.clock == nil {
		o.clock = simclock.Real()
	}
	if cfg.EdgePeers {
		h := cfg.Metrics
		o.roundsOK = h.Counter("gradsec_hier_rounds_total", "hierarchical rounds closed at the root by result", "result", "ok")
		o.roundsFailed = h.Counter("gradsec_hier_rounds_total", "hierarchical rounds closed at the root by result", "result", "failed")
		o.fanIn = h.Histogram("gradsec_hier_fanin_ns", "root fan-in latency (broadcast end to collect end) in nanoseconds")
		o.partial = h.Histogram("gradsec_hier_partial_ns", "per-shard partial latency from broadcast end in nanoseconds")
		o.roundSpan = "hier_round"
	}
	if r != nil {
		o.meter = &wire.Meter{}
		for c := 0; c < wire.NumCodecs; c++ {
			name := wire.Codec(c).String()
			o.txFrames[c] = r.Counter("gradsec_wire_frames_total", "wire frames by direction and codec", "direction", "down", "codec", name)
			o.rxFrames[c] = r.Counter("gradsec_wire_frames_total", "wire frames by direction and codec", "direction", "up", "codec", name)
		}
	}
	return o
}

// wireMeter returns the session's shared traffic meter (nil when
// disabled); transports treat a nil meter as a no-op.
func (o *serverObs) wireMeter() *wire.Meter {
	if o == nil {
		return nil
	}
	return o.meter
}

// resetMeterBase rebases the per-round byte-delta window to the meter's
// current totals (called when a session opens, so selection handshake
// traffic is excluded from round 0).
func (o *serverObs) resetMeterBase() {
	if o == nil || o.meter == nil {
		return
	}
	o.lastSnap = o.meter.Snapshot()
}

// phaseTimer is one in-flight phase measurement. It is a value type so
// the enabled path allocates nothing beyond the optional span.
type phaseTimer struct {
	o     *serverObs
	h     *obs.Histogram
	sp    *obs.Span
	round int
	start time.Time
}

// startPhase opens a phase: a histogram sample and, when a trace sink
// is attached, a span named after the phase. The histogram is resolved
// from the name here (not at the call site) so callers stay a single
// nil-safe expression with no field access on a possibly-nil receiver.
func (o *serverObs) startPhase(name string, round int) phaseTimer {
	if o == nil {
		return phaseTimer{}
	}
	var h *obs.Histogram
	switch name {
	case "sample":
		h = o.phaseSample
	case "broadcast":
		h = o.phaseBroadcast
	case "collect":
		h = o.phaseCollect
	case "reconcile":
		h = o.phaseReconcile
	case "close":
		h = o.phaseClose
	case "round":
		h, name = o.phaseRound, o.roundSpan
	}
	return phaseTimer{o: o, h: h, sp: o.spans.Start(name, round), round: round, start: o.clock.Now()}
}

// end closes the phase measurement. The round lands as the bucket's
// exemplar, so a latency spike in the exposition names the round that
// caused it.
func (t phaseTimer) end() {
	if t.o == nil {
		return
	}
	t.h.ObserveEx(t.o.clock.Now().Sub(t.start).Nanoseconds(), t.round)
	t.sp.End()
}

// setTrace stamps the round-scoped trace ID on spans started from now
// on (0 clears it). Forwarded to the sink; nil-safe end to end.
func (o *serverObs) setTrace(id uint64) {
	if o == nil {
		return
	}
	o.spans.SetTrace(id)
}

// now reads the observability clock; zero time when disabled.
func (o *serverObs) now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return o.clock.Now()
}

// spanStart opens a bare span (no histogram) on the trace sink.
func (o *serverObs) spanStart(name string, round int) *obs.Span {
	if o == nil {
		return nil
	}
	return o.spans.Start(name, round)
}

// observePush records one async push→fold→reply cycle.
func (o *serverObs) observePush(start time.Time) {
	if o == nil {
		return
	}
	o.pushNS.Observe(o.clock.Now().Sub(start).Nanoseconds())
}

// observePartial records one folded shard partial's latency since the
// broadcast ended; observeFanIn the whole fan-in once collect is over.
func (o *serverObs) observePartial(bcast time.Time) {
	if o != nil {
		o.partial.Observe(o.clock.Now().Sub(bcast).Nanoseconds())
	}
}

func (o *serverObs) observeFanIn(bcast time.Time) {
	if o != nil {
		o.fanIn.Observe(o.clock.Now().Sub(bcast).Nanoseconds())
	}
}

// observeStaleness records one async push's staleness in versions.
func (o *serverObs) observeStaleness(v int) {
	if o == nil {
		return
	}
	o.staleness.Observe(int64(v))
}

// instrumentMaskedSum attaches the mask-expansion histogram to a
// round's masked aggregator.
func (o *serverObs) instrumentMaskedSum(msum *secagg.MaskedSum) {
	if o == nil {
		return
	}
	msum.Instrument(o.maskExpand)
}

// observeStrikes records a device's strike count when it crosses the
// async violation threshold.
func (o *serverObs) observeStrikes(n int) {
	if o == nil {
		return
	}
	o.strikes.Observe(int64(n))
}

// noteClose folds one closed round into the counters and stamps the
// round's wire byte deltas into the stats. Called from closeRound — the
// single commit point every mode funnels through — so per-event
// counters derive from the round's accounting without touching the
// per-arrival hot path.
func (o *serverObs) noteClose(stats *RoundStats, ok bool) {
	if o == nil {
		return
	}
	if o.meter != nil {
		snap := o.meter.Snapshot()
		stats.BytesUp = snap.RxBytes - o.lastSnap.RxBytes
		stats.BytesDown = snap.TxBytes - o.lastSnap.TxBytes
		o.bytesUp.Add(stats.BytesUp)
		o.bytesDown.Add(stats.BytesDown)
		for c := 0; c < wire.NumCodecs; c++ {
			o.txFrames[c].Add(snap.TxFrames[c] - o.lastSnap.TxFrames[c])
			o.rxFrames[c].Add(snap.RxFrames[c] - o.lastSnap.RxFrames[c])
		}
		o.lastSnap = snap
	}
	if ok {
		o.roundsOK.Inc()
	} else {
		o.roundsFailed.Inc()
	}
	o.sampled.Add(uint64(stats.Sampled))
	o.responded.Add(uint64(stats.Responded))
	o.dropped.Add(uint64(stats.Dropped))
	o.late.Add(uint64(stats.LateDiscarded))
	o.duplicates.Add(uint64(stats.Duplicates))
	o.quarantines.Add(uint64(stats.Quarantined))
	o.probations.Add(uint64(stats.Probation))
	o.reconciled.Add(uint64(stats.Reconciled))
}

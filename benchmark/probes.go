package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// probeCtx is what the layer probes of one workload run on: that
// workload's own model and inputs.
type probeCtx struct {
	cfg   *config
	mini  bool // tcp-tee trains LeNet-5-mini; every other workload LeNet-5
	codec wire.Codec
}

func (c *probeCtx) network() *nn.Network {
	rng := rand.New(rand.NewSource(c.cfg.seed))
	if c.mini {
		return nn.NewLeNet5Mini(rng, nn.ActReLU)
	}
	return nn.NewLeNet5(rng, nn.ActReLU)
}

// update is a dyadic client update for the context's model.
func (c *probeCtx) update() []*tensor.Tensor {
	st := c.network().StateDict()
	trainer := newStubTrainer("probe", 1, newDyadic(c.cfg.seed, st))
	upd, _, _ := trainer.TrainRound(1, nil, nil, nil)
	return upd
}

func modelBytes(ts []*tensor.Tensor) float64 {
	n := 0
	for _, t := range ts {
		n += 8 * t.Size()
	}
	return float64(n)
}

// probeMinTime is how long one probe keeps repeating its call.
const probeMinTime = 60 * time.Millisecond

// timeIt calls fn repeatedly for probeMinTime (at least 5 times) and
// returns the median seconds per call.
func timeIt(fn func()) float64 { return timeEach(func() {}, fn) }

// timeEach is timeIt with an untimed prep step before every call.
func timeEach(prep, fn func()) float64 {
	prep()
	fn() // warm caches and pools
	var samples []float64
	for begin := time.Now(); len(samples) < 5 || time.Since(begin) < probeMinTime; {
		prep()
		start := time.Now()
		fn()
		samples = append(samples, time.Since(start).Seconds())
	}
	return median(samples)
}

// sink keeps probe results alive so the compiler cannot drop the call.
var sink any

// probeGroups are the direct-call layer probes, by group name. Each
// returns per-layer metric values by name.
var probeGroups = map[string]func(c *probeCtx) (map[string]float64, error){
	"tensor":     probeTensor,
	"axpy":       probeAxPy,
	"nn":         probeNN,
	"core":       probeCore,
	"tz":         probeTZ,
	"wire-f64":   func(c *probeCtx) (map[string]float64, error) { return probeWireCodec(c, wire.CodecF64) },
	"wire-q8":    func(c *probeCtx) (map[string]float64, error) { return probeWireCodec(c, wire.CodecQ8) },
	"wire-exact": probeWireExact,
	"wire-u64":   probeWireU64,
	"fl":         probeFL,
	"secagg":     probeSecAgg,
	"journal":    probeJournal,
	"obs":        probeObs,
}

func probeTensor(c *probeCtx) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(c.cfg.seed))
	// The two matmul shapes behind LeNet-5 training: the dense head at
	// batch 16, and a conv layer's im2col product.
	denseA, denseB := tensor.Randn(rng, 1, 16, 768), tensor.Randn(rng, 1, 768, 100)
	convA, convB := tensor.Randn(rng, 1, 4096, 75), tensor.Randn(rng, 1, 75, 12)
	x := tensor.Randn(rng, 1, 16, 3, 32, 32)
	geom := tensor.NewConvGeom(16, 3, 32, 32, 5, 5, 2, 2)
	return map[string]float64{
		"tensor.matmul_dense_ms": 1e3 * timeIt(func() { sink = tensor.MatMul(denseA, denseB) }),
		"tensor.matmul_conv_ms":  1e3 * timeIt(func() { sink = tensor.MatMul(convA, convB) }),
		"tensor.im2col_ms":       1e3 * timeIt(func() { sink = tensor.Im2Col(x, geom) }),
		"tensor.transpose_ms":    1e3 * timeIt(func() { sink = tensor.Transpose(denseB) }),
	}, nil
}

func probeAxPy(c *probeCtx) (map[string]float64, error) {
	upd := c.update()
	acc := c.network().StateDict()
	sec := timeIt(func() {
		for i, u := range upd {
			tensor.AxPy(0.5, u, acc[i])
		}
	})
	return map[string]float64{"tensor.axpy_mbps": modelBytes(upd) / 1e6 / sec}, nil
}

// probeBatch is a seeded training batch for the context's network.
func (c *probeCtx) probeBatch() (x, y *tensor.Tensor) {
	rng := rand.New(rand.NewSource(c.cfg.seed + 9))
	classes, shape := nn.NumClasses, []int{deviceBatch, 3, 32, 32}
	if c.mini {
		classes, shape = 10, []int{deviceBatch, 1, 16, 16}
	}
	x = tensor.Randn(rng, 1, shape...)
	y = tensor.New(deviceBatch, classes)
	for i := 0; i < deviceBatch; i++ {
		y.Set(1, i, rng.Intn(classes))
	}
	return x, y
}

func probeNN(c *probeCtx) (map[string]float64, error) {
	net := c.network()
	x, y := c.probeBatch()
	out := map[string]float64{
		"nn.forward_ms":   1e3 * timeIt(func() { sink = net.Predict(x, deviceBatch) }),
		"nn.gradients_ms": 1e3 * timeIt(func() { _, sink = net.Gradients(x, y) }),
	}
	const calls = 8
	before := readProc().allocBytes
	for i := 0; i < calls; i++ {
		_, sink = net.Gradients(x, y)
	}
	out["autodiff.alloc_mb_per_grad"] = float64(readProc().allocBytes-before) / calls / 1e6
	return out, nil
}

func probeCore(c *probeCtx) (map[string]float64, error) {
	net := c.network()
	plan, err := core.UniformDynamicPlan(deviceWindow, net.NumLayers())
	if err != nil {
		return nil, err
	}
	planner := core.NewPlanner(plan, net, func(ls []int) map[int]bool { return core.FlatIndicesForLayers(net, ls) })
	round := 0
	sec := timeIt(func() {
		sink, _ = planner.PlanRound(round)
		round++
	})
	return map[string]float64{"core.plan_round_us": 1e6 * sec}, nil
}

func probeTZ(c *probeCtx) (map[string]float64, error) {
	// A sealed-update-sized blob: the dense head's weights and bias, the
	// largest protected layer either plan ships.
	st := c.network().StateDict()
	n := len(st)
	blob := fl.SealedUpdate([]int{n - 2, n - 1}, st[n-2:])
	server, ta, err := tz.EstablishPair()
	if err != nil {
		return nil, err
	}
	var sealed []byte
	sealSec := timeIt(func() { sealed = server.Seal(blob) })
	var openErr error
	// Open enforces fresh sequence numbers, so every call gets its own
	// sealed message.
	openSec := timeEach(func() { sealed = server.Seal(blob) }, func() {
		if _, err := ta.Open(sealed); err != nil {
			openErr = err
		}
	})
	if openErr != nil {
		return nil, fmt.Errorf("tz probe: %w", openErr)
	}

	dev := tz.NewDevice("probe-pi")
	plan, err := core.NewStaticPlan(0)
	if err != nil {
		return nil, err
	}
	trainer, err := core.NewSecureTrainer(dev, c.network(), plan, core.TrainerConfig{})
	if err != nil {
		return nil, err
	}
	verifier := tz.NewVerifier()
	verifier.RegisterDevice(dev.Identity().ID(), dev.Identity().RootKey())
	m, err := dev.Measurement(trainer.TAUUID())
	if err != nil {
		return nil, err
	}
	verifier.AllowMeasurement(m)
	nonce := []byte("benchmark-nonce!")
	var verifyErr error
	verifySec := timeIt(func() {
		quote, err := dev.Attest(trainer.TAUUID(), nonce)
		if err == nil {
			err = verifier.Verify(quote, nonce)
		}
		if err != nil {
			verifyErr = err
		}
	})
	if verifyErr != nil {
		return nil, fmt.Errorf("tz probe: %w", verifyErr)
	}
	mb := float64(len(blob)) / 1e6
	return map[string]float64{
		"tz.seal_mbps":        mb / sealSec,
		"tz.open_mbps":        mb / openSec,
		"tz.attest_verify_ms": 1e3 * verifySec,
	}, nil
}

func probeWireCodec(c *probeCtx, codec wire.Codec) (map[string]float64, error) {
	st := c.update()
	mb := modelBytes(st) / 1e6
	w := wire.NewWriter()
	w.Codec = codec
	encSec := timeIt(func() {
		w.Reset()
		w.Codec = codec
		w.TensorList(st)
	})
	buf := append([]byte(nil), w.Bytes()...)
	var decErr error
	decSec := timeIt(func() {
		r := wire.NewReader(buf)
		r.Codec = codec
		if codec == wire.CodecQ8 {
			sink = r.Q8TensorList()
		} else {
			sink = r.TensorList()
		}
		if r.Err() != nil {
			decErr = r.Err()
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("wire probe (%s): %w", codec, decErr)
	}
	if codec == wire.CodecQ8 {
		return map[string]float64{"wire.encode_q8_mbps": mb / encSec, "wire.decode_q8_lazy_mbps": mb / decSec}, nil
	}
	return map[string]float64{"wire.encode_f64_mbps": mb / encSec, "wire.decode_f64_mbps": mb / decSec}, nil
}

func probeWireExact(c *probeCtx) (map[string]float64, error) {
	st := c.update()
	w := wire.NewWriter()
	var decErr error
	sec := timeIt(func() {
		w.Reset()
		w.ExactTensorList(st)
		r := wire.NewReader(w.Bytes())
		sink = r.ExactTensorList()
		if r.Err() != nil {
			decErr = r.Err()
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("wire exact probe: %w", decErr)
	}
	// One round trip moves the model twice.
	return map[string]float64{"wire.exact_list_mbps": 2 * modelBytes(st) / 1e6 / sec}, nil
}

func probeWireU64(c *probeCtx) (map[string]float64, error) {
	st := c.update()
	scale := secagg.ScaleFor(secagg.DefaultScaleBits)
	levels := make([]*wire.U64Tensor, len(st))
	for i, t := range st {
		levels[i] = secagg.Quantise(t, scale, 1)
	}
	w := wire.NewWriter()
	var decErr error
	sec := timeIt(func() {
		w.Reset()
		w.U64TensorList(levels)
		r := wire.NewReader(w.Bytes())
		sink = r.U64TensorList()
		if r.Err() != nil {
			decErr = r.Err()
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("wire u64 probe: %w", decErr)
	}
	return map[string]float64{"wire.u64_list_mbps": 2 * modelBytes(st) / 1e6 / sec}, nil
}

func probeFL(c *probeCtx) (map[string]float64, error) {
	state := c.network().StateDict()
	upd := c.update()
	down := &fl.ModelDown{Round: 1, Plain: state, Version: 1}
	encSec := timeIt(func() { sink = fl.EncodeMessageCodec(down, c.codec) })
	frame := fl.EncodeMessageCodec(&fl.GradUp{Round: 1, Plain: upd, Version: 1}, c.codec)
	var decErr error
	var msg fl.Message
	decSec := timeIt(func() {
		m, err := fl.DecodeMessageCodec(fl.MsgGradUp, frame, c.codec)
		if err != nil {
			decErr = err
		}
		msg = m
	})
	if decErr != nil {
		return nil, fmt.Errorf("fl probe: %w", decErr)
	}
	out := map[string]float64{
		"fl.encode_modeldown_ms": 1e3 * encSec,
		"fl.decode_gradup_ms":    1e3 * decSec,
	}
	agg := fl.NewAggregator(state)
	var addErr error
	if up := msg.(*fl.GradUp); up.Q8 != nil {
		out["fl.aggregator_q8_ms"] = 1e3 * timeIt(func() {
			if err := agg.AccumulateQ8(up.Q8, 1); err != nil {
				addErr = err
			}
		})
	} else {
		out["fl.aggregator_add_ms"] = 1e3 * timeIt(func() {
			if err := agg.Add(upd, 1); err != nil {
				addErr = err
			}
		})
	}
	if addErr != nil {
		return nil, fmt.Errorf("fl probe: %w", addErr)
	}
	return out, nil
}

func probeSecAgg(c *probeCtx) (map[string]float64, error) {
	n := c.cfg.cohort
	upd := c.update()
	mb := modelBytes(upd) / 1e6
	names := make([]string, n)
	cohort := make([]secagg.Peer, n)
	var self *secagg.ClientSession
	for i := range names {
		names[i] = fmt.Sprintf("dev-%05d", i)
		sess, err := secagg.NewClientSession(names[i], []byte(names[i]), 0)
		if err != nil {
			return nil, err
		}
		cohort[i] = secagg.Peer{Device: names[i], Pub: sess.MaskPub()}
		if i == 0 {
			self = sess
		}
	}
	degree := secagg.DegreeFor(n)
	out := make(map[string]float64)
	var err error
	round := 0
	out["secagg.graph_ms"] = 1e3 * timeIt(func() {
		round++
		if _, gerr := secagg.NewGraph(round, names, degree); gerr != nil {
			err = gerr
		}
	})
	sizes := make([]int, len(upd))
	for i, t := range upd {
		sizes[i] = t.Size()
	}
	var seed [32]byte
	copy(seed[:], "benchmark-mask-seed-0123456789ab")
	out["secagg.mask_levels_mbps"] = mb / timeIt(func() { sink = secagg.MaskLevels(seed, sizes) })
	out["secagg.masked_update_ms"] = 1e3 * timeIt(func() {
		round++
		if _, _, merr := self.MaskedUpdate(round, cohort, degree, upd, 1); merr != nil {
			err = merr
		}
	})
	scale := secagg.ScaleFor(secagg.DefaultScaleBits)
	out["secagg.quantise_mbps"] = mb / timeIt(func() {
		for _, t := range upd {
			sink = secagg.Quantise(t, scale, 1)
		}
	})
	xs := make([]uint8, degree)
	for i := range xs {
		xs[i] = uint8(i + 1)
	}
	threshold := degree/2 + 1
	var shares []secagg.Share
	out["secagg.shamir_split_us"] = 1e6 * timeIt(func() {
		var serr error
		if shares, serr = secagg.SplitSeed(seed, xs, threshold, "probe"); serr != nil {
			err = serr
		}
	})
	out["secagg.shamir_combine_us"] = 1e6 * timeIt(func() {
		got, cerr := secagg.CombineSeed(shares, threshold)
		if cerr == nil && got != seed {
			cerr = fmt.Errorf("combined seed differs from the split one")
		}
		if cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		return nil, fmt.Errorf("secagg probe: %w", err)
	}
	return out, nil
}

func probeJournal(c *probeCtx) (map[string]float64, error) {
	if err := os.MkdirAll(c.cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.cfg.outDir, "journal-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Create(filepath.Join(dir, "probe.journal"))
	if err != nil {
		return nil, err
	}
	defer j.Close()
	// The round-close record: the one that carries the applied model
	// update and is fsynced before the round returns.
	rec := &journal.Record{Type: journal.RecRoundClose, OK: true, Update: c.update()}
	var ioErr error
	appendRec := func() {
		rec.Round++
		if err := j.Append(rec); err != nil {
			ioErr = err
		}
	}
	appendSec := timeIt(appendRec)
	// Every timed Sync has one fresh record to flush.
	syncSec := timeEach(appendRec, func() {
		if err := j.Sync(); err != nil {
			ioErr = err
		}
	})
	if ioErr != nil {
		return nil, fmt.Errorf("journal probe: %w", ioErr)
	}
	return map[string]float64{"journal.append_ms": 1e3 * appendSec, "journal.sync_ms": 1e3 * syncSec}, nil
}

func probeObs(c *probeCtx) (map[string]float64, error) {
	const shards = 16
	phases := []string{"sample", "broadcast", "collect", "close", "round"}
	edges := make([]*obs.Registry, shards)
	snaps := make([]*obs.Snapshotter, shards)
	for s := range edges {
		edges[s] = obs.NewRegistry()
		snaps[s] = obs.NewSnapshotter(edges[s])
	}
	record := func(s, i int) {
		edges[s].Counter("gradsec_rounds_total", "rounds", "mode", "sync", "result", "ok").Inc()
		for _, phase := range phases {
			edges[s].Histogram("gradsec_phase_ns", "phase latency", "phase", phase).ObserveEx(int64(1000*(s+1)+i), i)
		}
	}
	i := 0
	deltaSec := timeIt(func() {
		i++
		record(0, i)
		sink = snaps[0].Delta()
	})
	root := obs.NewRegistry()
	var decErr error
	mergeSec := timeIt(func() {
		i++
		for s := 0; s < shards; s++ {
			record(s, i)
			snap, err := obs.DecodeSnapshot(snaps[s].Delta())
			if err != nil {
				decErr = err
				return
			}
			root.MergeSnapshot(snap, "tier", "edge", "shard", fmt.Sprintf("edge-%03d", s))
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("obs probe: %w", decErr)
	}
	return map[string]float64{"obs.snapshot_delta_us": 1e6 * deltaSec, "obs.merge_us": 1e6 * mergeSec}, nil
}

// runProbes runs the workload's probe groups on its own tensors.
func runProbes(cfg *config, w *workload) (map[string]float64, error) {
	ctx := &probeCtx{cfg: cfg, mini: w.name == "tcp-tee"}
	if w.name == "fleet-q8" {
		ctx.codec = wire.CodecQ8
	}
	out := make(map[string]float64)
	for _, g := range w.probes {
		runtime.GC()
		vals, err := probeGroups[g](ctx)
		if err != nil {
			return nil, err
		}
		for k, v := range vals {
			out[k] = v
		}
	}
	return out, nil
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/opt"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
)

func sameBits(a, b *tensor.Tensor) error {
	if !a.SameShape(b) {
		return fmt.Errorf("shape %v vs %v", a.Shape, b.Shape)
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return fmt.Errorf("element %d: %v vs %v", i, v, b.Data[i])
		}
	}
	return nil
}

// The two-world trainer under a moving window is plain training, bit for
// bit: over more than a full window period, every cycle's mean loss, every
// observable update and the server's full update equal what
// Network.TrainStep computes on the same batches. The pooled AlexNet-S row
// carries argmax routing across the world boundary.
func TestSecureTrainingBitIdentical(t *testing.T) {
	const iters, lr = 2, 0.05
	rows := []struct {
		name    string
		build   func() *nn.Network
		batch   int
		classes int
	}{
		{"LeNet5Mini-relu", func() *nn.Network { return nn.NewLeNet5Mini(rand.New(rand.NewSource(3)), nn.ActReLU) }, 4, 10},
		{"LeNet5Mini-tanh", func() *nn.Network { return nn.NewLeNet5Mini(rand.New(rand.NewSource(4)), nn.ActTanh) }, 3, 10},
		{"AlexNetS-sigmoid", func() *nn.Network { return nn.NewAlexNetS(rand.New(rand.NewSource(5)), 16, nn.ActSigmoid) }, 2, nn.NumClasses},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			net, ref := row.build(), row.build()
			cells := net.Layers[0].InCells()
			cycles := WindowPositions(net.NumLayers(), 2) + 2
			batches, _ := fixedBatches(11, row.batch, iters, cells, row.classes)
			plan := mustUniform(t, 2, net.NumLayers())
			st, err := NewSecureTrainer(tz.NewDevice("bit-identity"), net, plan, TrainerConfig{Iterations: iters, LR: lr, Batch: batches})
			if err != nil {
				t.Fatal(err)
			}
			sv, err := EstablishServerView(st)
			if err != nil {
				t.Fatal(err)
			}
			sgd := opt.NewSGD(lr, 0)
			for c := 0; c < cycles; c++ {
				res, err := st.RunCycle(c)
				if err != nil {
					t.Fatal(err)
				}
				full, err := sv.FullUpdate(res)
				if err != nil {
					t.Fatal(err)
				}

				start, wantLoss := ref.StateDict(), 0.0
				for i := 0; i < iters; i++ {
					x, y := batches(c, i)
					wantLoss += ref.TrainStep(x, y, sgd)
				}
				wantLoss /= iters
				if math.Float64bits(res.MeanLoss) != math.Float64bits(wantLoss) {
					t.Fatalf("cycle %d (protected %v): mean loss %v, plain training %v", c, res.Protected, res.MeanLoss, wantLoss)
				}
				protected := FlatIndicesForLayers(net, res.Protected)
				for k, p := range ref.FlatParams() {
					want := tensor.Sub(p, start[k])
					if err := sameBits(full[k], want); err != nil {
						t.Fatalf("cycle %d (protected %v): full update %d: %v", c, res.Protected, k, err)
					}
					if protected[k] {
						continue
					}
					if err := sameBits(res.Observable[k], want); err != nil {
						t.Fatalf("cycle %d (protected %v): observable update %d: %v", c, res.Protected, k, err)
					}
				}
			}
		})
	}
}

// The gain must not rot while CI does not run the ledger: one steady-state
// cycle of the device-train workload's shape (LeNet-5, batch 16, 4
// iterations, moving window of 2) allocated 172 MB on the node graph.
func TestRunCycleAllocationGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewLeNet5(rng, nn.ActReLU)
	batches, _ := fixedBatches(2, 16, 4, 3*32*32, nn.NumClasses)
	st, err := NewSecureTrainer(tz.NewDevice("alloc-guard"), net, mustUniform(t, 2, net.NumLayers()),
		TrainerConfig{Iterations: 4, LR: 0.05, Batch: batches})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstablishServerView(st); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := st.RunCycle(c); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		t.Logf("cycle %d allocated %.2f MB", c, mb)
		if c == 2 && mb > 16 {
			t.Fatalf("cycle %d allocated %.2f MB after two warm-up cycles, want < 16 MB", c, mb)
		}
	}
}

// leakyTA is the gradsec TA with the world-boundary clones removed: its
// forward and backward runs answer with the executor's own buffers.
type leakyTA struct {
	*gradsecTA
	wrap bool // answer forward runs in a *forwardResp, as the real TA does
}

func (l leakyTA) Invoke(env *tz.TAEnv, state any, cmd uint32, req any) (any, error) {
	switch r := req.(type) {
	case *forwardReq:
		out, loss, err := l.exec.forward(r.first, r.last, r.input, r.labels)
		if l.wrap {
			return &forwardResp{activation: out, loss: loss}, err
		}
		return out, err
	case *backwardReq:
		return l.exec.backward(r.first, r.last, r.gradOut)
	}
	return l.gradsecTA.Invoke(env, state, cmd, req)
}

// The TA's workspace buffers are on the secure registry while their layer
// is protected, so the clone at the boundary is enforced, not a convention:
// a TA that returns a buffer itself is stopped by the device.
func TestUnclonedWorkspaceTensorCannotLeaveTheTA(t *testing.T) {
	wantLeakPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "leaked secure region") || !strings.Contains(fmt.Sprint(r), "gradsec/L2/scratch") {
				t.Fatalf("%s: recovered %v, want a leaked-secure-region panic naming gradsec/L2/scratch", what, r)
			}
		}()
		f()
	}
	for _, wrap := range []bool{false, true} {
		net := tinyNet(7)
		dev := tz.NewDevice("leaky")
		ta := leakyTA{gradsecTA: newGradsecTA(net.Clone(), 0.05), wrap: wrap}
		if err := dev.Install(ta); err != nil {
			t.Fatal(err)
		}
		sess, err := dev.OpenSession(ta.UUID())
		if err != nil {
			t.Fatal(err)
		}
		x, _ := tinyBatch(1, 1)(0, 0)
		if _, err := sess.Invoke(cmdBeginCycle, &beginCycleReq{protected: []int{1}, batch: x.Shape[0],
			incoming: []layerWeights{{layer: 1, params: cloneParams(net.Layers[1])}}}); err != nil {
			t.Fatal(err)
		}
		mid := tensor.New(x.Shape[0], net.Layers[1].InCells())
		wantLeakPanic(t, "forward run", func() { _, _ = sess.Invoke(cmdForwardRun, &forwardReq{first: 1, last: 1, input: mid}) })
		grad := tensor.New(x.Shape[0], net.Layers[1].OutCells())
		wantLeakPanic(t, "backward run", func() { _, _ = sess.Invoke(cmdBackwardRun, &backwardReq{first: 1, last: 1, gradOut: grad}) })
	}
}

// base identifies a buffer's backing array.
func base(t *tensor.Tensor) *float64 {
	if cap(t.Data) == 0 {
		return nil
	}
	return &t.Data[:1][0]
}

// When the window moves on, what the TA's workspace held of the released
// layer is zeroed in place and comes off the registry, the layers still
// inside stay registered, and at no point do the two worlds' workspaces
// share memory.
func TestReleasedLayerScratchIsScrubbed(t *testing.T) {
	net := miniNet()
	dev := tz.NewDevice("scrub")
	st, err := NewSecureTrainer(dev, net, mustUniform(t, 2, net.NumLayers()),
		TrainerConfig{Iterations: 2, LR: 0.05, Batch: miniBatch(5, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstablishServerView(st); err != nil {
		t.Fatal(err)
	}
	mem, taWS := dev.SecureMemory(), st.ta.exec.ws
	used := func(l int) (n int) {
		for _, b := range taWS.Buffers(l) {
			for _, v := range b.Data[:cap(b.Data)] {
				if v != 0 {
					n++
				}
			}
		}
		return n
	}
	registered := func(l int) bool {
		for _, b := range taWS.Buffers(l) {
			if !mem.IsSecure(b) {
				return false
			}
		}
		return true
	}

	if _, err := st.RunCycle(0); err != nil { // protects layers 0 and 1
		t.Fatal(err)
	}
	if used(0) == 0 || used(1) == 0 {
		t.Fatal("the TA workspace holds nothing of the protected layers: the test observes the wrong buffers")
	}
	if !registered(0) || !registered(1) {
		t.Fatal("protected layers' workspace buffers are not on the secure registry")
	}
	if _, err := st.RunCycle(1); err != nil { // the window moves to layers 1 and 2
		t.Fatal(err)
	}
	if n := used(0); n != 0 {
		t.Fatalf("released layer 0 left %d non-zero values in the TA workspace", n)
	}
	if registered(0) || !registered(1) || !registered(2) {
		t.Fatalf("registry after the move: layer 0 %v (want false), layer 1 %v, layer 2 %v (want true)", registered(0), registered(1), registered(2))
	}

	owner := make(map[*float64]string)
	for l := range net.Layers {
		for _, b := range st.exec.ws.Buffers(l) {
			if p := base(b); p != nil {
				owner[p] = fmt.Sprintf("normal-world layer %d", l)
			}
		}
	}
	if len(owner) == 0 {
		t.Fatal("the normal-world workspace is empty")
	}
	for l := range net.Layers {
		for _, b := range taWS.Buffers(l) {
			if who, shared := owner[base(b)]; shared && base(b) != nil {
				t.Fatalf("TA layer %d shares a backing array with %s", l, who)
			}
		}
	}
	if st.exec.ws == taWS || st.exec.net == st.ta.exec.net {
		t.Fatal("the two executors share a workspace or a network")
	}

	st.sess.Close()
	for l := range net.Layers {
		if used(l) != 0 || registered(l) {
			t.Fatalf("layer %d after CloseSession: %d non-zero values, registered %v", l, used(l), registered(l))
		}
	}
	if len(mem.RegionNames()) != 0 {
		t.Fatalf("regions still live after CloseSession: %v", mem.RegionNames())
	}
}

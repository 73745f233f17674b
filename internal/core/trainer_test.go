package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/opt"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
)

// fixedBatches returns a deterministic batch function over pre-generated
// batches (so secure and reference training see identical data).
func fixedBatches(rngSeed int64, n, iters, cells, classes int) (func(cycle, iter int) (*tensor.Tensor, *tensor.Tensor), [][2]*tensor.Tensor) {
	rng := rand.New(rand.NewSource(rngSeed))
	batches := make([][2]*tensor.Tensor, iters*8)
	for i := range batches {
		x := tensor.Randn(rng, 0.5, n, cells)
		y := tensor.New(n, classes)
		for r := 0; r < n; r++ {
			y.Set(1, r, rng.Intn(classes))
		}
		batches[i] = [2]*tensor.Tensor{x, y}
	}
	return func(cycle, iter int) (*tensor.Tensor, *tensor.Tensor) {
		b := batches[(cycle*iters+iter)%len(batches)]
		return b[0].Clone(), b[1].Clone()
	}, batches
}

func tinyNet(seed int64) *nn.Network {
	return nn.NewTinyConvNet(rand.New(rand.NewSource(seed)), 1, 6, 6, 3, nn.ActSigmoid)
}

func tinyBatch(seed int64, iters int) func(cycle, iter int) (*tensor.Tensor, *tensor.Tensor) {
	f, _ := fixedBatches(seed, 4, iters, 36, 3)
	return f
}

// referenceTrain runs plain SGD with the same batches and returns the
// final flat weights.
func referenceTrain(net *nn.Network, batch func(cycle, iter int) (*tensor.Tensor, *tensor.Tensor), cycles, iters int, lr float64) []*tensor.Tensor {
	o := opt.NewSGD(lr, 0)
	for c := 0; c < cycles; c++ {
		for i := 0; i < iters; i++ {
			x, y := batch(c, i)
			net.TrainStep(x, y, o)
		}
	}
	return net.StateDict()
}

// secureTrain runs the same workload through the SecureTrainer and
// reconstructs the full final weights via the (trusted) server view.
func secureTrain(t *testing.T, plan *Plan, cycles, iters int, lr float64) ([]*tensor.Tensor, *SecureTrainer, []*CycleResult) {
	t.Helper()
	net := tinyNet(7)
	dev := tz.NewDevice("sec-train-test")
	st, err := NewSecureTrainer(dev, net, plan, TrainerConfig{
		Iterations: iters, LR: lr, Batch: tinyBatch(99, iters),
	})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := EstablishServerView(st)
	if err != nil {
		t.Fatal(err)
	}
	// Server-side running model: starts from the same init.
	global := tinyNet(7).StateDict()
	var results []*CycleResult
	for c := 0; c < cycles; c++ {
		res, err := st.RunCycle(c)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		full, err := sv.FullUpdate(res)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range full {
			if u == nil {
				t.Fatalf("cycle %d: update %d missing", c, i)
			}
			tensor.AddInPlace(global[i], u)
		}
	}
	return global, st, results
}

// The central correctness property: secure partitioned training computes
// exactly the same weights as plain training, for static (successive and
// non-successive) and dynamic plans.
func TestSecureTrainingEquivalence(t *testing.T) {
	const cycles, iters, lr = 3, 2, 0.05
	ref := referenceTrain(tinyNet(7), tinyBatch(99, iters), cycles, iters, lr)

	plans := map[string]*Plan{
		"static-middle":        mustStatic(t, 1),
		"static-nonsuccessive": mustStatic(t, 0, 2),
		"static-head":          mustStatic(t, 0),
		"static-tail":          mustStatic(t, 2),
		"darknetz-slice":       mustDarkneTZ(t, 1, 2),
		"dynamic-mw2":          mustDynamic(t, 2, []float64{0.5, 0.5}),
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			got, _, _ := secureTrain(t, plan, cycles, iters, lr)
			for i := range ref {
				if !got[i].EqualApprox(ref[i], 1e-9) {
					t.Fatalf("weight tensor %d diverged from plain training (max %v vs %v)",
						i, got[i].MaxAbs(), ref[i].MaxAbs())
				}
			}
		})
	}
}

// The attacker's view: protected layers' updates must be nil in
// Observable and their weights zeroed in the normal-world network.
func TestLeakageOracle(t *testing.T) {
	plan := mustStatic(t, 0, 2) // protect first and last of 3 layers
	_, st, results := secureTrain(t, plan, 2, 2, 0.05)

	fr := flatRanges(st.Network())
	for _, res := range results {
		for _, l := range []int{0, 2} {
			for k := fr[l].start; k < fr[l].end; k++ {
				if res.Observable[k] != nil {
					t.Fatalf("cycle %d: protected layer %d leaked observable update", res.Cycle, l)
				}
			}
		}
		for k := fr[1].start; k < fr[1].end; k++ {
			if res.Observable[k] == nil {
				t.Fatalf("cycle %d: unprotected layer update missing", res.Cycle)
			}
		}
		if len(res.SealedUpdate) == 0 {
			t.Fatal("protected updates must travel sealed")
		}
	}
	// Normal-world weights of protected layers are zeroed.
	for _, l := range []int{0, 2} {
		for _, p := range st.Network().Layers[l].Params() {
			if p.MaxAbs() != 0 {
				t.Fatalf("normal world can read protected layer %d weights", l)
			}
		}
	}
	// Unprotected layer weights are present.
	nonzero := false
	for _, p := range st.Network().Layers[1].Params() {
		if p.MaxAbs() > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("unprotected layer weights should live in the normal world")
	}
}

// Dynamic plans migrate weights in and out of the enclave between cycles;
// the normal-world zeroing must follow the window.
func TestDynamicWindowMigration(t *testing.T) {
	plan := mustDynamic(t, 1, []float64{0.5, 0.5, 0}) // alternate L1/L2
	_, st, results := secureTrain(t, plan, 2, 1, 0.05)
	if results[0].Protected[0] == results[1].Protected[0] {
		t.Fatalf("window did not move: %v then %v", results[0].Protected, results[1].Protected)
	}
	// After the final cycle, the currently protected layer is zeroed in
	// the normal world and the previous one is declassified.
	last := results[1].Protected[0]
	for _, p := range st.Network().Layers[last].Params() {
		if p.MaxAbs() != 0 {
			t.Fatal("currently protected layer visible in normal world")
		}
	}
	prev := results[0].Protected[0]
	visible := false
	for _, p := range st.Network().Layers[prev].Params() {
		if p.MaxAbs() > 0 {
			visible = true
		}
	}
	if !visible {
		t.Fatal("layer that left the window must be declassified")
	}
}

func TestSecureMemoryAccounting(t *testing.T) {
	plan := mustStatic(t, 1)
	_, st, results := secureTrain(t, plan, 1, 1, 0.05)
	want := TEEMemoryBytes(st.Network().Layers[1], 4, st.Device().Cost().BytesPerCell)
	if results[0].PeakTEEBytes != want {
		t.Fatalf("peak TEE bytes = %d, want %d", results[0].PeakTEEBytes, want)
	}
	if results[0].Cost.Alloc <= 0 || results[0].Cost.Kernel <= 0 || results[0].Cost.User <= 0 {
		t.Fatalf("cost breakdown incomplete: %+v", results[0].Cost)
	}
}

func TestSecureMemoryExhaustion(t *testing.T) {
	net := tinyNet(7)
	dev := tz.NewDevice("tiny-enclave", tz.WithSecureMemory(64)) // absurdly small
	st, err := NewSecureTrainer(dev, net, mustStatic(t, 0), TrainerConfig{
		Iterations: 1, LR: 0.05, Batch: tinyBatch(1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstablishServerView(st); err != nil {
		t.Fatal(err)
	}
	_, err = st.RunCycle(0)
	if !errors.Is(err, tz.ErrOutOfSecureMemory) {
		t.Fatalf("err = %v, want out of secure memory", err)
	}
}

func TestRunCycleRequiresBatch(t *testing.T) {
	net := tinyNet(7)
	dev := tz.NewDevice("no-batch")
	st, err := NewSecureTrainer(dev, net, mustStatic(t, 0), TrainerConfig{Iterations: 1, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.RunCycle(0); err == nil {
		t.Fatal("RunCycle without Batch must fail")
	}
}

func TestEndCycleWithoutChannelFails(t *testing.T) {
	net := tinyNet(7)
	dev := tz.NewDevice("no-channel")
	st, err := NewSecureTrainer(dev, net, mustStatic(t, 0), TrainerConfig{
		Iterations: 1, LR: 0.05, Batch: tinyBatch(1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.RunCycle(0); err == nil {
		t.Fatal("protected training without a trusted channel must fail")
	}
}

func TestPlanValidatedAtConstruction(t *testing.T) {
	net := tinyNet(7)
	dev := tz.NewDevice("bad-plan")
	if _, err := NewSecureTrainer(dev, net, mustStatic(t, 9), TrainerConfig{}); !errors.Is(err, ErrLayerRange) {
		t.Fatalf("err = %v", err)
	}
}

// Full FL integration: GradSec clients training through the protocol with
// a protecting planner must reach the same global model as plain FedAvg.
func TestFLIntegrationEquivalence(t *testing.T) {
	const rounds, iters, lr = 2, 2, 0.05

	buildClient := func(name string) (*GradSecClient, *tz.Device) {
		net := tinyNet(7)
		// Zero out: weights come from the server each round.
		dev := tz.NewDevice(name)
		st, err := NewSecureTrainer(dev, net, mustStatic(t, 1), TrainerConfig{
			Iterations: iters, LR: lr, Batch: tinyBatch(int64(len(name)), iters),
		})
		if err != nil {
			t.Fatal(err)
		}
		return NewGradSecClient(name, st), dev
	}

	gc1, dev1 := buildClient("alpha")
	gc2, dev2 := buildClient("beta")

	verifier := tz.NewVerifier()
	for _, d := range []*tz.Device{dev1, dev2} {
		verifier.RegisterDevice(d.Identity().ID(), d.Identity().RootKey())
	}
	m1, _ := dev1.Measurement(gc1.Trainer().TAUUID())
	verifier.AllowMeasurement(m1)
	m2, _ := dev2.Measurement(gc2.Trainer().TAUUID())
	verifier.AllowMeasurement(m2)

	globalNet := tinyNet(7)
	plan := mustStatic(t, 1)
	planner := NewPlanner(plan, globalNet, func(layers []int) map[int]bool {
		return FlatIndicesForLayers(globalNet, layers)
	})
	srv := fl.NewServer(globalNet.StateDict(), fl.ServerConfig{
		Rounds: rounds, RequireTEE: true, Verifier: verifier, Planner: planner, MinClients: 2,
	})

	c1Conn, s1Conn := fl.Pipe()
	c2Conn, s2Conn := fl.Pipe()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, pair := range []struct {
		conn fl.Conn
		gc   *GradSecClient
	}{{c1Conn, gc1}, {c2Conn, gc2}} {
		wg.Add(1)
		go func(i int, conn fl.Conn, gc *GradSecClient) {
			defer wg.Done()
			errs[i] = fl.NewClient(conn, gc).Run()
		}(i, pair.conn, pair.gc)
	}
	selected, err := srv.Run([]fl.Conn{s1Conn, s2Conn})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("client %d: %v", i, e)
		}
	}
	if selected != 2 {
		t.Fatalf("selected = %d, want 2", selected)
	}

	// Reference: plain FedAvg with identical batches.
	refGlobal := tinyNet(7).StateDict()
	refA := tinyNet(7)
	refB := tinyNet(7)
	for round := 0; round < rounds; round++ {
		var updates [][]*tensor.Tensor
		for ci, ref := range []*nn.Network{refA, refB} {
			name := []string{"alpha", "beta"}[ci]
			if err := ref.LoadState(refGlobal); err != nil {
				t.Fatal(err)
			}
			before := ref.StateDict()
			batch := tinyBatch(int64(len(name)), iters)
			o := opt.NewSGD(lr, 0)
			for it := 0; it < iters; it++ {
				x, y := batch(round, it)
				ref.TrainStep(x, y, o)
			}
			after := ref.StateDict()
			upd := make([]*tensor.Tensor, len(after))
			for i := range after {
				upd[i] = tensor.Sub(after[i], before[i])
			}
			updates = append(updates, upd)
		}
		fl.ApplyUpdate(refGlobal, fl.FedAvg(updates), 1)
	}

	for i, want := range refGlobal {
		if !srv.State()[i].EqualApprox(want, 1e-9) {
			t.Fatalf("global tensor %d diverged from plain FedAvg", i)
		}
	}
}

func TestFlatIndicesForLayers(t *testing.T) {
	net := tinyNet(7)
	got := FlatIndicesForLayers(net, []int{1})
	// Layer 1 owns flat tensors 2,3 (W,B after layer 0's W,B).
	if !got[2] || !got[3] || got[0] || got[4] {
		t.Fatalf("flat indices = %v", got)
	}
}

// Batch may be a stateful sampler: a cycle of k iterations draws exactly
// k batches, each for its own (cycle, iter) — none just to size the
// enclave.
func TestRunCycleDrawsOneBatchPerIteration(t *testing.T) {
	const iters = 3
	batch := tinyBatch(5, iters)
	var calls [][2]int
	st, err := NewSecureTrainer(tz.NewDevice("batch-count"), tinyNet(7), mustStatic(t, 1), TrainerConfig{
		Iterations: iters, LR: 0.05,
		Batch: func(cycle, iter int) (*tensor.Tensor, *tensor.Tensor) {
			calls = append(calls, [2]int{cycle, iter})
			return batch(cycle, iter)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstablishServerView(st); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 2; cycle++ {
		calls = nil
		if _, err := st.RunCycle(cycle); err != nil {
			t.Fatal(err)
		}
		want := [][2]int{{cycle, 0}, {cycle, 1}, {cycle, 2}}
		if !reflect.DeepEqual(calls, want) {
			t.Fatalf("cycle %d: Batch called for %v, want %v", cycle, calls, want)
		}
	}
}

// roundMeter records what each TrainRound cost in world switches and
// whether it produced a sealed half.
type roundMeter struct {
	*GradSecClient
	smc    []int64
	sealed []int
}

func (m *roundMeter) TrainRound(round int, plain []*tensor.Tensor, sealed, plan []byte) ([]*tensor.Tensor, []byte, error) {
	dev := m.Trainer().Device()
	before := dev.SMCCount()
	upd, sealedUpd, err := m.GradSecClient.TrainRound(round, plain, sealed, plan)
	m.smc = append(m.smc, dev.SMCCount()-before)
	m.sealed = append(m.sealed, len(sealedUpd))
	return upd, sealedUpd, err
}

// A device is built with a placeholder plan that the server's plan
// replaces each round (cmd/flclient). When the server sends no plan,
// nothing is protected that round: a masked session accepts the update
// (it refuses a sealed half in a round without protected tensors) and a
// plaintext session pays for no forward or backward TA invocation.
func TestNoPlanFromServerProtectsNothing(t *testing.T) {
	const rounds, iters = 2, 2
	for _, secAgg := range []bool{true, false} {
		var meters []*roundMeter
		var conns []fl.Conn
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, name := range []string{"alpha", "beta"} {
			st, err := NewSecureTrainer(tz.NewDevice(name), tinyNet(7), mustStatic(t, 0), TrainerConfig{
				Iterations: iters, LR: 0.05, Batch: tinyBatch(int64(i), iters),
			})
			if err != nil {
				t.Fatal(err)
			}
			m := &roundMeter{GradSecClient: NewGradSecClient(name, st)}
			meters = append(meters, m)
			clientConn, serverConn := fl.Pipe()
			conns = append(conns, serverConn)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = fl.NewClient(clientConn, m).Run()
			}(i)
		}
		srv := fl.NewServer(tinyNet(7).StateDict(), fl.ServerConfig{Rounds: rounds, SecAgg: secAgg, MinClients: 2})
		_, err := srv.Run(conns)
		wg.Wait()
		if err != nil {
			t.Fatalf("secagg=%v: %v", secAgg, err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("secagg=%v: client %d: %v", secAgg, i, e)
			}
		}
		for _, st := range srv.Trace() {
			if st.Responded != 2 {
				t.Errorf("secagg=%v round %d: %d of 2 responded", secAgg, st.Round, st.Responded)
			}
		}
		for _, m := range meters {
			for r := range m.smc {
				if m.sealed[r] != 0 {
					t.Errorf("secagg=%v %s round %d: sealed update of %d bytes with nothing protected", secAgg, m.DeviceID(), r, m.sealed[r])
				}
				if want := int64(switchCount(0, iters)); m.smc[r] != want {
					t.Errorf("secagg=%v %s round %d: %d world switches, want %d (no forward or backward invocation)", secAgg, m.DeviceID(), r, m.smc[r], want)
				}
			}
			if len(m.smc) != rounds {
				t.Errorf("secagg=%v %s trained %d rounds, want %d", secAgg, m.DeviceID(), len(m.smc), rounds)
			}
		}
	}
}

// A device handed a hostile plan blob answers with the typed validation
// error; it must not reach RunCycle, where the plan is indexed.
func TestTrainRoundRejectsHostilePlan(t *testing.T) {
	net := tinyNet(7)
	st, err := NewSecureTrainer(tz.NewDevice("hostile"), net, nil, TrainerConfig{Iterations: 1, Batch: tinyBatch(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	c := NewGradSecClient("hostile", st)
	hostile := &Plan{Mode: ModeDynamic, SizeMW: 2, VMW: []float64{math.NaN(), 1}}
	if _, _, err := c.TrainRound(0, net.StateDict(), nil, hostile.Encode()); !errors.Is(err, ErrBadVMW) {
		t.Fatalf("NaN VMW: err = %v, want ErrBadVMW", err)
	}
	if _, _, err := c.TrainRound(0, net.StateDict(), nil, (&Plan{Mode: ModeStatic, Layers: []int{1, 1}}).Encode()); !errors.Is(err, ErrDuplicateLayer) {
		t.Fatalf("duplicate layers: err = %v, want ErrDuplicateLayer", err)
	}
}

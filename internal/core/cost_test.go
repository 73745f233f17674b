package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
)

// contiguousRuns is the run finder OverheadSim counted world switches
// with before the trainer, the TA and the model shared segments: the
// independent oracle for segments' secure half.
func contiguousRuns(protected []int) [][]int {
	var runs [][]int
	for i := 0; i < len(protected); {
		j := i + 1
		for j < len(protected) && protected[j] == protected[j-1]+1 {
			j++
		}
		runs = append(runs, protected[i:j])
		i = j
	}
	return runs
}

func TestSegments(t *testing.T) {
	normal := func(first, last int) segment { return segment{first: first, last: last} }
	secure := func(first, last int) segment { return segment{first: first, last: last, secure: true} }
	tests := []struct {
		in   []int
		want []segment
	}{
		{[]int{1, 4}, []segment{normal(0, 0), secure(1, 1), normal(2, 3), secure(4, 4)}},                  // L2+L5: two runs (the paper's grouped protection)
		{[]int{1, 2, 3}, []segment{normal(0, 0), secure(1, 3), normal(4, 4)}},                             // contiguous slice: one run
		{[]int{0}, []segment{secure(0, 0), normal(1, 4)}},                                                 // single layer
		{[]int{0, 2, 4}, []segment{secure(0, 0), normal(1, 1), secure(2, 2), normal(3, 3), secure(4, 4)}}, // fully scattered
		{nil, []segment{normal(0, 4)}},                                                                    // baseline
		{[]int{0, 1, 2, 3, 4}, []segment{secure(0, 4)}},                                                   // whole model in the enclave
	}
	for _, tc := range tests {
		got := segments(5, tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("segments(5, %v) = %v, want %v", tc.in, got, tc.want)
		}
		var runs [][]int
		for _, seg := range got {
			if !seg.secure {
				continue
			}
			var run []int
			for l := seg.first; l <= seg.last; l++ {
				run = append(run, l)
			}
			runs = append(runs, run)
		}
		if want := contiguousRuns(tc.in); !reflect.DeepEqual(runs, want) {
			t.Errorf("secure segments of %v = %v, want the contiguous runs %v", tc.in, runs, want)
		}
	}
}

func miniNet() *nn.Network {
	return nn.NewLeNet5Mini(rand.New(rand.NewSource(3)), nn.ActReLU)
}

func miniBatch(seed int64, batch, iters int) func(cycle, iter int) (*tensor.Tensor, *tensor.Tensor) {
	f, _ := fixedBatches(seed, batch, iters, 16*16, 10)
	return f
}

// secureSegments counts the secure segments of a protected set.
func secureSegments(numLayers int, protected []int) int {
	n := 0
	for _, seg := range segments(numLayers, protected) {
		if seg.secure {
			n++
		}
	}
	return n
}

// The pin on the one cost table: for every plan shape and every cycle, the
// clock the live trainer and TA charged equals the analytic model bucket
// for bucket in nanoseconds, and the world switches the device counted
// equal the table's. The last row is the deployment path (tcp-tee): the
// device is driven through GradSecClient.TrainRound from a placeholder
// plan and the protected weights arrive sealed every round — one more TA
// invocation, ahead of the cycle, while provisioning is still charged by
// the cycle itself.
func TestLiveCostEqualsModel(t *testing.T) {
	rows := []struct {
		name   string
		plan   *Plan
		cycles int
		sealed bool
	}{
		{name: "unprotected", plan: nil, cycles: 2},
		{name: "L2", plan: mustStatic(t, 1), cycles: 3},
		{name: "L2+L5", plan: mustStatic(t, 1, 4), cycles: 3},
		{name: "L1+L3+L5", plan: mustStatic(t, 0, 2, 4), cycles: 3}, // three secure segments
		{name: "DarkneTZ L2..L5", plan: mustDarkneTZ(t, 1, 4), cycles: 3},
		{name: "uniform MW=2", plan: mustUniform(t, 2, 5), cycles: 2 * WindowPositions(5, 2)}, // two full window periods
		{name: "L2+L5 sealed rounds", plan: mustStatic(t, 1, 4), cycles: 3, sealed: true},
	}
	shapes := []struct{ batch, iters int }{{4, 2}, {6, 3}}
	for _, row := range rows {
		for _, shape := range shapes {
			net := miniNet()
			dev := tz.NewDevice("pin-" + row.name)
			plan := row.plan
			if row.sealed {
				plan = mustStatic(t, 0) // the placeholder cmd/flclient builds its trainer with
			}
			st, err := NewSecureTrainer(dev, net, plan, TrainerConfig{
				Iterations: shape.iters, LR: 0.05, Batch: miniBatch(11, shape.batch, shape.iters),
			})
			if err != nil {
				t.Fatal(err)
			}
			sv, err := EstablishServerView(st)
			if err != nil {
				t.Fatal(err)
			}
			table := costTable{dev.Cost()}
			sim := &OverheadSim{Net: net, Cost: dev.Cost(), Batch: shape.batch, Iterations: shape.iters}
			for c := 0; c < row.cycles; c++ {
				var got simclock.Breakdown
				var protected []int
				extraSMC := 0
				smc0 := dev.SMCCount()
				if row.sealed {
					protected = row.plan.ProtectedLayers(c, net.NumLayers())
					plain, sealed := distribute(sv, protected)
					before := dev.Clock().Snapshot()
					if _, _, err := NewGradSecClient(row.name, st).TrainRound(c, plain, sealed, row.plan.Encode()); err != nil {
						t.Fatal(err)
					}
					after := dev.Clock().Snapshot()
					got = simclock.Breakdown{User: after.User - before.User, Kernel: after.Kernel - before.Kernel, Alloc: after.Alloc - before.Alloc}
					extraSMC = smcPerInvoke // LoadSealedWeights, ahead of the cycle
				} else {
					res, err := st.RunCycle(c)
					if err != nil {
						t.Fatal(err)
					}
					got, protected = res.Cost, res.Protected
				}
				if want := sim.CycleCost(protected).Add(table.switches(extraSMC)); got != want {
					t.Errorf("%s batch %d×%d cycle %d (protected %v): live user/kernel/alloc = %d/%d/%d ns, model %d/%d/%d ns",
						row.name, shape.batch, shape.iters, c, protected, got.User, got.Kernel, got.Alloc, want.User, want.Kernel, want.Alloc)
				}
				wantSMC := switchCount(secureSegments(net.NumLayers(), protected), shape.iters) + extraSMC
				if n := int(dev.SMCCount() - smc0); n != wantSMC {
					t.Errorf("%s batch %d×%d cycle %d: %d world switches, cost table says %d", row.name, shape.batch, shape.iters, c, n, wantSMC)
				}
			}
		}
	}
}

// distribute splits a global model the way the FL server does for a
// round: plain tensors with nil at the protected positions, and the
// protected ones sealed for the TA.
func distribute(sv *ServerView, protected []int) ([]*tensor.Tensor, []byte) {
	global := miniNet()
	flat := FlatIndicesForLayers(global, protected)
	state := global.StateDict()
	plain := make([]*tensor.Tensor, len(state))
	var idx []int
	var ts []*tensor.Tensor
	for i, w := range state {
		if flat[i] {
			idx, ts = append(idx, i), append(ts, w)
		} else {
			plain[i] = w
		}
	}
	return plain, sv.channel.Seal(fl.SealedUpdate(idx, ts))
}

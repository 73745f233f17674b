package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	ad "github.com/gradsec/gradsec/internal/autodiff"
	"github.com/gradsec/gradsec/internal/tensor"
)

// graphGradients is the reference Gradients is held to: the whole network
// on the autodiff node graph.
func graphGradients(n *Network, x, y *tensor.Tensor) (float64, []*tensor.Tensor) {
	loss, f := n.LossGraph(x, y)
	var flat []*ad.Node
	for _, vars := range f.ParamVars {
		flat = append(flat, vars...)
	}
	return ad.Scalar(loss), ad.GradValues(loss, flat)
}

func sameBits(a, b *tensor.Tensor) error {
	if !a.SameShape(b) {
		return fmt.Errorf("shape %v vs %v", a.Shape, b.Shape)
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return fmt.Errorf("element %d: %v (%#x) vs %v (%#x)", i, v, math.Float64bits(v), b.Data[i], math.Float64bits(b.Data[i]))
		}
	}
	return nil
}

func randomBatch(rng *rand.Rand, batch, cells, classes int) (x, y *tensor.Tensor) {
	x = tensor.Randn(rng, 1, batch, cells)
	// Exact zeros and negative zeros exercise the kernels' zero-skip.
	for i := range x.Data {
		switch rng.Intn(8) {
		case 0:
			x.Data[i] = 0
		case 1:
			x.Data[i] = math.Copysign(0, -1)
		}
	}
	y = tensor.New(batch, classes)
	for r := 0; r < batch; r++ {
		y.Set(1, r, rng.Intn(classes))
	}
	return x, y
}

// The bit-identity contract: on every zoo network and activation, the
// kernel path's loss and every parameter gradient equal the node graph's
// bit for bit — for two batches of different size through one workspace,
// so the second pass runs over buffers holding the first one's data.
func TestKernelsMatchGraphBitForBit(t *testing.T) {
	zoo := map[string]func(rng *rand.Rand, act Activation) *Network{
		"LeNet5":      NewLeNet5,
		"LeNet5Mini":  NewLeNet5Mini,
		"AlexNetS":    func(rng *rand.Rand, act Activation) *Network { return NewAlexNetS(rng, 16, act) },
		"TinyConvNet": func(rng *rand.Rand, act Activation) *Network { return NewTinyConvNet(rng, 2, 7, 7, 5, act) },
		"TinyMLP":     func(rng *rand.Rand, act Activation) *Network { return NewTinyMLP(rng, 9, 7, 4, act) },
	}
	for name, build := range zoo {
		for _, act := range []Activation{ActNone, ActReLU, ActSigmoid, ActTanh} {
			t.Run(fmt.Sprintf("%s/%v", name, act), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name))*10 + int64(act)))
				net := build(rng, act)
				classes := net.Layers[len(net.Layers)-1].OutCells()
				for _, batch := range []int{3, 2} {
					x, y := randomBatch(rng, batch, net.Layers[0].InCells(), classes)
					wantLoss, want := graphGradients(net, x, y)
					gotLoss, got := net.Gradients(x, y)
					if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
						t.Fatalf("batch %d: loss %v, graph %v", batch, gotLoss, wantLoss)
					}
					k := 0
					for l, gs := range got {
						for j, g := range gs {
							if err := sameBits(g, want[k]); err != nil {
								t.Fatalf("batch %d: layer %d gradient %d: %v", batch, l, j, err)
							}
							k++
						}
					}
					if err := sameBits(net.Predict(x, batch), net.BuildForward(x, batch).Output.Value); err != nil {
						t.Fatalf("batch %d: Predict: %v", batch, err)
					}
				}
			})
		}
	}
}

// The input gradient — what a TA hands the preceding unprotected layer —
// is part of the contract too, through pooled and unpooled convolutions.
func TestKernelInputGradientMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, pool := range []int{0, 2} {
		for _, act := range []Activation{ActNone, ActReLU, ActSigmoid, ActTanh} {
			conv := NewConv2D(rng, 3, 8, 8, 5, 3, 1, 1, pool, act)
			dense := NewDense(rng, conv.OutCells(), 6, act)
			net := &Network{Layers: []Layer{conv, dense}}
			ws := NewWorkspace(net)
			for _, batch := range []int{4, 2} {
				x, _ := randomBatch(rng, batch, conv.InCells(), 1)
				seed := tensor.Randn(rng, 1, batch, dense.OutCells())

				f := net.BuildForward(x, batch)
				s := ad.SumAll(ad.Mul(f.Output, ad.Const(seed)))
				want := ad.GradValues(s, []*ad.Node{f.LayerOutputs[0], f.Input})

				ws.Forward(1, ws.Forward(0, x, batch), batch)
				mid, _ := ws.Backward(1, seed, true)
				if err := sameBits(mid, want[0].Reshape(mid.Shape...)); err != nil {
					t.Fatalf("pool %d %v batch %d: dense input gradient: %v", pool, act, batch, err)
				}
				in, _ := ws.Backward(0, mid, true)
				if err := sameBits(in, want[1].Reshape(in.Shape...)); err != nil {
					t.Fatalf("pool %d %v batch %d: conv input gradient: %v", pool, act, batch, err)
				}
				if skipped, _ := ws.Backward(0, mid, false); skipped != nil {
					t.Fatal("input gradient computed although not needed")
				}
			}
		}
	}
}

// What Gradients, TrainStep and Predict return is the caller's: a later
// pass through the same workspace must not change it.
func TestReturnedTensorsAreCallerOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewTinyConvNet(rng, 1, 6, 6, 3, ActReLU)
	x1, y1 := randomBatch(rng, 4, 36, 3)
	x2, y2 := randomBatch(rng, 4, 36, 3)
	_, g1 := net.Gradients(x1, y1)
	p1 := net.Predict(x1, 4)
	keepG, keepP := g1[0][0].Clone(), p1.Clone()
	net.Gradients(x2, y2)
	net.Predict(x2, 4)
	if err := sameBits(g1[0][0], keepG); err != nil {
		t.Fatalf("gradient overwritten by a later call: %v", err)
	}
	if err := sameBits(p1, keepP); err != nil {
		t.Fatalf("prediction overwritten by a later call: %v", err)
	}
	if c := net.Clone(); c.ws != nil {
		t.Fatal("Clone copied the workspace")
	}
}

// allocatedBy returns the bytes f allocates (TotalAlloc delta).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A steady-state Gradients call on LeNet-5 at batch 16 allocated 38.6 MB
// on the node graph. On the workspace it allocates the returned gradients
// (0.7 MB), the loss head and little else.
func TestGradientsSteadyStateAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewLeNet5(rng, ActReLU)
	x, y := randomBatch(rng, 16, 3*32*32, NumClasses)
	net.Gradients(x, y) // sizes the workspace
	if got := allocatedBy(func() { net.Gradients(x, y) }); got > 2<<20 {
		t.Fatalf("steady-state Gradients allocated %.2f MB, want < 2 MB", float64(got)/(1<<20))
	}
}

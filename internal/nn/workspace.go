package nn

import (
	"fmt"
	"math"

	ad "github.com/gradsec/gradsec/internal/autodiff"
	"github.com/gradsec/gradsec/internal/tensor"
)

// Workspace is the scratch memory of first-order training passes over one
// network: per layer, what a forward pass leaves for the backward pass and
// the gradients that one produces, plus the temporaries of a single layer's
// pass, which all layers share. Buffers are sized on first use and reused
// for every later batch, so a steady-state pass allocates next to nothing.
//
// The arithmetic replicates, operation for operation and in the same
// accumulation order, what Layer.Build's graph and its VJPs compute; the
// results are bit-identical (docs/TRAINING.md).
//
// Every tensor a Workspace returns is one of its buffers: valid until the
// layer's next Forward (outputs) or Backward (gradients), and to be cloned
// by a caller that hands it on. A Workspace is not safe for concurrent use.
type Workspace struct {
	net   *Network
	tmp   *temps
	slots []*scratch
}

// NewWorkspace returns an empty workspace for passes over n's layers.
func NewWorkspace(n *Network) *Workspace {
	t := func() *tensor.Tensor { return new(tensor.Tensor) }
	return &Workspace{net: n, tmp: &temps{z: t(), dact: t(), dz: t(), dcols: t()}}
}

// temps are dead once the layer pass that filled them returns.
type temps struct {
	z     *tensor.Tensor // Conv2D forward: cols·W [R, F]
	dact  *tensor.Tensor // Conv2D backward: gradient at the pre-activation, feature-map layout
	dz    *tensor.Tensor // backward: gradient at the pre-activation, matmul layout
	dcols *tensor.Tensor // Conv2D backward: dz·Wᵀ [R, K]
}

// scratch is one layer's share of a Workspace. The tensor headers live as
// long as the Workspace, whatever batch they are sized for, so a header
// can stand for its buffer in a registry (tz.SecureAllocator).
type scratch struct {
	*temps
	in   *tensor.Tensor // Dense: the caller's input batch as [batch, In]; not a buffer of ours
	geom tensor.ConvGeom

	cols   *tensor.Tensor   // Conv2D: im2col of the input [R, K]
	act    *tensor.Tensor   // activation: Conv2D [N, F, OH, OW] before pooling, Dense [batch, Out]
	pooled *tensor.Tensor   // Conv2D with pooling: the output [N, F, OH/P, OW/P]
	arg    []int            // ... and its argmax routing
	dx     *tensor.Tensor   // gradient at the input
	grads  []*tensor.Tensor // dW, dB, parallel to Params()
}

func (s *scratch) buffers() []*tensor.Tensor {
	return append([]*tensor.Tensor{s.cols, s.act, s.pooled, s.dx}, s.grads...)
}

func (w *Workspace) slot(l int) *scratch {
	for len(w.slots) <= l {
		t := func() *tensor.Tensor { return new(tensor.Tensor) }
		w.slots = append(w.slots, &scratch{temps: w.tmp, cols: t(), act: t(), pooled: t(), dx: t(), grads: []*tensor.Tensor{t(), t()}})
	}
	return w.slots[l]
}

// Forward runs layer l on x (any shape with batch × InCells elements) and
// returns its output.
func (w *Workspace) Forward(l int, x *tensor.Tensor, batch int) *tensor.Tensor {
	return w.net.Layers[l].forward(w.slot(l), x, batch)
}

// Backward takes the gradient at layer l's output (any shape with as many
// elements as the output of the Forward it follows) and returns the
// gradients of the layer's parameters, parallel to Params(), and — when
// needInput — the gradient at its input.
func (w *Workspace) Backward(l int, gradOut *tensor.Tensor, needInput bool) (gradIn *tensor.Tensor, grads []*tensor.Tensor) {
	s := w.slot(l)
	gradIn = w.net.Layers[l].backward(s, gradOut, needInput)
	return gradIn, s.grads
}

// Buffers returns the headers of the buffers the workspace keeps for layer
// l alone — every tensor Forward(l) or Backward(l) can return among them.
// They are the same for the life of the workspace.
func (w *Workspace) Buffers(l int) []*tensor.Tensor { return w.slot(l).buffers() }

// Temps returns the headers of the temporaries all layers share, which
// hold parts of the most recent pass. They are the same for the life of
// the workspace.
func (w *Workspace) Temps() []*tensor.Tensor {
	return []*tensor.Tensor{w.tmp.z, w.tmp.dact, w.tmp.dz, w.tmp.dcols}
}

// Scrub zeroes, in place and to their full capacity, layer l's buffers and
// the shared temporaries; later passes reuse them.
func (w *Workspace) Scrub(l int) {
	s := w.slot(l)
	s.in = nil
	for _, t := range append(s.buffers(), w.Temps()...) {
		clear(t.Data[:cap(t.Data)])
	}
	clear(s.arg[:cap(s.arg)])
}

// fit gives t the shape, keeping its header and, when large enough, its
// backing array. The contents are unspecified: every kernel overwrites its
// destination in full.
func fit(t *tensor.Tensor, shape ...int) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if cap(t.Data) < n {
		t.Data = make([]float64, n)
	}
	t.Data = t.Data[:n]
	t.Shape = append(t.Shape[:0], shape...)
}

// activate applies a in place: the values of applyAct's nodes.
func activate(a Activation, d []float64) {
	switch a {
	case ActNone, 0:
	case ActReLU:
		for i, v := range d {
			if !(v > 0) {
				d[i] = v * 0 // v·mask, as ad.ReLU: −0 and NaN survive
			}
		}
	case ActSigmoid:
		for i, v := range d {
			d[i] = ad.Logistic(v)
		}
	case ActTanh:
		for i, v := range d {
			d[i] = math.Tanh(v)
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

// activationVJP writes the gradient at a's input given g at its output and
// its output act: the values of the VJP nodes of ad.ReLU (g·mask),
// ad.Sigmoid (g·(s·(1−s))) and ad.Tanh (g·(1−t·t)). dst may be g. The
// conversions keep each product a rounded float64, as a stored tensor
// element is, on platforms that would otherwise fuse multiply and add.
func activationVJP(a Activation, dst, g, act []float64) {
	switch a {
	case ActNone, 0:
		copy(dst, g)
	case ActReLU:
		for i, v := range g {
			if act[i] > 0 {
				dst[i] = v
			} else {
				dst[i] = v * 0
			}
		}
	case ActSigmoid:
		for i, v := range g {
			s := act[i]
			dst[i] = v * float64(s*(1-s))
		}
	case ActTanh:
		for i, v := range g {
			t := act[i]
			dst[i] = v * (1 - float64(t*t))
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

func wantCells(what string, t *tensor.Tensor, cells int) {
	if t.Size() != cells {
		panic(fmt.Sprintf("nn: %s has %d elements (shape %v), want %d", what, t.Size(), t.Shape, cells))
	}
}

func (c *Conv2D) forward(s *scratch, x *tensor.Tensor, batch int) *tensor.Tensor {
	g := tensor.NewConvGeom(batch, c.InC, c.InH, c.InW, c.KH, c.KW, c.Stride, c.Pad)
	s.geom = g
	rows, k := g.ColShape()
	fit(s.cols, rows, k)
	tensor.Im2ColInto(s.cols, x.Reshape(batch, c.InC, c.InH, c.InW), g)
	fit(s.z, rows, c.Filters)
	tensor.MatMulInto(s.z, s.cols, c.W)

	// act[n,f,y,x] = σ(z[(n,y,x), f] + b[f]): bias, colsToFeatureMap's
	// permutation and the activation.
	fit(s.act, batch, c.Filters, g.OutH, g.OutW)
	f, ohw := c.Filters, g.OutH*g.OutW
	for n := 0; n < batch; n++ {
		for p := 0; p < ohw; p++ {
			zrow := s.z.Data[(n*ohw+p)*f : (n*ohw+p+1)*f]
			for j, v := range zrow {
				s.act.Data[(n*f+j)*ohw+p] = v + c.B.Data[j]
			}
		}
	}
	activate(c.Act, s.act.Data)
	if c.Pool == 0 {
		return s.act
	}
	fit(s.pooled, batch, c.Filters, g.OutH/c.Pool, g.OutW/c.Pool)
	if n := s.pooled.Size(); cap(s.arg) < n {
		s.arg = make([]int, n)
	} else {
		s.arg = s.arg[:n]
	}
	tensor.MaxPool2DInto(s.pooled, s.arg, s.act, c.Pool, c.Pool)
	return s.pooled
}

func (c *Conv2D) backward(s *scratch, gradOut *tensor.Tensor, needInput bool) *tensor.Tensor {
	g := s.geom
	batch, f, ohw := g.N, c.Filters, g.OutH*g.OutW
	fit(s.dact, s.act.Shape...)
	if c.Pool > 0 {
		wantCells("Conv2D output gradient", gradOut, s.pooled.Size())
		tensor.MaxUnpool2DInto(s.dact, gradOut, s.arg)
		activationVJP(c.Act, s.dact.Data, s.dact.Data, s.act.Data)
	} else {
		wantCells("Conv2D output gradient", gradOut, s.act.Size())
		activationVJP(c.Act, s.dact.Data, gradOut.Data, s.act.Data)
	}
	// Back through the permutation, a scatter-add into zeros: 0 + v.
	fit(s.dz, batch*ohw, f)
	for n := 0; n < batch; n++ {
		for p := 0; p < ohw; p++ {
			drow := s.dz.Data[(n*ohw+p)*f : (n*ohw+p+1)*f]
			for j := range drow {
				drow[j] = 0 + s.dact.Data[(n*f+j)*ohw+p]
			}
		}
	}
	dW, dB := s.grads[0], s.grads[1]
	fit(dB, c.B.Shape...)
	tensor.ColSumInto(dB, s.dz)
	fit(dW, c.W.Shape...)
	tensor.MatMulTNInto(dW, s.cols, s.dz)
	if !needInput {
		return nil
	}
	fit(s.dcols, s.cols.Shape...)
	tensor.MatMulNTInto(s.dcols, s.dz, c.W)
	fit(s.dx, batch, c.InC, c.InH, c.InW)
	tensor.Col2ImInto(s.dx, s.dcols, g)
	return s.dx
}

func (d *Dense) forward(s *scratch, x *tensor.Tensor, batch int) *tensor.Tensor {
	s.in = x.Reshape(batch, d.In)
	fit(s.act, batch, d.Out)
	tensor.MatMulInto(s.act, s.in, d.W)
	for i := 0; i < batch; i++ {
		row := s.act.Data[i*d.Out : (i+1)*d.Out]
		for j, b := range d.B.Data {
			row[j] += b
		}
	}
	activate(d.Act, s.act.Data)
	return s.act
}

func (d *Dense) backward(s *scratch, gradOut *tensor.Tensor, needInput bool) *tensor.Tensor {
	wantCells("Dense output gradient", gradOut, s.act.Size())
	fit(s.dz, s.act.Shape...)
	activationVJP(d.Act, s.dz.Data, gradOut.Data, s.act.Data)
	dW, dB := s.grads[0], s.grads[1]
	fit(dB, d.B.Shape...)
	tensor.ColSumInto(dB, s.dz)
	fit(dW, d.W.Shape...)
	tensor.MatMulTNInto(dW, s.in, s.dz)
	if !needInput {
		return nil
	}
	fit(s.dx, s.in.Shape...)
	tensor.MatMulNTInto(s.dx, s.dz, d.W)
	return s.dx
}

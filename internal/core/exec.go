package core

import (
	"errors"
	"fmt"

	ad "github.com/gradsec/gradsec/internal/autodiff"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
)

// segment is a maximal run of successive layers that execute in the same
// world.
type segment struct {
	first, last int
	secure      bool
}

// segments decomposes a numLayers-layer model under a protected set into
// the schedule one training pass walks. Each secure segment costs one TA
// invocation per pass — the SMC-crossing advantage contiguous protection
// has over scattered sets.
func segments(numLayers int, protected []int) []segment {
	secure := make([]bool, numLayers)
	for _, l := range protected {
		secure[l] = true
	}
	var segs []segment
	for l, s := range secure {
		if n := len(segs); n > 0 && segs[n-1].secure == s {
			segs[n-1].last = l
			continue
		}
		segs = append(segs, segment{first: l, last: l, secure: s})
	}
	return segs
}

// executor trains layer ranges of one world's copy of the model: the
// SecureTrainer runs one over the normal-world view, the gradsec TA one
// over its private clone. The two share this code and nothing else —
// each has its own network, workspace and cycle-start snapshot, and every
// tensor that passes between them is cloned at the world boundary.
//
// Layers run on nn's first-order kernels (docs/TRAINING.md); only the loss
// head is an autodiff graph. What forward and backward return are workspace
// buffers: valid until the layer's next pass, never to leave the world
// un-cloned.
type executor struct {
	net    *nn.Network
	ws     *nn.Workspace // this world's scratch, reused across iterations and cycles
	lr     float64
	secure bool // the world this executor runs in, hence the clock bucket it charges
	cost   costTable
	clock  *simclock.Clock

	protected []bool             // the cycle's protected layers
	start     [][]*tensor.Tensor // cycle-start weights of the layers this world owns
	pending   []int              // per layer, the batch size of a forward still awaiting its backward (0: none)
	lossGrad  *tensor.Tensor     // δ at the logits, between the passes, when this world ran the loss head
}

func newExecutor(net *nn.Network, lr float64, secure bool) *executor {
	return &executor{net: net, ws: nn.NewWorkspace(net), lr: lr, secure: secure}
}

// owns reports whether layer l executes in this world this cycle.
func (e *executor) owns(l int) bool {
	return l >= 0 && l < len(e.protected) && e.protected[l] == e.secure
}

// begin starts a cycle on the given schedule and snapshots the weights of
// the layers this world owns, for updates.
func (e *executor) begin(segs []segment) {
	n := e.net.NumLayers()
	e.protected, e.start, e.pending = make([]bool, n), make([][]*tensor.Tensor, n), make([]int, n)
	for _, s := range segs {
		for l := s.first; l <= s.last; l++ {
			e.protected[l] = s.secure
			if s.secure == e.secure {
				e.start[l] = cloneParams(e.net.Layers[l])
			}
		}
	}
}

// forward runs layers first..last on input x and returns the last
// activation — or, given labels (the range ends the model), runs the loss
// head on it, keeps δ for backward and returns the loss alone.
func (e *executor) forward(first, last int, x, labels *tensor.Tensor) (*tensor.Tensor, float64, error) {
	batch := x.Shape[0]
	for l := first; l <= last; l++ {
		if !e.owns(l) {
			return nil, 0, fmt.Errorf("core: forward over layer %d, which runs in the other world", l)
		}
		x = e.ws.Forward(l, x, batch)
		e.pending[l] = batch
		charge(e.clock, e.cost.forward(e.net.Layers[l], batch, e.secure))
	}
	if labels == nil {
		return x, 0, nil
	}
	logits := ad.Var(x)
	loss := ad.SoftmaxCrossEntropy(logits, labels)
	e.lossGrad = ad.GradValues(loss, []*ad.Node{logits})[0]
	return nil, ad.Scalar(loss), nil
}

// backward runs layers last..first from the gradient at last's output
// (nil: from the loss head's δ), takes each layer's SGD step, and returns
// the gradient at first's input — nil when first is layer 0.
func (e *executor) backward(first, last int, gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if gradOut == nil {
		if e.lossGrad == nil {
			return nil, errors.New("core: backward without gradient or loss head")
		}
		gradOut, e.lossGrad = e.lossGrad, nil
	}
	for l := last; l >= first; l-- {
		if !e.owns(l) || e.pending[l] == 0 {
			return nil, fmt.Errorf("core: backward before forward for layer %d", l)
		}
		batch := e.pending[l]
		e.pending[l] = 0
		// Nobody reads ∂/∂input of layer 0, so it is not computed.
		gradIn, grads := e.ws.Backward(l, gradOut, l > 0)
		// Immediate SGD step (safe: this layer's backward is done and
		// earlier layers only consume the δ already produced).
		layer := e.net.Layers[l]
		for j, p := range layer.Params() {
			tensor.AxPy(-e.lr, grads[j], p)
		}
		gradOut = gradIn
		charge(e.clock, e.cost.backward(layer, batch, e.secure))
	}
	return gradOut, nil
}

// updates yields the cycle's model update W_end − W_start of every
// parameter tensor this world owns, by flat parameter index.
func (e *executor) updates(yield func(flat int, update *tensor.Tensor)) {
	fr := flatRanges(e.net)
	for l, start := range e.start {
		if start == nil {
			continue
		}
		for j, p := range e.net.Layers[l].Params() {
			yield(fr[l].start+j, tensor.Sub(p, start[j]))
		}
	}
}

// cloneParams copies a layer's parameter tensors.
func cloneParams(l nn.Layer) []*tensor.Tensor {
	ps := l.Params()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}

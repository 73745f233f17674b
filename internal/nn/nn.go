// Package nn is a from-scratch deep-neural-network framework — the Go
// counterpart of the Darknet framework that DarkneTZ (and therefore the
// paper's GradSec prototype) builds on. It provides convolutional,
// max-pooling and dense layers, categorical cross-entropy training, and
// the exact LeNet-5 and AlexNet architectures of the paper's Table 4.
//
// Every layer is differentiated two ways that agree bit for bit
// (docs/TRAINING.md): first-order kernels over a reused Workspace, which
// every trainer, Gradients, TrainStep and Predict run on, and Build's
// autodiff graph, whose gradients are themselves differentiable — what
// attack.DRIA needs, and the reference the kernels are tested against.
//
// Layer indices are 1-based in the paper ("L1".."Ln"); this package uses
// 0-based slice indices and the repro harness translates.
package nn

import (
	"fmt"

	ad "github.com/gradsec/gradsec/internal/autodiff"
	"github.com/gradsec/gradsec/internal/opt"
	"github.com/gradsec/gradsec/internal/tensor"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations. ActSigmoid exists primarily for the DRIA model
// zoo: the deep-leakage attack needs a twice-differentiable network.
const (
	ActNone Activation = iota + 1
	ActReLU
	ActSigmoid
	ActTanh
)

func (a Activation) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

func applyAct(a Activation, x *ad.Node) *ad.Node {
	switch a {
	case ActNone, 0:
		return x
	case ActReLU:
		return ad.ReLU(x)
	case ActSigmoid:
		return ad.Sigmoid(x)
	case ActTanh:
		return ad.Tanh(x)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

// Layer is one trainable (or structural) stage of a network.
type Layer interface {
	// Name returns a short human-readable description.
	Name() string
	// Params returns the layer's parameter tensors (may be empty).
	// Mutating the returned tensors updates the layer.
	Params() []*tensor.Tensor
	// Build appends the layer's computation to the graph. paramVars must
	// contain one Var node per Params() entry, wrapping those tensors.
	Build(x *ad.Node, paramVars []*ad.Node, batch int) *ad.Node
	// forward and backward are the layer's first-order pass over its share
	// of a Workspace (Workspace.Forward, Workspace.Backward): the values of
	// Build's nodes and of their VJPs, without the nodes.
	forward(s *scratch, x *tensor.Tensor, batch int) *tensor.Tensor
	backward(s *scratch, gradOut *tensor.Tensor, needInput bool) *tensor.Tensor
	// InCells returns the number of input activation cells per sample
	// (|A_{l-1}| in the paper's notation).
	InCells() int
	// OutCells returns the number of output activation cells per sample
	// (|Z_l| = |δ_l|).
	OutCells() int
	// ParamCount returns the total number of scalar parameters.
	ParamCount() int
}

// Network is an ordered stack of layers ending in classification logits.
type Network struct {
	Label  string
	Layers []Layer

	ws *Workspace // scratch of Gradients, TrainStep and Predict; built on first use, not cloned
}

// Forward holds the graph produced by one forward pass.
type Forward struct {
	// Output is the logits node [batch, classes].
	Output *ad.Node
	// Input is the Var node wrapping the input batch.
	Input *ad.Node
	// ParamVars mirrors Network.Layers: one Var per parameter tensor.
	ParamVars [][]*ad.Node
	// LayerOutputs[i] is the output node of layer i.
	LayerOutputs []*ad.Node
}

// NumLayers returns the number of layers.
func (n *Network) NumLayers() int { return len(n.Layers) }

// Params returns all parameter tensors grouped by layer.
func (n *Network) Params() [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, len(n.Layers))
	for i, l := range n.Layers {
		out[i] = l.Params()
	}
	return out
}

// FlatParams returns all parameter tensors in a single slice ordered by
// layer then position.
func (n *Network) FlatParams() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ParamCount returns the total number of scalar parameters.
func (n *Network) ParamCount() int {
	total := 0
	for _, l := range n.Layers {
		total += l.ParamCount()
	}
	return total
}

// BuildForward constructs the forward graph for input x (any shape whose
// element count matches batch × input cells). The input node is a Var so
// that attacks can differentiate with respect to it.
func (n *Network) BuildForward(x *tensor.Tensor, batch int) *Forward {
	in := ad.Var(x)
	f := &Forward{Input: in, ParamVars: make([][]*ad.Node, len(n.Layers)), LayerOutputs: make([]*ad.Node, len(n.Layers))}
	cur := in
	for i, l := range n.Layers {
		ps := l.Params()
		vars := make([]*ad.Node, len(ps))
		for j, p := range ps {
			vars[j] = ad.Var(p)
		}
		f.ParamVars[i] = vars
		cur = l.Build(cur, vars, batch)
		f.LayerOutputs[i] = cur
	}
	f.Output = cur
	return f
}

// LossGraph builds forward + categorical cross-entropy loss against
// one-hot labels y [batch, classes].
func (n *Network) LossGraph(x, y *tensor.Tensor) (*ad.Node, *Forward) {
	batch := y.Shape[0]
	f := n.BuildForward(x, batch)
	return ad.SoftmaxCrossEntropy(f.Output, y), f
}

// workspace returns the network's own scratch. It makes Gradients,
// TrainStep and Predict unsafe to call concurrently on one Network.
func (n *Network) workspace() *Workspace {
	if n.ws == nil {
		n.ws = NewWorkspace(n)
	}
	return n.ws
}

// forward runs every layer on x through w and returns the logits buffer.
func (n *Network) forward(w *Workspace, x *tensor.Tensor, batch int) *tensor.Tensor {
	for l := range n.Layers {
		x = w.Forward(l, x, batch)
	}
	return x
}

// gradients runs a full forward/backward pass through the network's
// workspace and returns the loss and the per-layer parameter gradients —
// workspace buffers, valid until the next pass.
func (n *Network) gradients(x, y *tensor.Tensor) (float64, [][]*tensor.Tensor) {
	w := n.workspace()
	// The loss head stays on the node graph: it is tiny, and its fan-out
	// is where a hand-derived gradient would round differently.
	logits := ad.Var(n.forward(w, x, y.Shape[0]))
	loss := ad.SoftmaxCrossEntropy(logits, y)
	grad := ad.GradValues(loss, []*ad.Node{logits})[0]
	out := make([][]*tensor.Tensor, len(n.Layers))
	for l := len(n.Layers) - 1; l >= 0; l-- {
		grad, out[l] = w.Backward(l, grad, l > 0)
	}
	return ad.Scalar(loss), out
}

// Gradients runs a full forward/backward pass and returns the loss and
// per-layer parameter gradients (dW_l in the paper's notation). The
// returned tensors are the caller's.
func (n *Network) Gradients(x, y *tensor.Tensor) (float64, [][]*tensor.Tensor) {
	loss, grads := n.gradients(x, y)
	for l, gs := range grads {
		grads[l] = make([]*tensor.Tensor, len(gs))
		for j, g := range gs {
			grads[l][j] = g.Clone()
		}
	}
	return loss, grads
}

// TrainStep performs one optimizer step on batch (x, y) and returns the
// pre-step loss. The optimizer reads the gradients during Step only.
func (n *Network) TrainStep(x, y *tensor.Tensor, o opt.Optimizer) float64 {
	loss, grads := n.gradients(x, y)
	var flatP, flatG []*tensor.Tensor
	for i := range grads {
		flatP = append(flatP, n.Layers[i].Params()...)
		flatG = append(flatG, grads[i]...)
	}
	o.Step(flatP, flatG)
	return loss
}

// Predict returns the logits for x with the given batch size. The
// returned tensor is the caller's.
func (n *Network) Predict(x *tensor.Tensor, batch int) *tensor.Tensor {
	return n.forward(n.workspace(), x, batch).Clone()
}

// Accuracy returns top-1 accuracy of the network on (x, y).
func (n *Network) Accuracy(x, y *tensor.Tensor) float64 {
	batch := y.Shape[0]
	logits := n.Predict(x, batch)
	pred := tensor.ArgMaxRows(logits)
	truth := tensor.ArgMaxRows(y)
	correct := 0
	for i := range pred {
		if pred[i] == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// StateDict returns deep copies of all parameters, ordered like FlatParams.
func (n *Network) StateDict() []*tensor.Tensor {
	ps := n.FlatParams()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}

// LoadState copies the given tensors (ordered like FlatParams) into the
// network's parameters. It returns an error on any shape mismatch.
func (n *Network) LoadState(state []*tensor.Tensor) error {
	ps := n.FlatParams()
	if len(state) != len(ps) {
		return fmt.Errorf("nn: state has %d tensors, network has %d", len(state), len(ps))
	}
	for i, p := range ps {
		if !p.SameShape(state[i]) {
			return fmt.Errorf("nn: state tensor %d shape %v does not match parameter shape %v", i, state[i].Shape, p.Shape)
		}
	}
	for i, p := range ps {
		copy(p.Data, state[i].Data)
	}
	return nil
}

// Clone returns a structurally identical network with deep-copied weights.
// Layer configuration structs are shared metadata copies; the clone starts
// with no workspace of its own.
func (n *Network) Clone() *Network {
	c := &Network{Label: n.Label, Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		c.Layers[i] = cloneLayer(l)
	}
	return c
}

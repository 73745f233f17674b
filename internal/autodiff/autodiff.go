// Package autodiff implements an eager reverse-mode automatic
// differentiation engine over internal/tensor.
//
// The defining property of this engine is that vector-Jacobian products
// (VJPs) are themselves built out of graph operations. Gradients returned
// by Grad are ordinary nodes, so Grad can be applied to functions of
// gradients. This "double backprop" is exactly what the Data-Reconstruction
// Inference Attack (DRIA / deep-leakage-from-gradients) requires: it
// minimises ‖∇W(x) − g*‖² with respect to the *input* x, which needs
// gradients of gradients.
//
// Training does not run on it: every trainer differentiates through the
// first-order kernels of internal/nn, which compute the same values bit for
// bit without building nodes (docs/TRAINING.md). The graph serves
// attack.DRIA, the softmax-cross-entropy loss head, and the tests that hold
// the kernels to it.
//
// Evaluation is eager: every operation computes its Value at construction
// time, and Grad builds (and eagerly evaluates) new nodes for the backward
// pass.
package autodiff

import (
	"fmt"

	"github.com/gradsec/gradsec/internal/tensor"
)

// Node is one vertex of the computation graph. Nodes are immutable after
// construction.
type Node struct {
	// Value is the eagerly computed result of this node.
	Value *tensor.Tensor

	op        string
	inputs    []*Node
	needsGrad bool

	// vjp maps the gradient flowing into this node to the gradients of its
	// inputs, expressed as graph nodes so that they remain differentiable.
	// nil entries mean "no gradient for this input".
	vjp func(g *Node) []*Node
}

// Var returns a differentiable leaf wrapping t.
func Var(t *tensor.Tensor) *Node {
	return &Node{Value: t, op: "var", needsGrad: true}
}

// Const returns a non-differentiable leaf wrapping t. Gradients do not
// flow into constants.
func Const(t *tensor.Tensor) *Node {
	return &Node{Value: t, op: "const"}
}

// Op returns the operation name that produced this node ("var" and "const"
// for leaves).
func (n *Node) Op() string { return n.op }

// NeedsGrad reports whether gradients flow through this node.
func (n *Node) NeedsGrad() bool { return n.needsGrad }

func newOp(op string, value *tensor.Tensor, vjp func(g *Node) []*Node, inputs ...*Node) *Node {
	needs := false
	for _, in := range inputs {
		if in.needsGrad {
			needs = true
			break
		}
	}
	return &Node{Value: value, op: op, inputs: inputs, needsGrad: needs, vjp: vjp}
}

// Add returns a + b.
func Add(a, b *Node) *Node {
	return newOp("add", tensor.Add(a.Value, b.Value), func(g *Node) []*Node {
		return []*Node{g, g}
	}, a, b)
}

// Sub returns a - b.
func Sub(a, b *Node) *Node {
	return newOp("sub", tensor.Sub(a.Value, b.Value), func(g *Node) []*Node {
		return []*Node{g, Neg(g)}
	}, a, b)
}

// Mul returns the elementwise product a*b.
func Mul(a, b *Node) *Node {
	return newOp("mul", tensor.Mul(a.Value, b.Value), func(g *Node) []*Node {
		return []*Node{Mul(g, b), Mul(g, a)}
	}, a, b)
}

// Neg returns -a.
func Neg(a *Node) *Node { return Scale(a, -1) }

// Scale returns a*s for a scalar s.
func Scale(a *Node, s float64) *Node {
	return newOp("scale", tensor.Scale(a.Value, s), func(g *Node) []*Node {
		return []*Node{Scale(g, s)}
	}, a)
}

// Square returns a*a elementwise.
func Square(a *Node) *Node { return Mul(a, a) }

// MatMul returns the matrix product a·b of 2-D nodes.
func MatMul(a, b *Node) *Node {
	return newOp("matmul", tensor.MatMul(a.Value, b.Value), func(g *Node) []*Node {
		// d/dA = G·Bᵀ ; d/dB = Aᵀ·G
		return []*Node{MatMul(g, Transpose(b)), MatMul(Transpose(a), g)}
	}, a, b)
}

// Transpose returns the transpose of a 2-D node.
func Transpose(a *Node) *Node {
	return newOp("transpose", tensor.Transpose(a.Value), func(g *Node) []*Node {
		return []*Node{Transpose(g)}
	}, a)
}

// Reshape returns a view of a with the given shape (copy-free on values;
// gradients are reshaped back).
func Reshape(a *Node, shape ...int) *Node {
	orig := append([]int(nil), a.Value.Shape...)
	return newOp("reshape", a.Value.Reshape(shape...), func(g *Node) []*Node {
		return []*Node{Reshape(g, orig...)}
	}, a)
}

// Exp returns e^a elementwise.
func Exp(a *Node) *Node {
	out := tensor.Exp(a.Value)
	var n *Node
	n = newOp("exp", out, func(g *Node) []*Node {
		return []*Node{Mul(g, n)}
	}, a)
	return n
}

// Log returns ln(a) elementwise.
func Log(a *Node) *Node {
	return newOp("log", tensor.Log(a.Value), func(g *Node) []*Node {
		return []*Node{Mul(g, Reciprocal(a))}
	}, a)
}

// Reciprocal returns 1/a elementwise.
func Reciprocal(a *Node) *Node {
	out := tensor.Apply(a.Value, func(v float64) float64 { return 1 / v })
	var n *Node
	n = newOp("recip", out, func(g *Node) []*Node {
		// d(1/a) = -1/a² = -(1/a)·(1/a)
		return []*Node{Neg(Mul(g, Mul(n, n)))}
	}, a)
	return n
}

// Sigmoid returns 1/(1+e^-a) elementwise. Its VJP is fully differentiable
// (g·s·(1−s)), which is why the DRIA model zoo uses sigmoid activations.
func Sigmoid(a *Node) *Node {
	out := tensor.Apply(a.Value, Logistic)
	var n *Node
	n = newOp("sigmoid", out, func(g *Node) []*Node {
		one := Const(tensor.Full(1, n.Value.Shape...))
		return []*Node{Mul(g, Mul(n, Sub(one, n)))}
	}, a)
	return n
}

// Logistic is the scalar function Sigmoid applies elementwise. It is
// exported so that nn's first-order kernels evaluate the same expression.
func Logistic(v float64) float64 {
	if v >= 0 {
		e := exp(-v)
		return 1 / (1 + e)
	}
	e := exp(v)
	return e / (1 + e)
}

// Tanh returns tanh(a) elementwise with a differentiable VJP g·(1−t²).
func Tanh(a *Node) *Node {
	out := tensor.Apply(a.Value, tanh)
	var n *Node
	n = newOp("tanh", out, func(g *Node) []*Node {
		one := Const(tensor.Full(1, n.Value.Shape...))
		return []*Node{Mul(g, Sub(one, Mul(n, n)))}
	}, a)
	return n
}

// ReLU returns max(a, 0). The active-set mask is captured at construction
// and treated as locally constant in the VJP (the standard subgradient
// convention; second derivatives through the mask are zero a.e.).
func ReLU(a *Node) *Node {
	mask := tensor.Apply(a.Value, func(v float64) float64 {
		if v > 0 {
			return 1
		}
		return 0
	})
	out := tensor.Mul(a.Value, mask)
	return newOp("relu", out, func(g *Node) []*Node {
		return []*Node{Mul(g, Const(mask))}
	}, a)
}

// SumAll reduces a to a scalar-shaped [1,1] node.
func SumAll(a *Node) *Node {
	shape := append([]int(nil), a.Value.Shape...)
	v := tensor.FromSlice([]float64{tensor.SumAll(a.Value)}, 1, 1)
	return newOp("sumall", v, func(g *Node) []*Node {
		// Broadcast the scalar gradient to the input shape.
		return []*Node{BroadcastScalar(g, shape...)}
	}, a)
}

// BroadcastScalar expands a [1,1] node to an arbitrary shape.
func BroadcastScalar(a *Node, shape ...int) *Node {
	if a.Value.Size() != 1 {
		panic(fmt.Sprintf("autodiff: BroadcastScalar requires a scalar node, got shape %v", a.Value.Shape))
	}
	return newOp("bscalar", tensor.Full(a.Value.Data[0], shape...), func(g *Node) []*Node {
		return []*Node{SumAll(g)}
	}, a)
}

// RowSum reduces a [r,c] node over columns producing [r,1].
func RowSum(a *Node) *Node {
	c := a.Value.Shape[1]
	return newOp("rowsum", tensor.RowSum(a.Value), func(g *Node) []*Node {
		return []*Node{BroadcastCol(g, c)}
	}, a)
}

// ColSum reduces a [r,c] node over rows producing [1,c].
func ColSum(a *Node) *Node {
	r := a.Value.Shape[0]
	return newOp("colsum", tensor.ColSum(a.Value), func(g *Node) []*Node {
		return []*Node{BroadcastRow(g, r)}
	}, a)
}

// BroadcastCol expands an [r,1] node to [r,c].
func BroadcastCol(a *Node, c int) *Node {
	return newOp("bcol", tensor.BroadcastCol(a.Value, c), func(g *Node) []*Node {
		return []*Node{RowSum(g)}
	}, a)
}

// BroadcastRow expands a [1,c] node to [r,c].
func BroadcastRow(a *Node, r int) *Node {
	return newOp("brow", tensor.BroadcastRow(a.Value, r), func(g *Node) []*Node {
		return []*Node{ColSum(g)}
	}, a)
}

// RowMaxConst returns the per-row maximum of a as a *constant* node.
// It exists for numerically stable log-sum-exp; because the max is locally
// constant, treating it as such does not change gradients.
func RowMaxConst(a *Node) *Node {
	return Const(tensor.RowMax(a.Value))
}

// Im2Col unfolds a 4-D [N,C,H,W] node into the convolution column matrix
// for geometry g. Its VJP is Col2Im, the exact adjoint.
func Im2Col(a *Node, g tensor.ConvGeom) *Node {
	return newOp("im2col", tensor.Im2Col(a.Value, g), func(grad *Node) []*Node {
		return []*Node{Col2Im(grad, g)}
	}, a)
}

// Col2Im scatter-adds a column matrix node back to input shape for
// geometry g. Its VJP is Im2Col.
func Col2Im(a *Node, g tensor.ConvGeom) *Node {
	return newOp("col2im", tensor.Col2Im(a.Value, g), func(grad *Node) []*Node {
		return []*Node{Im2Col(grad, g)}
	}, a)
}

// MaxPool applies k×k max pooling with the given stride to a 4-D node.
// Argmax routing indices are captured at construction and treated as
// locally constant in the VJP (standard practice).
func MaxPool(a *Node, k, stride int) *Node {
	out, arg := tensor.MaxPool2D(a.Value, k, stride)
	inShape := append([]int(nil), a.Value.Shape...)
	return newOp("maxpool", out, func(g *Node) []*Node {
		return []*Node{maxUnpool(g, arg, inShape)}
	}, a)
}

// maxUnpool scatters pooled gradients back through captured argmax indices.
// Because the indices are constant, its own VJP is the gather (pool-read).
func maxUnpool(a *Node, arg []int, inShape []int) *Node {
	outShape := append([]int(nil), a.Value.Shape...)
	return newOp("maxunpool", tensor.MaxUnpool2D(a.Value, arg, inShape), func(g *Node) []*Node {
		return []*Node{gather(g, arg, outShape)}
	}, a)
}

// Gather reads elements of a at the given flat indices, producing a node
// of outShape with out.Data[i] = a.Data[idx[i]]. Its VJP scatter-adds
// gradients back, so for bijective idx (a permutation) Gather is an exact
// orthogonal re-layout; nn uses it to convert convolution column output
// [N*OH*OW, F] to feature-map layout [N, F, OH, OW].
func Gather(a *Node, idx []int, outShape ...int) *Node {
	return gather(a, idx, outShape)
}

// gather reads elements at arg from a, producing outShape. Adjoint of
// maxUnpool's scatter.
func gather(a *Node, arg []int, outShape []int) *Node {
	out := tensor.New(outShape...)
	for i, idx := range arg {
		out.Data[i] = a.Value.Data[idx]
	}
	inShape := append([]int(nil), a.Value.Shape...)
	return newOp("gather", out, func(g *Node) []*Node {
		return []*Node{maxUnpool(g, arg, inShape)}
	}, a)
}

// AddRowBias adds a [1,c] bias node to every row of an [r,c] node.
func AddRowBias(x, b *Node) *Node {
	r := x.Value.Shape[0]
	return Add(x, BroadcastRow(b, r))
}

// Scalar extracts the single float of a [1,1]-shaped node's value.
func Scalar(a *Node) float64 {
	if a.Value.Size() != 1 {
		panic(fmt.Sprintf("autodiff: Scalar on non-scalar node of shape %v", a.Value.Shape))
	}
	return a.Value.Data[0]
}

package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window
// over an input of shape [N, C, H, W].
type ConvGeom struct {
	N, C, H, W     int // input batch, channels, height, width
	KH, KW         int // kernel height/width
	Stride, Pad    int
	OutH, OutW     int // derived output spatial size
	outputsPerItem int // OutH*OutW
}

// NewConvGeom computes output dimensions for the given convolution
// parameters, matching the usual floor arithmetic:
// out = (in + 2*pad - k)/stride + 1.
func NewConvGeom(n, c, h, w, kh, kw, stride, pad int) ConvGeom {
	if stride <= 0 {
		panic("tensor: stride must be positive")
	}
	if kh <= 0 || kw <= 0 {
		panic("tensor: kernel dims must be positive")
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry yields empty output (in %dx%d kernel %dx%d stride %d pad %d)", h, w, kh, kw, stride, pad))
	}
	return ConvGeom{N: n, C: c, H: h, W: w, KH: kh, KW: kw, Stride: stride, Pad: pad, OutH: oh, OutW: ow, outputsPerItem: oh * ow}
}

// ColShape returns the shape of the im2col matrix: [N*OutH*OutW, C*KH*KW].
func (g ConvGeom) ColShape() (rows, cols int) {
	return g.N * g.OutH * g.OutW, g.C * g.KH * g.KW
}

// Im2Col unfolds x of shape [N,C,H,W] into a matrix [N*OutH*OutW, C*KH*KW]
// so that convolution with F filters becomes a matmul with a [C*KH*KW, F]
// weight matrix. Out-of-bounds (padding) positions contribute zeros.
func Im2Col(x *Tensor, g ConvGeom) *Tensor {
	rows, cols := g.ColShape()
	out := New(rows, cols)
	Im2ColInto(out, x, g)
	return out
}

// Im2ColInto unfolds x as Im2Col does, over dst [N*OutH*OutW, C*KH*KW].
// Every element of dst is written, padding positions with zero, so what
// dst held is discarded.
func Im2ColInto(dst, x *Tensor, g ConvGeom) {
	if len(x.Shape) != 4 || x.Shape[0] != g.N || x.Shape[1] != g.C || x.Shape[2] != g.H || x.Shape[3] != g.W {
		panic(fmt.Sprintf("tensor: Im2Col input shape %v does not match geometry %+v", x.Shape, g))
	}
	rows, cols := g.ColShape()
	wantShape(dst, "Im2Col", rows, cols)
	hw := g.H * g.W
	chw := g.C * hw
	row := 0
	for n := 0; n < g.N; n++ {
		base := n * chw
		for oy := 0; oy < g.OutH; oy++ {
			iy0 := oy*g.Stride - g.Pad
			for ox := 0; ox < g.OutW; ox++ {
				ix0 := ox*g.Stride - g.Pad
				drow := dst.Data[row*cols : (row+1)*cols]
				col := 0
				for c := 0; c < g.C; c++ {
					cbase := base + c*hw
					for ky := 0; ky < g.KH; ky++ {
						iy := iy0 + ky
						for kx := 0; kx < g.KW; kx++ {
							ix := ix0 + kx
							if iy >= 0 && iy < g.H && ix >= 0 && ix < g.W {
								drow[col] = x.Data[cbase+iy*g.W+ix]
							} else {
								drow[col] = 0
							}
							col++
						}
					}
				}
				row++
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatter-adds a column matrix of shape
// [N*OutH*OutW, C*KH*KW] back into an input-shaped tensor [N,C,H,W].
// For every x and col matrix c: <Im2Col(x), c> == <x, Col2Im(c)>.
func Col2Im(cols *Tensor, g ConvGeom) *Tensor {
	out := New(g.N, g.C, g.H, g.W)
	Col2ImInto(out, cols, g)
	return out
}

// Col2ImInto scatter-adds cols as Col2Im does, over dst [N,C,H,W]: dst is
// zeroed first, then takes the column entries in row-major order of cols.
func Col2ImInto(dst, cols *Tensor, g ConvGeom) {
	rows, ncols := g.ColShape()
	if len(cols.Shape) != 2 || cols.Shape[0] != rows || cols.Shape[1] != ncols {
		panic(fmt.Sprintf("tensor: Col2Im input shape %v does not match geometry (want [%d,%d])", cols.Shape, rows, ncols))
	}
	wantShape(dst, "Col2Im", g.N, g.C, g.H, g.W)
	clear(dst.Data)
	hw := g.H * g.W
	chw := g.C * hw
	row := 0
	for n := 0; n < g.N; n++ {
		base := n * chw
		for oy := 0; oy < g.OutH; oy++ {
			iy0 := oy*g.Stride - g.Pad
			for ox := 0; ox < g.OutW; ox++ {
				ix0 := ox*g.Stride - g.Pad
				src := cols.Data[row*ncols : (row+1)*ncols]
				col := 0
				for c := 0; c < g.C; c++ {
					cbase := base + c*hw
					for ky := 0; ky < g.KH; ky++ {
						iy := iy0 + ky
						for kx := 0; kx < g.KW; kx++ {
							ix := ix0 + kx
							if iy >= 0 && iy < g.H && ix >= 0 && ix < g.W {
								dst.Data[cbase+iy*g.W+ix] += src[col]
							}
							col++
						}
					}
				}
				row++
			}
		}
	}
}

// MaxPool2D applies k×k max pooling with the given stride to x [N,C,H,W].
// It returns the pooled tensor [N,C,OutH,OutW] and, for each output
// element, the flat index into x.Data of the selected maximum (used by the
// backward pass to route gradients).
func MaxPool2D(x *Tensor, k, stride int) (*Tensor, []int) {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2D requires [N,C,H,W], got %v", x.Shape))
	}
	g := NewConvGeom(x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], k, k, stride, 0)
	out := New(g.N, g.C, g.OutH, g.OutW)
	arg := make([]int, out.Size())
	MaxPool2DInto(out, arg, x, k, stride)
	return out, arg
}

// MaxPool2DInto pools x as MaxPool2D does, over dst [N,C,OutH,OutW] and
// arg, one argmax entry per element of dst.
func MaxPool2DInto(dst *Tensor, arg []int, x *Tensor, k, stride int) {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2D requires [N,C,H,W], got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	g := NewConvGeom(n, c, h, w, k, k, stride, 0)
	wantShape(dst, "MaxPool2D", n, c, g.OutH, g.OutW)
	if len(arg) != dst.Size() {
		panic(fmt.Sprintf("tensor: MaxPool2D has %d argmax entries for %d outputs", len(arg), dst.Size()))
	}
	hw := h * w
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			cbase := (ni*c + ci) * hw
			for oy := 0; oy < g.OutH; oy++ {
				for ox := 0; ox < g.OutW; ox++ {
					iy0, ix0 := oy*stride, ox*stride
					bestIdx := cbase + iy0*w + ix0
					best := x.Data[bestIdx]
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							idx := cbase + (iy0+ky)*w + (ix0 + kx)
							if v := x.Data[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					dst.Data[oi] = best
					arg[oi] = bestIdx
					oi++
				}
			}
		}
	}
}

// MaxUnpool2D scatters grad (shaped like a MaxPool2D output) back to the
// input shape using the argmax indices captured in the forward pass.
func MaxUnpool2D(grad *Tensor, arg []int, inShape []int) *Tensor {
	out := New(inShape...)
	MaxUnpool2DInto(out, grad, arg)
	return out
}

// MaxUnpool2DInto scatters grad as MaxUnpool2D does, over dst: dst is
// zeroed first, then element arg[i] takes grad's element i, in order.
func MaxUnpool2DInto(dst, grad *Tensor, arg []int) {
	if grad.Size() != len(arg) {
		panic(fmt.Sprintf("tensor: MaxUnpool2D grad size %d does not match %d argmax entries", grad.Size(), len(arg)))
	}
	clear(dst.Data)
	for i, v := range grad.Data {
		dst.Data[arg[i]] += v
	}
}

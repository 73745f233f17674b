package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMatMul spells out the accumulation rule the three products share:
// each element starts at +0 and takes its terms in ascending inner index,
// skipping those whose left factor is zero.
func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				if av := a.Data[i*k+p]; av != 0 {
					s += av * b.Data[p*n+j]
				}
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// spiked returns a random tensor salted with exact zeros and negative
// zeros, the values the zero-skip and the +0 start are about.
func spiked(rng *rand.Rand, shape ...int) *Tensor {
	t := Randn(rng, 1, shape...)
	for i := range t.Data {
		switch rng.Intn(6) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = math.Copysign(0, -1)
		}
	}
	return t
}

// stale returns a destination of the given shape full of NaN: anything a
// kernel fails to overwrite shows.
func stale(shape ...int) *Tensor { return Full(math.NaN(), shape...) }

func wantSameBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", what, i, v, math.Float64bits(v), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// The destination-writing products are bit-identical to MatMul over a
// materialised transpose, and all of them to the stated rule — on square,
// non-square and 1-wide shapes, with zeros of both signs, into stale
// destinations.
func TestMatMulIntoKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][3]int{{1, 1, 1}, {1, 7, 1}, {5, 1, 3}, {3, 4, 1}, {1, 3, 9}, {4, 4, 4}, {7, 5, 3}, {2, 9, 11}, {16, 75, 12}, {13, 6, 10}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := spiked(rng, m, k), spiked(rng, k, n)
			want := refMatMul(a, b)
			wantSameBits(t, "MatMul", MatMul(a, b), want)

			dst := stale(m, n)
			MatMulInto(dst, a, b)
			wantSameBits(t, "MatMulInto", dst, want)

			at, bt := Transpose(a), Transpose(b) // [k,m], [n,k]
			dst = stale(m, n)
			MatMulTNInto(dst, at, b)
			wantSameBits(t, "MatMulTNInto vs rule", dst, want)
			wantSameBits(t, "MatMulTNInto vs MatMul(Transpose(a), b)", dst, MatMul(Transpose(at), b))

			dst = stale(m, n)
			MatMulNTInto(dst, a, bt)
			wantSameBits(t, "MatMulNTInto vs rule", dst, want)
			wantSameBits(t, "MatMulNTInto vs MatMul(a, Transpose(b))", dst, MatMul(a, Transpose(bt)))

			sum := stale(1, n)
			ColSumInto(sum, b)
			wantSameBits(t, "ColSumInto", sum, ColSum(b))
		})
	}
}

// An all-negative-zero product must come out +0 everywhere: every sum
// starts at +0 whichever kernel computes it.
func TestMatMulKernelsStartAtPositiveZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a, b := Full(1, 2, 3), Full(negZero, 3, 2)
	for name, got := range map[string]*Tensor{
		"MatMul":       MatMul(a, b),
		"MatMulTNInto": func() *Tensor { d := stale(2, 2); MatMulTNInto(d, Transpose(a), b); return d }(),
		"MatMulNTInto": func() *Tensor { d := stale(2, 2); MatMulNTInto(d, a, Transpose(b)); return d }(),
	} {
		for i, v := range got.Data {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s: element %d is %v (%#x), want +0", name, i, v, math.Float64bits(v))
			}
		}
	}
}

func TestIntoKernelsCheckDestinationShape(t *testing.T) {
	a, b := New(2, 3), New(3, 4)
	g := NewConvGeom(1, 1, 4, 4, 3, 3, 1, 0)
	for name, f := range map[string]func(){
		"MatMulInto":   func() { MatMulInto(New(2, 3), a, b) },
		"MatMulTNInto": func() { MatMulTNInto(New(4, 3), Transpose(a), b) },
		"MatMulNTInto": func() { MatMulNTInto(New(8), a, Transpose(b)) },
		"Im2ColInto":   func() { Im2ColInto(New(4, 8), New(1, 1, 4, 4), g) },
		"Col2ImInto":   func() { Col2ImInto(New(1, 1, 4, 5), New(4, 9), g) },
	} {
		t.Run(name, func(t *testing.T) {
			defer expectPanic(t, name+" with a wrong-shaped destination")
			f()
		})
	}
}

// The convolution unfold and its adjoint, and pooling and its scatter,
// write over stale destinations what their allocating forms return — with
// and without padding, strided, 1-wide.
func TestConvIntoKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	geoms := []ConvGeom{
		NewConvGeom(1, 1, 1, 1, 1, 1, 1, 0),
		NewConvGeom(2, 3, 8, 8, 5, 5, 2, 2),
		NewConvGeom(3, 2, 6, 5, 3, 3, 1, 1),
		NewConvGeom(1, 4, 7, 1, 3, 1, 2, 0),
		NewConvGeom(2, 1, 4, 4, 3, 3, 1, 2),
	}
	for i, g := range geoms {
		t.Run(fmt.Sprintf("geom%d", i), func(t *testing.T) {
			x := spiked(rng, g.N, g.C, g.H, g.W)
			rows, cols := g.ColShape()
			dst := stale(rows, cols)
			Im2ColInto(dst, x, g)
			wantSameBits(t, "Im2ColInto", dst, Im2Col(x, g))

			c := spiked(rng, rows, cols)
			back := stale(g.N, g.C, g.H, g.W)
			Col2ImInto(back, c, g)
			wantSameBits(t, "Col2ImInto", back, Col2Im(c, g))
		})
	}

	x := spiked(rng, 2, 3, 6, 6)
	want, wantArg := MaxPool2D(x, 2, 2)
	dst, arg := stale(2, 3, 3, 3), make([]int, 54)
	for i := range arg {
		arg[i] = -1
	}
	MaxPool2DInto(dst, arg, x, 2, 2)
	wantSameBits(t, "MaxPool2DInto", dst, want)
	for i := range arg {
		if arg[i] != wantArg[i] {
			t.Fatalf("MaxPool2DInto argmax %d is %d, want %d", i, arg[i], wantArg[i])
		}
	}
	grad := spiked(rng, 2, 3, 3, 3)
	back := stale(2, 3, 6, 6)
	MaxUnpool2DInto(back, grad, arg)
	wantSameBits(t, "MaxUnpool2DInto", back, MaxUnpool2D(grad, arg, x.Shape))
}

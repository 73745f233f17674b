package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b elementwise. Shapes must match.
func Add(a, b *Tensor) *Tensor { return zip(a, b, func(x, y float64) float64 { return x + y }) }

// Sub returns a - b elementwise. Shapes must match.
func Sub(a, b *Tensor) *Tensor { return zip(a, b, func(x, y float64) float64 { return x - y }) }

// Mul returns the Hadamard (elementwise) product a * b. Shapes must match.
func Mul(a, b *Tensor) *Tensor { return zip(a, b, func(x, y float64) float64 { return x * y }) }

func zip(a, b *Tensor, f func(x, y float64) float64) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = f(a.Data[i], b.Data[i])
	}
	return out
}

// Scale returns a * s elementwise.
func Scale(a *Tensor, s float64) *Tensor {
	out := New(a.Shape...)
	for i, v := range a.Data {
		out.Data[i] = v * s
	}
	return out
}

// AddInPlace accumulates b into a (a += b). Shapes must match.
func AddInPlace(a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// AxPy computes a += alpha*b. Shapes must match.
func AxPy(alpha float64, b, a *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	for i := range a.Data {
		a.Data[i] += alpha * b.Data[i]
	}
}

// Apply returns a new tensor with f applied to every element.
func Apply(a *Tensor, f func(float64) float64) *Tensor {
	out := New(a.Shape...)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Exp returns e^a elementwise.
func Exp(a *Tensor) *Tensor { return Apply(a, math.Exp) }

// Log returns ln(a) elementwise.
func Log(a *Tensor) *Tensor { return Apply(a, math.Log) }

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a.Data), len(b.Data)))
	}
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a viewed as a flat vector.
func Norm2(a *Tensor) float64 { return math.Sqrt(Dot(a, a)) }

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: SqDist length mismatch %d vs %d", len(a.Data), len(b.Data)))
	}
	s := 0.0
	for i, v := range a.Data {
		d := v - b.Data[i]
		s += d * d
	}
	return s
}

// SumAll returns the sum of all elements.
func SumAll(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	return s
}

// mat2 asserts that a is 2-D and returns its rows and columns.
func mat2(a *Tensor, op string) (rows, cols int) {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires a 2-D tensor, got shape %v", op, a.Shape))
	}
	return a.Shape[0], a.Shape[1]
}

// wantShape asserts that dst, a kernel's caller-owned destination, has
// exactly the given shape.
func wantShape(dst *Tensor, op string, shape ...int) {
	ok := len(dst.Shape) == len(shape)
	for i := 0; ok && i < len(shape); i++ {
		ok = dst.Shape[i] == shape[i]
	}
	if !ok {
		panic(fmt.Sprintf("tensor: %s destination has shape %v, want %v", op, dst.Shape, shape))
	}
}

// The three matrix products below share one accumulation rule: every
// output element starts at +0 and takes its non-skipped terms one at a
// time in ascending inner index, a term being skipped exactly when its
// left-hand factor is zero. MatMulTNInto(dst, a, b) is therefore
// bit-identical to MatMul(Transpose(a), b), and MatMulNTInto(dst, a, b) to
// MatMul(a, Transpose(b)), without materialising the transpose. Blocking
// over the outer indices keeps the rule; splitting the inner sum does not.

// MatMul returns the matrix product a·b for 2-D tensors [m,k]·[k,n] → [m,n].
func MatMul(a, b *Tensor) *Tensor {
	m, _ := mat2(a, "MatMul")
	_, n := mat2(b, "MatMul")
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto writes a·b, [m,k]·[k,n], over dst [m,n]. dst must not share
// data with a or b; what it held is discarded.
func MatMulInto(dst, a, b *Tensor) {
	m, k := mat2(a, "MatMul")
	k2, n := mat2(b, "MatMul")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v · %v", a.Shape, b.Shape))
	}
	wantShape(dst, "MatMul", m, n)
	clear(dst.Data)
	// ikj loop order for cache-friendly access of b and dst.
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulTNInto writes aᵀ·b, [k,m]ᵀ·[k,n], over dst [m,n]: the weight
// gradient xᵀ·δ of a layer computing x·W. dst must not share data with a
// or b; what it held is discarded.
func MatMulTNInto(dst, a, b *Tensor) {
	k, m := mat2(a, "MatMulTN")
	k2, n := mat2(b, "MatMulTN")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTN inner dimension mismatch %vᵀ · %v", a.Shape, b.Shape))
	}
	wantShape(dst, "MatMulTN", m, n)
	clear(dst.Data)
	// Row p of a and of b meet in every dst[i][j]; walking p outermost
	// reads both contiguously and still adds to each element in ascending p.
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulNTInto writes a·bᵀ, [m,k]·[n,k]ᵀ, over dst [m,n]: the input
// gradient δ·Wᵀ of a layer computing x·W. dst must not share data with a
// or b; what it held is discarded.
func MatMulNTInto(dst, a, b *Tensor) {
	m, k := mat2(a, "MatMulNT")
	n, k2 := mat2(b, "MatMulNT")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulNT inner dimension mismatch %v · %vᵀ", a.Shape, b.Shape))
	}
	wantShape(dst, "MatMulNT", m, n)
	// Each element is a dot product of two rows. Four columns go at once so
	// the four sums hide each other's add latency; each sum still takes its
	// terms in ascending p.
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				if av == 0 {
					continue
				}
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for p, av := range arow {
				if av == 0 {
					continue
				}
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	m, n := mat2(a, "Transpose")
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// RowSum reduces a 2-D tensor [r,c] over columns producing [r,1].
func RowSum(a *Tensor) *Tensor {
	r, c := mat2(a, "RowSum")
	out := New(r, 1)
	for i := 0; i < r; i++ {
		s := 0.0
		row := a.Data[i*c : (i+1)*c]
		for _, v := range row {
			s += v
		}
		out.Data[i] = s
	}
	return out
}

// ColSum reduces a 2-D tensor [r,c] over rows producing [1,c].
func ColSum(a *Tensor) *Tensor {
	_, c := mat2(a, "ColSum")
	out := New(1, c)
	ColSumInto(out, a)
	return out
}

// ColSumInto writes the column sums of a [r,c] over dst [1,c], each sum
// starting at +0 and taking its rows in ascending order.
func ColSumInto(dst, a *Tensor) {
	r, c := mat2(a, "ColSum")
	wantShape(dst, "ColSum", 1, c)
	clear(dst.Data)
	for i := 0; i < r; i++ {
		row := a.Data[i*c : (i+1)*c]
		for j, v := range row {
			dst.Data[j] += v
		}
	}
}

// RowMax reduces a 2-D tensor [r,c] over columns producing the per-row
// maximum as [r,1].
func RowMax(a *Tensor) *Tensor {
	r, c := mat2(a, "RowMax")
	if c == 0 {
		panic("tensor: RowMax of zero-column matrix")
	}
	out := New(r, 1)
	for i := 0; i < r; i++ {
		row := a.Data[i*c : (i+1)*c]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		out.Data[i] = m
	}
	return out
}

// BroadcastCol expands a column vector [r,1] to [r,c] by repetition.
func BroadcastCol(v *Tensor, c int) *Tensor {
	r, one := mat2(v, "BroadcastCol")
	if one != 1 {
		panic(fmt.Sprintf("tensor: BroadcastCol requires shape [r,1], got %v", v.Shape))
	}
	out := New(r, c)
	for i := 0; i < r; i++ {
		val := v.Data[i]
		row := out.Data[i*c : (i+1)*c]
		for j := range row {
			row[j] = val
		}
	}
	return out
}

// BroadcastRow expands a row vector [1,c] to [r,c] by repetition.
func BroadcastRow(v *Tensor, r int) *Tensor {
	one, c := mat2(v, "BroadcastRow")
	if one != 1 {
		panic(fmt.Sprintf("tensor: BroadcastRow requires shape [1,c], got %v", v.Shape))
	}
	out := New(r, c)
	for i := 0; i < r; i++ {
		copy(out.Data[i*c:(i+1)*c], v.Data)
	}
	return out
}

// ArgMaxRows returns, for a 2-D tensor [r,c], the column index of the
// maximum element in each row.
func ArgMaxRows(a *Tensor) []int {
	r, c := mat2(a, "ArgMaxRows")
	out := make([]int, r)
	for i := 0; i < r; i++ {
		row := a.Data[i*c : (i+1)*c]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

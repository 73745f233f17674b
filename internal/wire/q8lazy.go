package wire

import (
	"github.com/gradsec/gradsec/internal/tensor"
)

// Q8Tensor is the lazy (non-materialised) form of a CodecQ8 tensor:
// the quantisation header plus the raw level bytes. It lets consumers
// fold quantised updates directly into an accumulator without ever
// allocating the per-client float64 tensor (fl.Aggregator.AccumulateQ8)
// — the allocation floor of the 1024-client fleet benchmark.
type Q8Tensor struct {
	Shape []int
	// Lo and Scale are the per-tensor quantisation header: an element
	// with level q dequantises to Lo + q·Scale.
	Lo, Scale float64
	// Levels holds one quantised byte per element.
	Levels []byte
}

// Size returns the element count of the tensor.
func (t *Q8Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// SameShape reports whether t matches the reference tensor's shape.
func (t *Q8Tensor) SameShape(ref *tensor.Tensor) bool {
	if len(t.Shape) != len(ref.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if d != ref.Shape[i] {
			return false
		}
	}
	return true
}

// Materialise dequantises into a fresh float64 tensor, with arithmetic
// identical to the eager q8 decode path (Reader.Tensor under CodecQ8).
func (t *Q8Tensor) Materialise() *tensor.Tensor {
	data := make([]float64, len(t.Levels))
	half := t.Scale / 2
	for i, b := range t.Levels {
		q := float64(b)
		data[i] = t.Lo + q*half + q*half
	}
	return tensor.FromSlice(data, t.Shape...)
}

// Q8Tensor reads one CodecQ8 tensor without dequantising; returns nil
// for the nil marker. Level bytes are copied out, so the payload may be
// reused by the caller immediately after.
func (r *Reader) Q8Tensor() *Q8Tensor {
	size, shape := r.tensorHeader()
	if r.err != nil || shape == nil {
		return nil
	}
	if q8Header+size > len(r.buf)-r.off {
		r.fail("q8 tensor size")
		return nil
	}
	lo := r.Float64()
	scale := r.Float64()
	levels := make([]byte, size)
	copy(levels, r.buf[r.off:r.off+size])
	r.off += size
	return &Q8Tensor{Shape: shape, Lo: lo, Scale: scale, Levels: levels}
}

// Q8TensorList reads a tensor list written with CodecQ8 lazily.
func (r *Reader) Q8TensorList() (ts []*Q8Tensor) {
	List(Decoder(r), &ts, (*Fields).Q8Tensor)
	return ts
}

// Q8TensorRaw re-encodes a lazily decoded q8 tensor verbatim (header
// and level bytes unchanged). The writer's codec must be CodecQ8 —
// levels are meaningless under any other encoding.
func (w *Writer) Q8TensorRaw(t *Q8Tensor) {
	if t == nil {
		w.Uvarint(0xFF)
		return
	}
	w.Uvarint(uint64(len(t.Shape)))
	for _, d := range t.Shape {
		w.Uvarint(uint64(d))
	}
	w.Float64(t.Lo)
	w.Float64(t.Scale)
	w.buf = append(w.buf, t.Levels...)
}

// Q8TensorListRaw re-encodes a lazily decoded q8 tensor list verbatim.
func (w *Writer) Q8TensorListRaw(ts []*Q8Tensor) { List(Encoder(w), &ts, (*Fields).Q8Tensor) }

package wire

import (
	"encoding/binary"
)

// U64Tensor is a tensor of raw 64-bit levels — the wire form of a
// fixed-point, pairwise-masked model update (internal/secagg). Levels
// are transported verbatim (8 B/element, little-endian) regardless of
// the negotiated tensor codec: masked levels are computationally
// indistinguishable from uniform noise, so no lossy codec may touch
// them and no generic compressor would shrink them.
type U64Tensor struct {
	Shape  []int
	Levels []uint64
}

// Size returns the element count of the tensor.
func (t *U64Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// U64Tensor appends a level tensor (nil allowed: encoded as the 0xFF
// rank marker, mirroring Writer.Tensor).
func (w *Writer) U64Tensor(t *U64Tensor) {
	if t == nil {
		w.Uvarint(0xFF)
		return
	}
	w.shape(t.Shape)
	if w.skip(8 * len(t.Levels)) {
		return
	}
	dst := w.grow(8 * len(t.Levels))
	for i, v := range t.Levels {
		binary.LittleEndian.PutUint64(dst[8*i:8*i+8], v)
	}
}

// U64TensorList appends a length-prefixed list of (possibly nil) level
// tensors.
func (w *Writer) U64TensorList(ts []*U64Tensor) { List(Encoder(w), &ts, (*Fields).U64Tensor) }

// U64Tensor reads a level tensor; returns nil for the nil marker.
func (r *Reader) U64Tensor() *U64Tensor {
	size, shape := r.tensorHeader()
	if r.err != nil || shape == nil {
		return nil
	}
	need := 8 * size
	if need > len(r.buf)-r.off {
		r.fail("u64 tensor size")
		return nil
	}
	levels := make([]uint64, size)
	src := r.buf[r.off : r.off+need]
	for i := range levels {
		levels[i] = binary.LittleEndian.Uint64(src[8*i : 8*i+8])
	}
	r.off += need
	return &U64Tensor{Shape: shape, Levels: levels}
}

// U64TensorList reads a list written by Writer.U64TensorList.
func (r *Reader) U64TensorList() (ts []*U64Tensor) {
	List(Decoder(r), &ts, (*Fields).U64Tensor)
	return ts
}

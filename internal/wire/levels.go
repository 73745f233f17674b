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
//
// A tensor built in memory holds its words in Levels. A decoded one is
// a view: Raw holds its words as they arrived, aliasing the payload
// (docs/WIRE.md, rule 6), and Levels is nil. AddTo folds either kind,
// and the Writer encodes either kind, with the same bytes on the wire.
type U64Tensor struct {
	Shape  []int
	Levels []uint64
	// Raw is a decoded tensor's words, little-endian, 8 bytes each; nil on
	// a tensor built in memory.
	Raw []byte
}

// Size returns the element count of the tensor.
func (t *U64Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Fits reports whether t is a well-formed level tensor of size elements:
// that many elements by its shape, and exactly that many words in
// exactly one of Levels and Raw. A nil tensor fits nothing. Every tensor
// the Reader returns fits its own shape; Fits is for tensors of unknown
// provenance.
func (t *U64Tensor) Fits(size int) bool {
	switch {
	case t == nil || t.Size() != size:
		return false
	case t.Raw != nil:
		return t.Levels == nil && len(t.Raw) == 8*size
	}
	return len(t.Levels) == size
}

// AddTo adds t's words to dst in ℤ/2⁶⁴, word i to dst[i] — the fold of a
// level tensor into a ring sum, read straight from the payload for a
// view. dst must hold exactly t's words (Fits).
func (t *U64Tensor) AddTo(dst []uint64) {
	if t.Raw == nil {
		for i, l := range t.Levels[:len(dst)] {
			dst[i] += l
		}
		return
	}
	raw := t.Raw[:8*len(dst)]
	for i := range dst {
		dst[i] += binary.LittleEndian.Uint64(raw[8*i:])
	}
}

// U64Tensor appends a level tensor (nil allowed: encoded as the 0xFF
// rank marker, mirroring Writer.Tensor); a view's words go out verbatim.
func (w *Writer) U64Tensor(t *U64Tensor) {
	if t == nil {
		w.Uvarint(0xFF)
		return
	}
	w.shape(t.Shape)
	switch {
	case t.Raw != nil:
		if !w.skip(len(t.Raw)) {
			w.buf = append(w.buf, t.Raw...)
		}
	case !w.skip(8 * len(t.Levels)):
		dst := w.grow(8 * len(t.Levels))
		if nativeLE {
			copy(dst, wordBytes(t.Levels))
			break
		}
		for i, v := range t.Levels {
			binary.LittleEndian.PutUint64(dst[8*i:8*i+8], v)
		}
	}
}

// U64TensorList appends a length-prefixed list of (possibly nil) level
// tensors.
func (w *Writer) U64TensorList(ts []*U64Tensor) { List(Encoder(w), &ts, (*Fields).U64Tensor) }

// U64Tensor reads a level tensor as a view aliasing the payload; returns
// nil for the nil marker. It checks what Reader.View checks — rank, dims,
// size, the payload the words need and the decode-amplification budget.
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
	t := &U64Tensor{Shape: shape, Raw: r.buf[r.off : r.off+need : r.off+need]}
	r.off += need
	return t
}

// U64TensorList reads a list written by Writer.U64TensorList.
func (r *Reader) U64TensorList() (ts []*U64Tensor) {
	List(Decoder(r), &ts, (*Fields).U64Tensor)
	return ts
}

package wire

import (
	"encoding/binary"
	"math"
	"slices"

	"github.com/gradsec/gradsec/internal/tensor"
)

// View is one tensor still in its wire encoding: the shape, the codec
// its elements were encoded under, and the element bytes, aliasing the
// payload it was read from. Nothing is decoded until the view is folded
// or copied (Decode), so a message read through views costs no float64
// tensor of its own; its payload must outlive the views and must not
// change under them (docs/WIRE.md, rule 6).
type View struct {
	Shape []int
	Codec Codec
	// Raw is the element payload as encoded: 8 bytes per element under
	// CodecF64, 4 under CodecF32, and under CodecQ8 the 16-byte
	// (min, scale) header followed by one level byte per element.
	Raw []byte
}

// Q8Tensor is View under its former name, kept for benchmark/.
type Q8Tensor = View

// Size returns the element count of the tensor.
func (v *View) Size() int {
	n := 1
	for _, d := range v.Shape {
		n *= d
	}
	return n
}

// SameShape reports whether v matches the reference tensor's shape.
func (v *View) SameShape(ref *tensor.Tensor) bool { return slices.Equal(v.Shape, ref.Shape) }

// Fits reports whether v is a well-formed view of a tensor shaped like
// ref: the same shape, a known codec and exactly the bytes that codec
// spends on that many elements. A nil view fits nothing. Every view the
// Reader returns fits its own shape; Fits is for views of unknown
// provenance.
func (v *View) Fits(ref *tensor.Tensor) bool {
	return v != nil && v.Codec.Valid() && v.SameShape(ref) && len(v.Raw) == v.Codec.rawSize(ref.Size())
}

// Decode decodes elements [from, from+len(dst)) of v into dst, with the
// arithmetic of Reader.Tensor.
func (v *View) Decode(dst []float64, from int) {
	switch v.Codec {
	case CodecF32:
		decodeF32(dst, v.Raw[4*from:])
	case CodecQ8:
		lo := math.Float64frombits(binary.LittleEndian.Uint64(v.Raw))
		scale := math.Float64frombits(binary.LittleEndian.Uint64(v.Raw[8:]))
		decodeQ8(dst, lo, scale, v.Raw[q8Header+from:])
	default:
		decodeF64(dst, v.Raw[8*from:])
	}
}

// Materialise decodes v into a fresh tensor.
func (v *View) Materialise() *tensor.Tensor {
	data := make([]float64, v.Size())
	v.Decode(data, 0)
	return tensor.FromSlice(data, v.Shape...)
}

// View reads one tensor under the reader's codec without decoding it:
// the view aliases the payload. It returns nil for the nil marker, and
// checks what Tensor checks — rank, dims, size, the payload the codec
// needs and the decode-amplification budget.
func (r *Reader) View() *View {
	size, shape := r.tensorHeader()
	if r.err != nil || shape == nil {
		return nil
	}
	need := r.Codec.rawSize(size)
	if need > len(r.buf)-r.off {
		r.fail("tensor size")
		return nil
	}
	v := &View{Shape: shape, Codec: r.Codec, Raw: r.buf[r.off : r.off+need : r.off+need]}
	r.off += need
	return v
}

// Q8TensorList reads a tensor list as views; kept for benchmark/, which
// times the q8 list decode through it.
func (r *Reader) Q8TensorList() (vs []*View) { List(Decoder(r), &vs, (*Fields).View); return }

// View appends a tensor view (nil allowed): its bytes verbatim when it
// was encoded under the writer's codec, re-encoded from its values
// otherwise.
func (w *Writer) View(v *View) {
	if v == nil {
		w.Uvarint(0xFF)
		return
	}
	w.shape(v.Shape)
	switch {
	case w.skip(w.Codec.rawSize(v.Size())):
	case v.Codec == w.Codec:
		w.buf = append(w.buf, v.Raw...)
	default:
		w.elements(v.Materialise().Data)
	}
}

package wire

import "github.com/gradsec/gradsec/internal/tensor"

// Fields walks one schema's fields in order through either a Writer or
// a Reader. A schema is written once, as a function that hands each of
// its fields to one primitive; run over an Encoder it appends them, run
// over a Decoder it overwrites them from the payload. Encoding and
// decoding therefore cannot drift apart, and the rules every decoder
// facing hostile input needs live here once (docs/WIRE.md):
//
//   - Trailing ends decoding cleanly once the payload is exhausted;
//   - a list count the remaining payload cannot hold fails the frame,
//     and no count alone forces a large allocation (List);
//   - Fixed fails the frame on any length but its own;
//   - Int and Uint8 fail the frame on a varint their Go type cannot hold.
//
// After the first corrupt field a Decoder's primitives do nothing; the
// Reader's sticky error reports the failure.
type Fields struct {
	w *Writer
	r *Reader
	// end is set by a trailing mark that found the payload exhausted.
	end bool
}

// Encoder returns a walker that appends every field it visits to w.
func Encoder(w *Writer) *Fields { return &Fields{w: w} }

// Decoder returns a walker that reads every field it visits from r.
func Decoder(r *Reader) *Fields { return &Fields{r: r} }

// Encode walks a schema into a fresh payload under the tensor codec,
// allocated once at exactly its encoded size: a first walk sizes the
// payload without encoding element data or blobs, the second encodes it.
// (A walk the sizing pass miscounts still encodes correctly; it only
// grows the buffer.)
func Encode(codec Codec, walk func(*Fields)) []byte { return EncodeInto(nil, codec, walk) }

// EncodeInto is Encode into buf's storage when its capacity holds the
// payload Encode's sizing walk measures, and into a fresh exact-size
// payload otherwise — for a transport that recycles frame buffers. The
// bytes are Encode's either way.
func EncodeInto(buf []byte, codec Codec, walk func(*Fields)) []byte {
	size := GetWriter()
	size.Codec, size.sizing = codec, true
	walk(Encoder(size))
	if n := size.Len(); cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	PutWriter(size)
	w := &Writer{buf: buf[:0], Codec: codec}
	walk(Encoder(w))
	return w.buf
}

// Decode walks a schema over data under the tensor codec and returns
// the first corrupt field's error. Bytes after the last field are
// ignored — they are a newer peer's trailing fields — unless the
// schema ends with End.
func Decode(data []byte, codec Codec, walk func(*Fields)) error {
	r := &Reader{buf: data, Codec: codec}
	walk(Decoder(r))
	return r.err
}

// Decoding reports whether the walk reads fields rather than writing
// them — for the few schema steps that only make sense on input.
func (f *Fields) Decoding() bool { return f.r != nil }

// TensorCodec returns the session codec the walk's tensors use.
func (f *Fields) TensorCodec() Codec {
	if f.r != nil {
		return f.r.Codec
	}
	return f.w.Codec
}

// Err returns the decoding error so far; always nil when encoding.
func (f *Fields) Err() error {
	if f.r == nil {
		return nil
	}
	return f.r.err
}

// Trailing marks the fields after it as optional: peers that predate
// them end the payload here. A decoding walk stops cleanly at the mark
// when no bytes remain, leaving the later fields zero; encoding ignores
// the mark.
func (f *Fields) Trailing() {
	if f.r != nil && f.r.err == nil && f.r.off == len(f.r.buf) {
		f.end = true
	}
}

// End closes a schema that has no trailing fields to grow: decoding
// fails on any byte left over.
func (f *Fields) End() {
	if f.r != nil && f.r.off != len(f.r.buf) {
		f.r.fail("trailing bytes")
	}
}

// Fail fails a decoding walk with a corrupt-input error, for schema
// invariants no primitive can see. Encoding writes what it is given, so
// Fail does nothing there.
func (f *Fields) Fail(what string) {
	if f.r != nil {
		f.r.fail(what)
	}
}

// field is every primitive: encode *p, or — unless the walk has
// stopped — decode into it.
func field[T any](f *Fields, p *T, enc func(*Writer, T), dec func(*Reader) T) {
	switch {
	case f.w != nil:
		enc(f.w, *p)
	case !f.end && f.r.err == nil:
		*p = dec(f.r)
	}
}

// Uvarint walks an unsigned varint.
func (f *Fields) Uvarint(p *uint64) { field(f, p, (*Writer).Uvarint, (*Reader).Uvarint) }

// Int walks a non-negative int as an unsigned varint; a varint above
// the largest int fails the frame.
func (f *Fields) Int(p *int) {
	field(f, p, func(w *Writer, v int) { w.Uvarint(uint64(v)) },
		func(r *Reader) int { return int(r.uvarintMax(uint64(^uint(0) >> 1))) })
}

// Int64 walks an int64 as the unsigned varint of its two's complement,
// so every value round-trips (a negative one in ten bytes).
func (f *Fields) Int64(p *int64) {
	field(f, p, func(w *Writer, v int64) { w.Uvarint(uint64(v)) },
		func(r *Reader) int64 { return int64(r.Uvarint()) })
}

// Uint8 walks a byte-sized value as an unsigned varint; a varint above
// 255 fails the frame.
func (f *Fields) Uint8(p *uint8) {
	field(f, p, func(w *Writer, v uint8) { w.Uvarint(uint64(v)) },
		func(r *Reader) uint8 { return uint8(r.uvarintMax(0xFF)) })
}

// Codec walks a tensor codec identifier as a Uint8.
func (f *Fields) Codec(p *Codec) { f.Uint8((*uint8)(p)) }

// Count walks a list length under List's rule, for a list decoded
// into parallel slices element by element.
func (f *Fields) Count(n *int) {
	field(f, n, func(w *Writer, n int) { w.Uvarint(uint64(n)) }, (*Reader).listLen)
}

// Bool walks a boolean byte.
func (f *Fields) Bool(p *bool) { field(f, p, (*Writer).Bool, (*Reader).Bool) }

// Float64 walks one IEEE-754 value.
func (f *Fields) Float64(p *float64) { field(f, p, (*Writer).Float64, (*Reader).Float64) }

// Blob walks a length-prefixed byte slice; decoding copies it out.
func (f *Fields) Blob(p *[]byte) { field(f, p, (*Writer).Blob, (*Reader).Blob) }

// String walks a length-prefixed string.
func (f *Fields) String(p *string) { field(f, p, (*Writer).String, (*Reader).String) }

// Fixed walks a byte field that has exactly n valid bytes, length-
// prefixed on the wire like Blob. Decoding fails the frame on any other
// length; it fills *p in place when *p already holds n bytes (an
// array's slice) and allocates otherwise.
func (f *Fields) Fixed(p *[]byte, n int) {
	field(f, p, (*Writer).Blob, func(r *Reader) []byte {
		b := r.BlobBytes()
		if len(b) != n {
			r.fail("fixed-size field length")
		} else if len(*p) != n {
			*p = make([]byte, n)
		}
		copy(*p, b)
		return *p
	})
}

// BlobRef walks a length-prefixed byte slice like Blob, except that
// decoding references the payload instead of copying it out (rule 6):
// the slice is valid only as long as the frame it was read from. An
// empty one reads as nil.
func (f *Fields) BlobRef(p *[]byte) {
	field(f, p, (*Writer).Blob, func(r *Reader) []byte {
		if b := r.BlobBytes(); len(b) > 0 {
			return b
		}
		return nil
	})
}

// FixedRef walks a byte field of exactly n valid bytes like Fixed,
// except that decoding references the payload like BlobRef.
func (f *Fields) FixedRef(p *[]byte, n int) {
	field(f, p, (*Writer).Blob, func(r *Reader) []byte {
		b := r.BlobBytes()
		if len(b) != n {
			r.fail("fixed-size field length")
			return nil
		}
		return b
	})
}

// Tensor walks one (possibly nil) tensor under the session codec.
func (f *Fields) Tensor(p **tensor.Tensor) { field(f, p, (*Writer).Tensor, (*Reader).Tensor) }

// Tensors walks a tensor list under the session codec.
func (f *Fields) Tensors(p *[]*tensor.Tensor) { List(f, p, (*Fields).Tensor) }

// ExactTensors walks a tensor list in the exact f64 encoding whatever
// the session codec (partial sums compose bit-identically).
func (f *Fields) ExactTensors(p *[]*tensor.Tensor) {
	field(f, p, (*Writer).ExactTensorList, (*Reader).ExactTensorList)
}

// U64Tensor walks one (possibly nil) raw 64-bit level tensor.
func (f *Fields) U64Tensor(p **U64Tensor) { field(f, p, (*Writer).U64Tensor, (*Reader).U64Tensor) }

// U64Tensors walks a list of raw 64-bit level tensors.
func (f *Fields) U64Tensors(p *[]*U64Tensor) { List(f, p, (*Fields).U64Tensor) }

// View walks one (possibly nil) tensor as a View: decoding aliases the
// payload (Reader.View), encoding writes the view (Writer.View).
func (f *Fields) View(p **View) { field(f, p, (*Writer).View, (*Reader).View) }

// Views walks a tensor list that decodes lazily, under any codec
// (docs/WIRE.md, rule 6): decoding fills *views, one View per tensor
// aliasing the payload, and leaves *plain alone. Encoding writes *plain
// under the session codec, or *views when only they are set — a decoded
// message re-encodes its views, verbatim under their own codec.
func (f *Fields) Views(plain *[]*tensor.Tensor, views *[]*View) {
	if f.r != nil || *plain == nil && *views != nil {
		List(f, views, (*Fields).View)
	} else {
		List(f, plain, (*Fields).Tensor)
	}
}

// List walks a length-prefixed list whose elements elem walks. It is
// the one list decoder, under the one bounded-list rule (listLen): a
// count the payload cannot hold fails the frame, the first allocation
// is capped so a count alone cannot force a large one, and decoding
// stops at the first corrupt element. An empty list decodes to nil, as
// a nil one encodes like an empty one.
func List[T any](f *Fields, p *[]T, elem func(*Fields, *T)) {
	switch {
	case f.w != nil:
		f.w.Uvarint(uint64(len(*p)))
		for i := range *p {
			elem(f, &(*p)[i])
		}
	case f.end || f.r.err != nil:
	default:
		*p = nil
		n := f.r.listLen()
		if n == 0 {
			return
		}
		out := make([]T, 0, min(n, 4096))
		for i := 0; i < n; i++ {
			var zero T
			out = append(out, zero)
			if elem(f, &out[i]); f.r.err != nil {
				return
			}
		}
		*p = out
	}
}

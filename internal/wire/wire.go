// Package wire implements the length-prefixed binary encoding used by the
// federated-learning protocol: primitive values, tensors, tensor lists
// and framed messages. It is hand-rolled over encoding/binary so the FL
// stack has no reflection in its hot path and malformed input fails with
// explicit errors and bounded allocations.
//
// # Tensor codecs
//
// Tensor payloads support three negotiated encodings (see Codec):
//
//   - CodecF64 — 8 bytes/element IEEE-754, bit-exact; the tensor
//     encoding is byte-for-byte the original protocol's. (Handshake and
//     update messages themselves carry new optional trailing fields, so
//     whole frames are wire-compatible rather than byte-identical.)
//   - CodecF32 — 4 bytes/element; each value is rounded to float32, a
//     relative error of at most 2⁻²⁴ for values in float32 range.
//   - CodecQ8 — 1 byte/element plus a 16-byte (min, scale) header per
//     tensor; values quantise to 256 levels over the tensor's own value
//     range, so the absolute dequantisation error is at most
//     scale/2 = (max−min)/510 < (max−min)/255. Constant tensors
//     (max == min) round-trip exactly. Non-finite values are not
//     representable and collapse to the nearest level.
//
// The codec is carried as a field on Writer and Reader — both sides of a
// connection must agree (the FL handshake negotiates it) because the
// tensor encoding is not self-describing; that keeps CodecF64 output
// bit-identical to the pre-codec protocol.
//
// # Schemas
//
// Every message, journal record, plan, sealed update and telemetry
// snapshot is written once, as a walk over its fields (Fields), which
// both encodes and decodes it; docs/WIRE.md has the rules and how to
// add a field.
//
// # Buffers and views
//
// Encode sizes a walk before it encodes it, so a payload costs one
// allocation of exactly its own size. Writers are poolable
// (GetWriter/PutWriter): Encode's sizing pass takes one.
// ReadFrameInto reads frames into a caller-owned scratch buffer
// (ReadFrameHeader then ReadPayload, for a reader that picks the buffer
// once the frame begins), and EncodeInto encodes into one. A View
// decodes nothing: it aliases the payload it was read from, so a payload
// read through views may be neither reused nor mutated while they live
// (docs/WIRE.md, rule 6).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"github.com/gradsec/gradsec/internal/tensor"
)

// Limits protect decoders against malicious lengths.
const (
	// MaxFrame is the largest accepted frame payload (128 MiB —
	// AlexNet-sized state fits comfortably).
	MaxFrame = 128 << 20
	// MaxDims is the largest accepted tensor rank.
	MaxDims = 8
)

// Decoding errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrCorrupt       = errors.New("wire: corrupt input")
)

// Writer serialises values into a growing buffer. Codec selects the
// tensor encoding; the zero value writes the uncompressed f64 protocol.
type Writer struct {
	buf []byte
	// Codec is the tensor encoding applied by Tensor/TensorList.
	Codec Codec
	// sizing makes the writer measure instead of encode (Encode's first
	// pass): small fields still land in buf, while element payloads and
	// blobs are only counted, in skipped.
	sizing  bool
	skipped int
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// writerPool recycles Writers (and their buffers) across messages.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// maxPooledBuf caps the buffer capacity retained by the pool so one huge
// frame does not pin memory forever.
const maxPooledBuf = 8 << 20

// GetWriter returns a reset Writer from the pool.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns a Writer to the pool. The caller must not touch the
// Writer (or any non-detached Bytes view) afterwards.
func PutWriter(w *Writer) {
	if cap(w.buf) > maxPooledBuf {
		w.buf = nil
	}
	writerPool.Put(w)
}

// Reset empties the writer for reuse, keeping the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.Codec = CodecF64
	w.sizing, w.skipped = false, 0
}

// Bytes returns the accumulated encoding. The slice aliases the writer's
// buffer and is invalidated by Reset/PutWriter.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded (or, sizing, measured) bytes.
func (w *Writer) Len() int { return len(w.buf) + w.skipped }

// Detach returns the accumulated encoding and releases it from the
// writer, so the bytes stay valid after the writer is pooled.
func (w *Writer) Detach() []byte {
	b := w.buf
	w.buf = nil
	return b
}

// grow extends the buffer by n bytes in one step and returns the newly
// appended region, amortising capacity doubling across bulk writes.
func (w *Writer) grow(n int) []byte {
	if cap(w.buf)-len(w.buf) < n {
		nb := make([]byte, len(w.buf), max(2*cap(w.buf), len(w.buf)+n))
		copy(nb, w.buf)
		w.buf = nb
	}
	off := len(w.buf)
	w.buf = w.buf[:off+n]
	return w.buf[off:]
}

// skip counts n bytes of bulk payload a sizing writer measures instead
// of writing, and reports whether the writer is sizing.
func (w *Writer) skip(n int) bool {
	if w.sizing {
		w.skipped += n
	}
	return w.sizing
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Bool appends a boolean byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	if !w.skip(len(b)) {
		w.buf = append(w.buf, b...)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) { w.Blob([]byte(s)) }

// Float64 appends one IEEE-754 value.
func (w *Writer) Float64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// Float64s appends a length-prefixed float64 slice (always full
// precision, independent of Codec).
func (w *Writer) Float64s(fs []float64) {
	w.Uvarint(uint64(len(fs)))
	w.appendFloat64s(fs)
}

// appendFloat64s bulk-appends raw little-endian float64 values with a
// single buffer growth.
func (w *Writer) appendFloat64s(fs []float64) {
	dst := w.grow(8 * len(fs))
	if nativeLE {
		copy(dst, wordBytes(fs))
		return
	}
	for i, f := range fs {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(f))
	}
}

// shape appends the tensor prelude every tensor encoding shares: the
// rank, then each dim.
func (w *Writer) shape(dims []int) {
	w.Uvarint(uint64(len(dims)))
	for _, d := range dims {
		w.Uvarint(uint64(d))
	}
}

// Tensor appends a tensor (nil allowed: encoded as rank 0xFF marker)
// using the writer's Codec for the element payload.
func (w *Writer) Tensor(t *tensor.Tensor) {
	if t == nil {
		w.Uvarint(0xFF)
		return
	}
	w.shape(t.Shape)
	if !w.skip(w.Codec.rawSize(len(t.Data))) {
		w.elements(t.Data)
	}
}

// elements appends a tensor's element payload under the writer's codec.
func (w *Writer) elements(data []float64) {
	switch w.Codec {
	case CodecF32:
		w.appendFloat32s(data)
	case CodecQ8:
		w.appendQ8(data)
	default:
		w.appendFloat64s(data)
	}
}

// TensorList appends a length-prefixed list of (possibly nil) tensors.
func (w *Writer) TensorList(ts []*tensor.Tensor) { List(Encoder(w), &ts, (*Fields).Tensor) }

// Reader decodes values from a byte slice with a sticky error. Codec
// selects the tensor decoding and must match the writer's.
type Reader struct {
	buf []byte
	off int
	err error
	// decoded tracks the cumulative float64 bytes the tensors read from
	// this reader decode to, views included (a view is decoded when it is
	// folded or copied); capped at MaxFrame so compressed codecs cannot
	// amplify a frame into more memory than an f64 frame could carry.
	decoded int
	// Codec is the tensor encoding expected by Tensor/TensorList.
	Codec Codec
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of undecoded bytes (0 after an error).
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, r.off)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// uvarintMax reads an unsigned varint that must not exceed max, the
// largest value of the Go field it fills.
func (r *Reader) uvarintMax(max uint64) uint64 {
	if v := r.Uvarint(); v <= max {
		return v
	}
	r.fail("varint overflows its field")
	return 0
}

// Bool reads a boolean byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("bool")
		return false
	}
	b := r.buf[r.off]
	r.off++
	return b != 0
}

// Blob reads a length-prefixed byte slice (copied). An empty one reads
// as nil, as a nil one writes like an empty one.
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("blob length")
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Blob()) }

// BlobBytes reads a length-prefixed byte slice as a direct view into
// the frame buffer — no copy, no per-blob allocation. The view dies
// with the frame, so only decoders that copy or transform the bytes
// before the frame is released may use it; anything that retains the
// result wants Blob.
func (r *Reader) BlobBytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("blob length")
		return nil
	}
	out := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return out
}

// Float64 reads one IEEE-754 value.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// Float64s reads a length-prefixed float64 slice.
func (r *Reader) Float64s() []float64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off)/8 {
		r.fail("float64s length")
		return nil
	}
	out := make([]float64, n)
	decodeF64(out, r.buf[r.off:])
	r.off += 8 * int(n)
	return out
}

// tensorHeader reads the shared tensor prelude — rank and dims — and
// charges the decode-amplification budget. It returns (0, nil) with no
// error for the nil-tensor marker, and a nil shape with a sticky error
// on corrupt input.
func (r *Reader) tensorHeader() (size int, shape []int) {
	rank := r.Uvarint()
	if r.err != nil {
		return 0, nil
	}
	if rank == 0xFF {
		return 0, nil
	}
	if rank == 0 || rank > MaxDims {
		r.fail("tensor rank")
		return 0, nil
	}
	shape = make([]int, rank)
	// Accumulate the element count in uint64 with a per-step cap: each
	// dim is ≤ 2²⁷ and the running product is re-checked after every
	// multiply, so the product never exceeds 2⁵⁴ — no overflow even
	// where int is 32 bits, and no hostile size can wrap past the
	// budget checks below.
	size64 := uint64(1)
	for i := range shape {
		d := r.Uvarint()
		if r.err != nil {
			return 0, nil
		}
		if d > uint64(MaxFrame) {
			r.fail("tensor dim")
			return 0, nil
		}
		shape[i] = int(d)
		size64 *= d
		if size64 > MaxFrame {
			r.fail("tensor size")
			return 0, nil
		}
	}
	size = int(size64)
	// Decode-amplification budget: q8 spends 1 payload byte per 8-byte
	// float64, so payload-proportional checks alone would let a 128 MiB
	// frame materialise ~1 GiB. Cap the total decoded tensor data per
	// reader at MaxFrame — exactly what an uncompressed frame could
	// carry (no new restriction for f64).
	r.decoded += 8 * size
	if r.decoded > MaxFrame {
		r.fail("tensor size")
		return 0, nil
	}
	return size, shape
}

// Tensor reads a tensor; returns nil for the nil marker. The reader's
// Codec must match the encoding. It is View, then Materialise: the one
// tensor reader, so a materialised tensor and a view pass the same
// checks.
func (r *Reader) Tensor() *tensor.Tensor {
	if v := r.View(); v != nil {
		return v.Materialise()
	}
	return nil
}

// listLen reads a list count under the one bounded-list rule: every
// element costs at least one encoded byte, so a count above the bytes
// left is impossible and fails the input — the bytes after it never
// decode as later fields.
func (r *Reader) listLen() int {
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.fail("list length")
		return 0
	}
	return int(n)
}

// TensorList reads a list written by Writer.TensorList.
func (r *Reader) TensorList() (ts []*tensor.Tensor) {
	List(Decoder(r), &ts, (*Fields).Tensor)
	return ts
}

// WriteFrame writes a framed message: type byte, 4-byte big-endian
// length, payload.
func WriteFrame(w io.Writer, msgType byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	hdr := [5]byte{msgType}
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: writing frame payload: %w", err)
	}
	return nil
}

// ReadFrame reads one framed message written by WriteFrame.
func ReadFrame(r io.Reader) (msgType byte, payload []byte, err error) {
	return ReadFrameInto(r, nil)
}

// frameChunk bounds the allocation made on the strength of a claimed
// frame length alone: payload buffers grow as bytes actually arrive, so
// a hostile header costs at most one chunk.
const frameChunk = 1 << 20

// ReadFrameInto reads one framed message, reusing buf's capacity for the
// payload when possible (pass the previous payload to amortise per-frame
// allocation on a long-lived connection). The returned payload aliases
// buf when it fits.
func ReadFrameInto(r io.Reader, buf []byte) (msgType byte, payload []byte, err error) {
	msgType, n, err := ReadFrameHeader(r)
	if err != nil {
		return 0, nil, err
	}
	payload, err = ReadPayload(r, buf, n)
	return msgType, payload, err
}

// ReadFrameHeader reads one frame's header: its message type and the
// length of the payload that follows, at most MaxFrame. A reader that
// picks its payload buffer only once a frame has begun to arrive calls
// it, then ReadPayload.
func ReadFrameHeader(r io.Reader) (msgType byte, n int, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err // io.EOF passes through for clean shutdown
	}
	// Compare before converting: where int is 32 bits, a claimed length
	// of 2³¹ or more would convert to a negative n and pass the limit.
	claimed := binary.BigEndian.Uint32(hdr[1:])
	if claimed > MaxFrame {
		return 0, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, claimed)
	}
	return hdr[0], int(claimed), nil
}

// ReadPayload reads the n-byte payload of a frame whose header
// ReadFrameHeader read, into buf's storage when its capacity holds n.
func ReadPayload(r io.Reader, buf []byte, n int) (payload []byte, err error) {
	payload = buf[:0]
	for remaining := n; remaining > 0; {
		step := min(remaining, frameChunk)
		start := len(payload)
		if cap(payload)-start < step {
			nb := make([]byte, start, max(2*cap(payload), start+step))
			copy(nb, payload)
			payload = nb
		}
		payload = payload[:start+step]
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return nil, fmt.Errorf("wire: reading frame payload: %w", err)
		}
		remaining -= step
	}
	return payload, nil
}

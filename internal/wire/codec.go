package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec identifies a negotiated tensor element encoding. Codecs are
// ordered by compression: a peer that caps the codec at c accepts any
// codec ≤ c, so negotiation is min(offered, cap). CodecF64 — the zero
// value — is byte-for-byte the original uncompressed protocol.
type Codec uint8

// Tensor codecs, in increasing compression order.
const (
	// CodecF64 is full-precision IEEE-754 (8 B/element), bit-exact.
	CodecF64 Codec = iota
	// CodecF32 rounds each element to float32 (4 B/element).
	CodecF32
	// CodecQ8 quantises each tensor to 256 levels over its own value
	// range (1 B/element + 16 B header): absolute error ≤ (max−min)/510.
	CodecQ8

	codecCount // sentinel
)

// q8Header is the per-tensor overhead of CodecQ8: min and scale, each a
// little-endian float64.
const q8Header = 16

// Valid reports whether c names a known codec.
func (c Codec) Valid() bool { return c < codecCount }

// String returns the codec's protocol name.
func (c Codec) String() string {
	switch c {
	case CodecF64:
		return "f64"
	case CodecF32:
		return "f32"
	case CodecQ8:
		return "q8"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec maps a protocol name ("f64", "f32", "q8") to its Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "f64":
		return CodecF64, nil
	case "f32":
		return CodecF32, nil
	case "q8":
		return CodecQ8, nil
	default:
		return CodecF64, fmt.Errorf("wire: unknown codec %q", s)
	}
}

// appendFloat32s bulk-appends elements rounded to little-endian float32.
func (w *Writer) appendFloat32s(fs []float64) {
	dst := w.grow(4 * len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(f)))
	}
}

// rawSize is the element payload c spends on n elements.
func (c Codec) rawSize(n int) int {
	switch c {
	case CodecF32:
		return 4 * n
	case CodecQ8:
		return q8Header + n
	default:
		return 8 * n
	}
}

// decodeF64 decodes len(dst) little-endian float64 values from src.
func decodeF64(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// decodeF32 decodes len(dst) little-endian float32 values from src.
func decodeF32(dst []float64, src []byte) {
	src = src[:4*len(dst)]
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
}

// appendQ8 appends the q8 encoding of fs: min, scale, then one level
// byte per element where v ≈ min + level·scale. The scale spans the
// tensor's own value range, so constant tensors encode exactly and the
// worst-case dequantisation error is scale/2. Non-finite inputs are not
// representable: they clamp to the nearest level.
func (w *Writer) appendQ8(fs []float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, f := range fs {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	// Divide before subtracting: hi−lo overflows to +Inf for tensors
	// spanning more than MaxFloat64 (e.g. ±1.6e308), which would
	// otherwise collapse the whole tensor to a constant.
	scale := hi/255 - lo/255
	if !(scale > 0) || math.IsInf(scale, 0) { // empty, constant, or non-finite range
		scale = 0
	}
	if math.IsInf(lo, 0) || math.IsNaN(lo) || lo > hi {
		lo = 0
	}
	w.Float64(lo)
	w.Float64(scale)
	dst := w.grow(len(fs))
	inv := 0.0
	if scale > 0 {
		inv = 1 / scale
	}
	for i, f := range fs {
		q := math.Round((f - lo) * inv)
		if !(q > 0) { // also catches NaN
			q = 0
		} else if q > 255 {
			q = 255
		}
		dst[i] = byte(q)
	}
}

// decodeQ8 dequantises len(dst) levels written by appendQ8 under its
// (lo, scale) header.
func decodeQ8(dst []float64, lo, scale float64, levels []byte) {
	// Reconstruct in two half-steps: for full-range tensors q·scale can
	// overflow even though lo + q·scale is finite, while every partial
	// sum of lo + q·half + q·half stays within [lo, hi].
	half := scale / 2
	for i, b := range levels[:len(dst)] {
		q := float64(b)
		dst[i] = lo + float64(q*half) + float64(q*half) // each product rounds: no fused multiply-add
	}
}

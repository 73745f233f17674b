package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
)

// hostLittleEndian is the path the host takes, whatever a test has set
// nativeLE to.
var hostLittleEndian = nativeLE

// onEachF64Path runs body once per f64 codec path this host can run —
// the portable word loop, then, on a little-endian host, the one copy —
// and restores the host's path afterwards. path names the one running.
func onEachF64Path(t *testing.T, body func(path string)) {
	t.Helper()
	defer func() { nativeLE = hostLittleEndian }()
	nativeLE = false
	body("word loop")
	if hostLittleEndian {
		nativeLE = true
		body("copy")
	}
}

// f64Specials are the bit patterns a codec could get wrong: both zeros,
// both infinities, NaNs with payloads (signalling included), subnormals,
// the normal extremes, and a word whose eight bytes all differ, so any
// byte-order slip shows.
var f64Specials = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // −0
	0x7FF0000000000000, // +Inf
	0xFFF0000000000000, // −Inf
	0x7FF8000000000000, // quiet NaN
	0x7FF0000000000001, // signalling NaN
	0xFFF8DEADBEEF0042, // negative NaN with a payload
	0xFFFFFFFFFFFFFFFF, // NaN, every bit set
	0x0000000000000001, // smallest subnormal
	0x800FFFFFFFFFFFFF, // largest negative subnormal
	0x0010000000000000, // smallest normal
	0x7FEFFFFFFFFFFFFF, // MaxFloat64
	0x3FF0000000000000, // 1
	0x0102030405060708, // distinct bytes
}

// TestF64PathsAgree: the copy path and the portable word loop encode
// every length 0..17 and LeNet-5's 88 648 words to the same bytes — the
// little-endian layout, built here word by word from the spec — and
// decode them, from any alignment, to the same bits, NaN payloads, −0
// and subnormals included. That holds for each caller of the codec:
// Writer.Float64s, Writer.Tensor, Writer.U64Tensor's in-memory levels,
// Reader.Float64s and View.Decode at any offset.
func TestF64PathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range append(lengths, 88648) {
		bits := make([]uint64, n)
		fs := make([]float64, n)
		for i := range bits {
			bits[i] = rng.Uint64()
			if i < len(f64Specials) || rng.Intn(8) == 0 {
				bits[i] = f64Specials[(i+n)%len(f64Specials)]
			}
			fs[i] = math.Float64frombits(bits[i])
		}
		spec := make([]byte, 8*n)
		for i, b := range bits {
			binary.LittleEndian.PutUint64(spec[8*i:], b)
		}
		equalBits := func(what, path string, got []float64) {
			t.Helper()
			for i, g := range got {
				if math.Float64bits(g) != bits[i] {
					t.Fatalf("n=%d %s, %s: element %d = %#x, want %#x", n, path, what, i, math.Float64bits(g), bits[i])
				}
			}
		}
		onEachF64Path(t, func(path string) {
			w := NewWriter()
			w.Float64s(fs)
			prefix := binary.AppendUvarint(nil, uint64(n))
			if !bytes.Equal(w.Bytes(), append(prefix, spec...)) {
				t.Fatalf("n=%d %s: Float64s bytes differ from the little-endian layout", n, path)
			}
			if n > 0 {
				w = NewWriter()
				w.Tensor(tensor.FromSlice(fs, n))
				if got := w.Bytes(); !bytes.Equal(got[len(got)-8*n:], spec) {
					t.Fatalf("n=%d %s: Tensor payload differs from the little-endian layout", n, path)
				}
			}
			w = NewWriter()
			w.U64Tensor(&U64Tensor{Shape: []int{n}, Levels: bits})
			if got := w.Bytes(); !bytes.Equal(got[len(got)-8*n:], spec) {
				t.Fatalf("n=%d %s: U64Tensor levels differ from the little-endian layout", n, path)
			}

			// Decode from every alignment: frame payload offsets are not
			// 8-byte aligned.
			for pad := 0; pad < 8; pad++ {
				frame := append(make([]byte, pad), prefix...)
				frame = append(frame, spec...)
				r := NewReader(frame)
				r.off = pad
				got := r.Float64s()
				if r.Err() != nil || r.Remaining() != 0 || len(got) != n {
					t.Fatalf("n=%d %s pad %d: Float64s = %d values, err %v", n, path, pad, len(got), r.Err())
				}
				equalBits("Reader.Float64s", path, got)

				v := &View{Shape: []int{n}, Codec: CodecF64, Raw: frame[pad+len(prefix):]}
				got = make([]float64, n)
				const step = 5 // as Accumulate decodes: chunk by chunk, from inside Raw
				for from := 0; from < n; from += step {
					v.Decode(got[from:min(from+step, n)], from)
				}
				equalBits("View.Decode", path, got)
			}
		})
	}
}

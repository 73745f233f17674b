package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gradsec/gradsec/internal/tensor"
)

func TestCodecNames(t *testing.T) {
	for _, c := range []Codec{CodecF64, CodecF32, CodecQ8} {
		if !c.Valid() {
			t.Fatalf("%s must be valid", c)
		}
		parsed, err := ParseCodec(c.String())
		if err != nil || parsed != c {
			t.Fatalf("ParseCodec(%q) = %v, %v", c.String(), parsed, err)
		}
	}
	if Codec(200).Valid() {
		t.Fatal("codec 200 must be invalid")
	}
	if _, err := ParseCodec("gzip"); err == nil {
		t.Fatal("unknown codec name must fail")
	}
}

// roundTrip encodes and decodes one tensor under the given codec.
func roundTrip(t *testing.T, c Codec, orig *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	w := NewWriter()
	w.Codec = c
	w.Tensor(orig)
	r := NewReader(w.Bytes())
	r.Codec = c
	got := r.Tensor()
	if r.Err() != nil {
		t.Fatalf("%s decode: %v", c, r.Err())
	}
	if got == nil || !got.SameShape(orig) {
		t.Fatalf("%s shape mismatch", c)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%s left %d undecoded bytes", c, r.Remaining())
	}
	return got
}

// TestF64CodecBitIdentical pins the f64 tensor encoding to the seed
// protocol's exact bytes: rank, dims (uvarints), then raw little-endian
// IEEE-754 — no codec marker, no header.
func TestF64CodecBitIdentical(t *testing.T) {
	onEachF64Path(t, func(path string) {
		orig := tensor.FromSlice([]float64{1.5, -2.25, math.Pi, 0}, 2, 2)
		w := NewWriter()
		w.Tensor(orig)

		var want []byte
		want = binary.AppendUvarint(want, 2)
		want = binary.AppendUvarint(want, 2)
		want = binary.AppendUvarint(want, 2)
		for _, f := range orig.Data {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(f))
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("%s: f64 encoding drifted from the seed protocol:\n got %x\nwant %x", path, w.Bytes(), want)
		}
		got := roundTrip(t, CodecF64, orig)
		for i := range orig.Data {
			if got.Data[i] != orig.Data[i] {
				t.Fatalf("%s: f64 elem %d: %v != %v", path, i, got.Data[i], orig.Data[i])
			}
		}
	})
}

func TestF32CodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	orig := tensor.Randn(rng, 1, 4, 5)
	got := roundTrip(t, CodecF32, orig)
	for i, v := range orig.Data {
		if got.Data[i] != float64(float32(v)) {
			t.Fatalf("f32 elem %d: %v != %v", i, got.Data[i], float64(float32(v)))
		}
	}
}

// TestQ8ErrorBoundProperty asserts the headline q8 guarantee: every
// element dequantises within 1/255 of the tensor's own value range.
func TestQ8ErrorBoundProperty(t *testing.T) {
	f := func(seed int64, spread uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := float64(spread%100) + 0.01
		orig := tensor.Uniform(rng, -scale, scale, 3, 1+rng.Intn(40))
		lo, hi := orig.Data[0], orig.Data[0]
		for _, v := range orig.Data {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		got := roundTrip(t, CodecQ8, orig)
		bound := (hi - lo) / 255
		for i := range orig.Data {
			if math.Abs(got.Data[i]-orig.Data[i]) > bound+1e-12 {
				t.Logf("elem %d: %v -> %v (bound %v)", i, orig.Data[i], got.Data[i], bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQ8ConstantTensorExact: constant tensors (the flsim update shape)
// must survive q8 bit-exactly — scale collapses to 0 and every element
// decodes to the shared value.
func TestQ8ConstantTensorExact(t *testing.T) {
	for _, v := range []float64{0, 1, -3.75, 1.0 / 256} {
		orig := tensor.Full(v, 4, 4)
		got := roundTrip(t, CodecQ8, orig)
		for i := range got.Data {
			if got.Data[i] != v {
				t.Fatalf("constant %v decoded to %v", v, got.Data[i])
			}
		}
	}
}

// TestQ8Endpoints: the range endpoints map to levels 0 and 255; the
// minimum reconstructs exactly, the maximum within float rounding.
func TestQ8Endpoints(t *testing.T) {
	orig := tensor.FromSlice([]float64{-2, 0.3, 7}, 3)
	got := roundTrip(t, CodecQ8, orig)
	if got.Data[0] != -2 {
		t.Fatalf("min endpoint: %v", got.Data[0])
	}
	if math.Abs(got.Data[2]-7) > 1e-12 {
		t.Fatalf("max endpoint: %v, want ≈7", got.Data[2])
	}
}

// TestQ8FullFloatRange: a tensor spanning more than MaxFloat64 (so
// hi−lo overflows) must still quantise across levels instead of
// collapsing to a constant, and decode to finite values near the
// originals.
func TestQ8FullFloatRange(t *testing.T) {
	orig := tensor.FromSlice([]float64{-1.6e308, 0, 1.6e308}, 3)
	got := roundTrip(t, CodecQ8, orig)
	bound := 1.6e308/255 + 1.6e308/255 // one level of the full range
	for i, v := range got.Data {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("elem %d decoded non-finite: %v", i, v)
		}
		if math.Abs(v-orig.Data[i]) > bound {
			t.Fatalf("elem %d: %v strayed more than one level from %v", i, v, orig.Data[i])
		}
	}
	if got.Data[0] == got.Data[2] {
		t.Fatal("full-range tensor collapsed to a constant")
	}
}

func TestQ8NonFiniteClamps(t *testing.T) {
	orig := tensor.FromSlice([]float64{math.Inf(1), math.NaN(), 1}, 3)
	got := roundTrip(t, CodecQ8, orig)
	for i, v := range got.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("elem %d decoded non-finite: %v", i, v)
		}
	}
}

// TestQuantisedTensorHostileInputs covers truncated and oversized
// quantised payloads for every codec.
func TestQuantisedTensorHostileInputs(t *testing.T) {
	encode := func(c Codec, tr *tensor.Tensor) []byte {
		w := NewWriter()
		w.Codec = c
		w.Tensor(tr)
		return w.Bytes()
	}
	small := tensor.Full(1, 4)
	cases := []struct {
		name  string
		codec Codec
		data  []byte
	}{
		{"f64-truncated-payload", CodecF64, encode(CodecF64, small)[:9]},
		{"f32-truncated-payload", CodecF32, encode(CodecF32, small)[:7]},
		{"q8-truncated-header", CodecQ8, encode(CodecQ8, small)[:10]},
		{"q8-truncated-levels", CodecQ8, encode(CodecQ8, small)[:len(encode(CodecQ8, small))-2]},
		{"q8-bytes-read-as-f64", CodecF64, encode(CodecQ8, small)},
		{"f64-bytes-read-as-q8-oversized-dim", CodecQ8, func() []byte {
			// Claims 1<<20 elements with a 20-byte payload.
			w := NewWriter()
			w.Uvarint(1)
			w.Uvarint(1 << 20)
			w.Float64(0)
			w.Float64(1)
			w.buf = append(w.buf, 1, 2, 3, 4)
			return w.Bytes()
		}()},
		{"q8-amplification-over-budget", CodecQ8, func() []byte {
			// ~17M claimed elements with full payload backing: the q8
			// bytes are all present, but decoding would materialise
			// >128 MiB of float64 — the cumulative budget must refuse.
			elems := MaxFrame/8 + 1024
			w := NewWriter()
			w.Uvarint(1)
			w.Uvarint(uint64(elems))
			w.Float64(0)
			w.Float64(1)
			w.buf = append(w.buf, make([]byte, elems)...)
			return w.Bytes()
		}()},
		{"q8-overflowing-dims", CodecQ8, func() []byte {
			// Eight dims of 2^24: the element count overflows any naive
			// int accumulation but must fail at the per-step cap.
			w := NewWriter()
			w.Uvarint(8)
			for i := 0; i < 8; i++ {
				w.Uvarint(1 << 24)
			}
			return w.Bytes()
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			onEachF64Path(t, func(path string) {
				r := NewReader(tc.data)
				r.Codec = tc.codec
				if got := r.Tensor(); got != nil || !errors.Is(r.Err(), ErrCorrupt) {
					t.Fatalf("%s: hostile input decoded: %v / %v", path, got, r.Err())
				}
			})
		})
	}
}

// TestTensorListRoundTripAllCodecs re-runs the list property under every
// codec (approximate equality for the lossy ones).
func TestTensorListRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ts := []*tensor.Tensor{nil, tensor.Uniform(rng, -1, 1, 2, 3), nil, tensor.Full(0.5, 4)}
	for _, c := range []Codec{CodecF64, CodecF32, CodecQ8} {
		w := NewWriter()
		w.Codec = c
		w.TensorList(ts)
		r := NewReader(w.Bytes())
		r.Codec = c
		got := r.TensorList()
		if r.Err() != nil || len(got) != len(ts) {
			t.Fatalf("%s: %v (%d tensors)", c, r.Err(), len(got))
		}
		for i := range ts {
			if (ts[i] == nil) != (got[i] == nil) {
				t.Fatalf("%s: nil mismatch at %d", c, i)
			}
			if ts[i] != nil && !ts[i].EqualApprox(got[i], 2.0/255) {
				t.Fatalf("%s: tensor %d out of tolerance", c, i)
			}
		}
	}
}

func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var net bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteFrame(&net, 1, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	var lastPtr *byte
	for i := 0; i < 3; i++ {
		_, payload, err := ReadFrameInto(&net, scratch)
		if err != nil || len(payload) != 100 || payload[0] != byte(i) {
			t.Fatalf("frame %d: %v len %d", i, err, len(payload))
		}
		if i > 0 && &payload[0] != lastPtr {
			t.Fatal("scratch buffer was not reused")
		}
		lastPtr = &payload[0]
		scratch = payload
	}
}

// TestEncodeIntoReusesBuffer: EncodeInto writes Encode's bytes into the
// buffer it is handed when the capacity holds them, and into a fresh
// exact-size payload when it does not.
func TestEncodeIntoReusesBuffer(t *testing.T) {
	ts := []*tensor.Tensor{tensor.Full(0.5, 3, 4), nil, tensor.Full(-2, 7)}
	walk := func(f *Fields) {
		f.Tensors(&ts)
		blob := []byte("trailer")
		f.Blob(&blob)
	}
	want := Encode(CodecF64, walk)
	roomy := make([]byte, 3, 2*len(want))
	for i := range roomy {
		roomy[i] = 0xAA
	}
	got := EncodeInto(roomy, CodecF64, walk)
	if !bytes.Equal(got, want) || &got[0] != &roomy[0] {
		t.Fatalf("a buffer with room: reused %v, bytes equal %v", &got[0] == &roomy[0], bytes.Equal(got, want))
	}
	small := make([]byte, 0, len(want)-1)
	got = EncodeInto(small, CodecF64, walk)
	if !bytes.Equal(got, want) || cap(got) != len(want) {
		t.Fatalf("a buffer without room: %d-byte payload in a %d-byte buffer, bytes equal %v", len(got), cap(got), bytes.Equal(got, want))
	}
}

func TestWriterDetachSurvivesPooling(t *testing.T) {
	w := GetWriter()
	w.String("keep me")
	b := w.Detach()
	PutWriter(w)
	w2 := GetWriter() // may be the same Writer
	w2.String("overwrite attempt")
	r := NewReader(b)
	if s := r.String(); s != "keep me" {
		t.Fatalf("detached bytes corrupted: %q", s)
	}
	PutWriter(w2)
}

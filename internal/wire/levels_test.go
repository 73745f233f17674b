package wire

import (
	"math"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
)

func TestU64TensorRoundTrip(t *testing.T) {
	ts := []*U64Tensor{
		{Shape: []int{2, 3}, Levels: []uint64{0, 1, math.MaxUint64, 1 << 40, 7, 9}},
		nil,
		{Shape: []int{1}, Levels: []uint64{42}},
	}
	w := NewWriter()
	w.U64TensorList(ts)
	r := NewReader(w.Bytes())
	got := r.U64TensorList()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != nil {
		t.Fatalf("list = %v", got)
	}
	for i, want := range ts {
		if want == nil {
			continue
		}
		if got[i].Size() != want.Size() {
			t.Fatalf("tensor %d size %d != %d", i, got[i].Size(), want.Size())
		}
		for j, v := range want.Levels {
			if got[i].Levels[j] != v {
				t.Fatalf("tensor %d level %d: %d != %d", i, j, got[i].Levels[j], v)
			}
		}
	}
}

func TestU64TensorCorruptInputs(t *testing.T) {
	// Truncated payload after a valid header.
	w := NewWriter()
	w.U64Tensor(&U64Tensor{Shape: []int{4}, Levels: []uint64{1, 2, 3, 4}})
	r := NewReader(w.Bytes()[:8])
	if r.U64Tensor(); r.Err() == nil {
		t.Fatal("truncated u64 tensor must fail")
	}
	// Hostile list length.
	r = NewReader([]byte{0xFF, 0xFF, 0xFF, 0x01})
	if r.U64TensorList(); r.Err() == nil {
		t.Fatal("hostile list length must fail")
	}
	// Oversized claimed dims.
	w2 := NewWriter()
	w2.Uvarint(1)
	w2.Uvarint(1 << 30)
	r = NewReader(w2.Bytes())
	if r.U64Tensor(); r.Err() == nil {
		t.Fatal("oversized u64 tensor must fail")
	}
}

// TestQ8LazyMatchesEagerDecode: the lazy Q8Tensor representation must
// materialise to exactly the tensor the eager q8 decode produces, and
// its verbatim re-encode must be byte-identical.
func TestQ8LazyMatchesEagerDecode(t *testing.T) {
	src := []*tensor.Tensor{
		tensor.FromSlice([]float64{-1.5, 0, 0.25, 3.75, 2, 2}, 2, 3),
		nil,
		tensor.FromSlice([]float64{7, 7, 7}, 3), // constant: exact under q8
	}
	w := NewWriter()
	w.Codec = CodecQ8
	w.TensorList(src)
	encoded := append([]byte(nil), w.Bytes()...)

	eager := NewReader(encoded)
	eager.Codec = CodecQ8
	want := eager.TensorList()
	if err := eager.Err(); err != nil {
		t.Fatal(err)
	}

	lazy := NewReader(encoded)
	lazy.Codec = CodecQ8
	got := lazy.Q8TensorList()
	if err := lazy.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[1] != nil {
		t.Fatalf("lazy list = %v", got)
	}
	for i, qt := range got {
		if qt == nil {
			continue
		}
		if !qt.SameShape(want[i]) {
			t.Fatalf("tensor %d shape %v != %v", i, qt.Shape, want[i].Shape)
		}
		m := qt.Materialise()
		for j := range want[i].Data {
			if m.Data[j] != want[i].Data[j] {
				t.Fatalf("tensor %d elem %d: lazy %v != eager %v", i, j, m.Data[j], want[i].Data[j])
			}
		}
	}

	w2 := NewWriter()
	w2.Codec = CodecQ8
	List(Encoder(w2), &got, (*Fields).View)
	if string(w2.Bytes()) != string(encoded) {
		t.Fatal("verbatim re-encode diverged from the original bytes")
	}
}

func TestQ8LazyCorruptInputs(t *testing.T) {
	r := NewReader([]byte{1, 2, 0, 0}) // rank 1, dim 2, truncated header
	r.Codec = CodecQ8
	if r.View(); r.Err() == nil {
		t.Fatal("truncated q8 tensor must fail")
	}
}

package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
)

// sealedExample is a protected update as the TA seals it: flat indices
// in any order, exact f64 tensors.
func sealedExample() ([]int, []*tensor.Tensor) {
	return []int{3, 0, 300}, []*tensor.Tensor{
		tensor.FromSlice([]float64{0.5, -1e-300, 3, 1e300}, 2, 2),
		tensor.Full(-0.25, 3),
		tensor.FromSlice([]float64{7}, 1, 1, 1),
	}
}

// TestGoldenSealedUpdate pins the sealed-update blob's bytes, recorded
// before the blob moved onto the field walker, and the blob must decode
// back to its update exactly, on both f64 codec paths.
func TestGoldenSealedUpdate(t *testing.T) {
	onEachF64Path(t, func(path string) {
		idx, ts := sealedExample()
		blob := EncodeSealedUpdate(idx, ts)
		h := sha256.Sum256(blob)
		if got, want := hex.EncodeToString(h[:]), "e0df0c189cbac7264334e0dd81a24d6dcf01942a06f3a0e211f296b3c6616c38"; got != want {
			t.Errorf("%s: hash %s, recorded %s", path, got, want)
		}
		gotIdx, gotTs, err := DecodeSealedUpdate(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotIdx, idx) || !reflect.DeepEqual(gotTs, ts) {
			t.Fatalf("%s: decode = %v %v, want %v %v", path, gotIdx, gotTs, idx, ts)
		}
	})
}

// hostileSealedUpdates are blobs a client can seal that neither the
// aggregation enclave nor the TA may act on.
func hostileSealedUpdates() []struct {
	name string
	blob []byte
} {
	idx, ts := sealedExample()
	valid := EncodeSealedUpdate(idx, ts)
	count := NewWriter()
	count.Uvarint(200)
	count.Uvarint(0)
	wide := NewWriter()
	wide.Uvarint(1)
	wide.Uvarint(1 << 63)
	wide.Tensor(tensor.Full(1, 1))
	return []struct {
		name string
		blob []byte
	}{
		// The enclave's fold and the TA's weight load both dereferenced it.
		{"nil tensor", EncodeSealedUpdate([]int{0}, []*tensor.Tensor{nil})},
		{"impossible count", count.Bytes()},
		{"index overflows int", wide.Bytes()},
		{"truncated", valid[:len(valid)-1]},
	}
}

func TestDecodeSealedUpdateHostile(t *testing.T) {
	onEachF64Path(t, func(path string) {
		for _, h := range hostileSealedUpdates() {
			if idx, ts, err := DecodeSealedUpdate(h.blob); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, %s: decoded %v %v, err %v; want ErrCorrupt", path, h.name, idx, ts, err)
			}
		}
	})
}

// FuzzSealedUpdate: the sealed-update decoder sits behind the enclave
// and the TA, which trust what it accepts. It must never panic, and an
// accepted update pairs every index with a non-nil tensor and survives
// a re-encode unchanged.
func FuzzSealedUpdate(f *testing.F) {
	f.Add(EncodeSealedUpdate(sealedExample()))
	for _, h := range hostileSealedUpdates() {
		f.Add(h.blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		idx, ts, err := DecodeSealedUpdate(blob)
		if err != nil {
			return
		}
		if len(idx) != len(ts) {
			t.Fatalf("%d indices, %d tensors", len(idx), len(ts))
		}
		for k, x := range ts {
			if x == nil {
				t.Fatalf("entry %d (index %d) is nil", k, idx[k])
			}
		}
		// Tensors compare by encoding, bit for bit: a NaN is not
		// reflect.DeepEqual to itself.
		re := EncodeSealedUpdate(idx, ts)
		idx2, ts2, err := DecodeSealedUpdate(re)
		if err != nil || !reflect.DeepEqual(idx2, idx) || !bytes.Equal(EncodeSealedUpdate(idx2, ts2), re) {
			t.Fatalf("re-encode round trip: %v %v, err %v", idx2, ts2, err)
		}
	})
}

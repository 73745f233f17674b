package wire

import (
	"github.com/gradsec/gradsec/internal/tensor"
)

// EncodeSealedUpdate encodes indexed tensors for transport inside a
// trusted channel: count, then (flatIndex, tensor) pairs. The sealed
// path always uses the exact f64 encoding — protected tensors are never
// quantised. It lives here so the server-side aggregation enclave
// (internal/secagg) can parse sealed blobs without depending on the
// protocol package.
func EncodeSealedUpdate(idx []int, ts []*tensor.Tensor) []byte {
	return Encode(CodecF64, func(f *Fields) { walkSealedUpdate(f, &idx, &ts, (*Fields).Tensor) })
}

// DecodeSealedUpdate decodes a blob produced by EncodeSealedUpdate.
// Every accepted entry carries a tensor: the enclave and the TA fold
// and load what it returns without a nil check.
func DecodeSealedUpdate(blob []byte) (idx []int, ts []*tensor.Tensor, err error) {
	if err := Decode(blob, CodecF64, func(f *Fields) { walkSealedUpdate(f, &idx, &ts, (*Fields).Tensor) }); err != nil {
		return nil, nil, err
	}
	return idx, ts, nil
}

// DecodeSealedViews is DecodeSealedUpdate for a reader that folds the
// tensors once and drops them: each entry is an f64 View aliasing blob.
func DecodeSealedViews(blob []byte) (idx []int, vs []*View, err error) {
	if err := Decode(blob, CodecF64, func(f *Fields) { walkSealedUpdate(f, &idx, &vs, (*Fields).View) }); err != nil {
		return nil, nil, err
	}
	return idx, vs, nil
}

func walkSealedUpdate[T comparable](f *Fields, idx *[]int, ts *[]T, elem func(*Fields, *T)) {
	var none T
	n := len(*idx)
	f.Count(&n)
	for i := 0; i < n && f.Err() == nil; i++ {
		if f.Decoding() {
			*idx, *ts = append(*idx, 0), append(*ts, none)
		}
		f.Int(&(*idx)[i])
		elem(f, &(*ts)[i])
		if (*ts)[i] == none {
			f.Fail("nil sealed tensor")
		}
	}
}

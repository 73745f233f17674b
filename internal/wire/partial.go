package wire

import "github.com/gradsec/gradsec/internal/tensor"

// Partial-sum frame encoding for the hierarchical aggregation tier.
//
// An edge aggregator forwards its shard's folded weighted sum upstream
// as one PartialUp frame. Partial sums must compose exactly at the
// root — the hierarchy's correctness claim is bit-identity with flat
// FedAvg — so their tensors always travel at full precision, pinned to
// the f64 element encoding regardless of the session's negotiated
// codec (exactly as masked ring levels always travel as raw 64-bit
// words). Only the per-round model broadcast downstream is
// codec-compressed.

// ExactTensor appends a tensor with the exact f64 element encoding,
// ignoring the writer's negotiated codec.
func (w *Writer) ExactTensor(t *tensor.Tensor) {
	saved := w.Codec
	w.Codec = CodecF64
	w.Tensor(t)
	w.Codec = saved
}

// ExactTensorList appends a length-prefixed tensor list with the exact
// f64 element encoding, ignoring the writer's negotiated codec. Kept for
// benchmark/: PartialUp walks its sum with Fields.ExactViews.
func (w *Writer) ExactTensorList(ts []*tensor.Tensor) {
	saved := w.Codec
	w.Codec = CodecF64
	w.TensorList(ts)
	w.Codec = saved
}

// ExactTensor reads a tensor written by Writer.ExactTensor.
func (r *Reader) ExactTensor() *tensor.Tensor {
	saved := r.Codec
	r.Codec = CodecF64
	t := r.Tensor()
	r.Codec = saved
	return t
}

// ExactTensorList reads a list written by Writer.ExactTensorList. Kept
// for benchmark/, like the writer.
func (r *Reader) ExactTensorList() []*tensor.Tensor {
	saved := r.Codec
	r.Codec = CodecF64
	ts := r.TensorList()
	r.Codec = saved
	return ts
}

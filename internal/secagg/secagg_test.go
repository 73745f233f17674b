package secagg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// dyadic returns a deterministic multiple of 1/256 in [-1, 1).
func dyadic(seed, i int) float64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return float64(int64(h%512)-256) / 256
}

func testCohort(t *testing.T, n int) ([]*ClientSession, []Peer) {
	t.Helper()
	sessions := make([]*ClientSession, n)
	cohort := make([]Peer, n)
	for i := range sessions {
		device := fmt.Sprintf("dev-%03d", i)
		s, err := NewClientSession(device, []byte(device), DefaultScaleBits)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		cohort[i] = Peer{Device: device, Pub: s.MaskPub()}
	}
	return sessions, cohort
}

func dyadicUpdate(seed int, shapes [][]int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(shapes))
	k := 0
	for i, shape := range shapes {
		tt := tensor.New(shape...)
		for j := range tt.Data {
			tt.Data[j] = dyadic(seed, k)
			k++
		}
		out[i] = tt
	}
	return out
}

// plainWeightedMean reproduces the fl.Aggregator arithmetic exactly:
// AxPy folds in order, then one multiply by 1/Σw.
func plainWeightedMean(updates [][]*tensor.Tensor, weights []float64, ref []*tensor.Tensor) []*tensor.Tensor {
	sum := make([]*tensor.Tensor, len(ref))
	for i, r := range ref {
		sum[i] = tensor.New(r.Shape...)
	}
	var w float64
	for c, upd := range updates {
		for i := range sum {
			tensor.AxPy(weights[c], upd[i], sum[i])
		}
		w += weights[c]
	}
	inv := 1 / w
	out := make([]*tensor.Tensor, len(sum))
	for i, s := range sum {
		out[i] = tensor.Scale(s, inv)
	}
	return out
}

// TestMaskedAggregateBitIdentical: a full cohort's pairwise masks
// cancel exactly in the ring along the edges of the mask graph — a
// proper subgraph of the complete one — and, once every self mask is
// stripped, the dequantised mean is bit-identical to the plaintext
// weighted FedAvg of the same dyadic updates.
func TestMaskedAggregateBitIdentical(t *testing.T) {
	const n, round, degree = 7, 3, 4
	ref := []*tensor.Tensor{tensor.New(4, 3), tensor.New(5)}
	shapes := [][]int{{4, 3}, {5}}
	sessions, cohort := testCohort(t, n)

	msum := NewMaskedSum(ref, nil, DefaultScaleBits)
	var updates [][]*tensor.Tensor
	var weights []float64
	for i, s := range sessions {
		upd := dyadicUpdate(i, shapes)
		w := uint64(1 + i%4)
		masked, shares, err := s.MaskedUpdate(round, cohort, degree, upd, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(shares) != degree {
			t.Fatalf("client %d sent %d self-seed shares, want %d", i, len(shares), degree)
		}
		if err := msum.Add(masked, w); err != nil {
			t.Fatal(err)
		}
		// The share-reconstruction path is TestDoubleMaskedAggregation's
		// subject; here the self masks come off with the seeds themselves
		// so only pair-mask cancellation is under test.
		msum.ApplySeedMask(s.selfSeed(round), -1)
		updates = append(updates, upd)
		weights = append(weights, float64(w))
	}
	got, err := msum.Mean()
	if err != nil {
		t.Fatal(err)
	}
	want := plainWeightedMean(updates, weights, ref)
	for i := range ref {
		for j := range want[i].Data {
			if got[i].Data[j] != want[i].Data[j] {
				t.Fatalf("tensor %d elem %d: masked %v != plaintext %v", i, j, got[i].Data[j], want[i].Data[j])
			}
		}
	}
	if msum.Count() != n {
		t.Fatalf("count = %d", msum.Count())
	}
}

// TestRoundSeedsAgreeAndScope: both ends of a pair derive the same
// round seed, and different rounds yield different seeds.
func TestRoundSeedsAgreeAndScope(t *testing.T) {
	sessions, cohort := testCohort(t, 2)
	a, err := sessions[0].roundSeedWith(cohort[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sessions[1].roundSeedWith(cohort[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("pair ends derived different round seeds")
	}
	c, err := sessions[0].roundSeedWith(cohort[1], 6)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("round seeds must differ across rounds")
	}
}

// TestMaskedUpdateValidation covers the cohort sanity checks.
func TestMaskedUpdateValidation(t *testing.T) {
	sessions, cohort := testCohort(t, 3)
	upd := dyadicUpdate(1, [][]int{{2}})
	if _, _, err := sessions[0].MaskedUpdate(0, cohort[1:], 2, upd, 1); err == nil {
		t.Fatal("cohort without self must fail")
	}
	dup := append(append([]Peer(nil), cohort...), cohort[1])
	if _, _, err := sessions[0].MaskedUpdate(0, dup, 2, upd, 1); err == nil {
		t.Fatal("duplicate cohort device must fail")
	}
	if _, _, err := sessions[0].MaskedUpdate(0, cohort, 2, upd, 0); err == nil {
		t.Fatal("zero weight must fail")
	}
	if _, err := sessions[0].Reconcile(0, nil, nil); !errors.Is(err, ErrNoRoundState) {
		t.Fatalf("reconciling a round never masked = %v, want ErrNoRoundState", err)
	}
	if _, _, err := sessions[0].MaskedUpdate(0, cohort, 2, upd, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sessions[0].Reconcile(0, []string{"dev-000"}, nil); !errors.Is(err, ErrSelfInPairs) {
		t.Fatalf("revealing own seed = %v, want ErrSelfInPairs", err)
	}
	if _, err := sessions[0].Reconcile(0, []string{"ghost"}, nil); !errors.Is(err, ErrNoPair) {
		t.Fatalf("unknown dropped peer = %v, want ErrNoPair", err)
	}
}

// TestMaskDowngradeRefused: a degree below 1 strips the self mask and
// the graph, so it is refused for every cohort that has pairs at all —
// before anything is quantised or any seed derived. The one cohort it
// is valid for has a single member: nothing to pair with, no self mask,
// no shares, and the "masked" levels are the plain quantised update.
func TestMaskDowngradeRefused(t *testing.T) {
	sessions, cohort := testCohort(t, 3)
	upd := dyadicUpdate(1, [][]int{{2}})
	for _, degree := range []int{0, -1} {
		levels, shares, err := sessions[0].MaskedUpdate(0, cohort, degree, upd, 1)
		if !errors.Is(err, ErrMaskDowngrade) {
			t.Fatalf("degree %d over 3 members = %v, want ErrMaskDowngrade", degree, err)
		}
		if levels != nil || shares != nil {
			t.Fatalf("degree %d: a refused update must carry nothing", degree)
		}
	}
	if _, err := sessions[0].Reconcile(0, []string{cohort[1].Device}, nil); !errors.Is(err, ErrNoRoundState) {
		t.Fatalf("reconcile after a refused round = %v, want ErrNoRoundState", err)
	}

	levels, shares, err := sessions[0].MaskedUpdate(0, cohort[:1], 0, upd, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 0 {
		t.Fatalf("one-member cohort produced %d self-seed shares", len(shares))
	}
	want := Quantise(upd[0], ScaleFor(DefaultScaleBits), 3)
	for j, l := range levels[0].Levels {
		if l != want.Levels[j] {
			t.Fatalf("one-member cohort masked elem %d: %d != %d", j, l, want.Levels[j])
		}
	}
}

// TestMaskedSumValidation covers the layout checks.
func TestMaskedSumValidation(t *testing.T) {
	ref := []*tensor.Tensor{tensor.New(2, 2), tensor.New(3)}
	m := NewMaskedSum(ref, map[int]bool{0: true}, DefaultScaleBits)
	ok := []*wire.U64Tensor{nil, {Shape: []int{3}, Levels: make([]uint64, 3)}}
	if err := m.Add(ok, 1); err != nil {
		t.Fatal(err)
	}
	bad := []*wire.U64Tensor{{Shape: []int{2, 2}, Levels: make([]uint64, 4)}, {Shape: []int{3}, Levels: make([]uint64, 3)}}
	if err := m.Add(bad, 1); err == nil {
		t.Fatal("levels at a protected position must fail")
	}
	short := []*wire.U64Tensor{nil, {Shape: []int{2}, Levels: make([]uint64, 2)}}
	if err := m.Add(short, 1); err == nil {
		t.Fatal("misshapen levels must fail")
	}
	if err := m.Add(ok, 0); err == nil {
		t.Fatal("zero weight must fail")
	}
}

// TestMaskedSumAddFailClosed: Add must refuse a mismatched update in
// full — even one whose leading tensors are individually foldable —
// leaving the accumulator byte-identical. The check must hold against
// the accumulator itself, independent of Validate, so a caller that
// skipped Validate (or validated against a desynced layout) still
// cannot corrupt the ring sum partially.
func TestMaskedSumAddFailClosed(t *testing.T) {
	ref := []*tensor.Tensor{tensor.New(4), tensor.New(2, 3), tensor.New(5)}
	lv := func(n int, fill uint64) *wire.U64Tensor {
		u := &wire.U64Tensor{Shape: []int{n}, Levels: make([]uint64, n)}
		for i := range u.Levels {
			u.Levels[i] = fill
		}
		return u
	}
	cases := []struct {
		name string
		up   []*wire.U64Tensor
	}{
		{"too few tensors", []*wire.U64Tensor{lv(4, 1), lv(6, 1)}},
		{"too many tensors", []*wire.U64Tensor{lv(4, 1), lv(6, 1), lv(5, 1), lv(1, 1)}},
		{"nil at active position", []*wire.U64Tensor{lv(4, 1), nil, lv(5, 1)}},
		{"levels at protected position", []*wire.U64Tensor{lv(4, 1), lv(6, 1), lv(5, 1)}},
		{"good prefix, short tail", []*wire.U64Tensor{lv(4, 1), lv(6, 1), lv(3, 1)}},
		{"good prefix, long tail", []*wire.U64Tensor{lv(4, 1), lv(6, 1), lv(9, 1)}},
		{"shape/levels mismatch", []*wire.U64Tensor{lv(4, 1), lv(6, 1), {Shape: []int{5}, Levels: make([]uint64, 3)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			protected := map[int]bool{}
			if tc.name == "levels at protected position" {
				protected[2] = true
			}
			m := NewMaskedSum(ref, protected, DefaultScaleBits)
			good := []*wire.U64Tensor{lv(4, 7), lv(6, 7), lv(5, 7)}
			if protected[2] {
				good[2] = nil
			}
			if err := m.Add(good, 2); err != nil {
				t.Fatal(err)
			}
			if err := m.Add(tc.up, 1); err == nil {
				t.Fatal("mismatched update must be refused")
			}
			// Fail-closed means fully closed: nothing folded, no weight
			// or count drift — the prior fold is still intact verbatim.
			if m.Count() != 1 || m.Weight() != 2 {
				t.Fatalf("accumulator drifted: count=%d weight=%v", m.Count(), m.Weight())
			}
			for i, s := range m.Levels() {
				if s == nil {
					continue
				}
				for j, l := range s.Levels {
					if l != 7 {
						t.Fatalf("tensor %d elem %d = %d: rejected update partially folded", i, j, l)
					}
				}
			}
		})
	}
}

// TestQuantisationErrorBound: arbitrary floats survive the fixed-point
// round trip within 2^-(bits+1) per element.
func TestQuantisationErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const bits = 24
	scale := ScaleFor(bits)
	tt := tensor.New(64)
	for i := range tt.Data {
		tt.Data[i] = rng.NormFloat64()
	}
	q := Quantise(tt, scale, 1)
	back := make([]float64, len(q.Levels))
	Dequantise(q.Levels, scale, back)
	bound := math.Ldexp(1, -(bits + 1))
	for i, v := range tt.Data {
		if diff := math.Abs(back[i] - v); diff > bound {
			t.Fatalf("elem %d: error %v exceeds %v", i, diff, bound)
		}
	}
	// Dyadic values with ≤ bits fractional bits are exact.
	for i := range tt.Data {
		tt.Data[i] = dyadic(7, i)
	}
	q = Quantise(tt, scale, 3)
	Dequantise(q.Levels, scale, back)
	for i, v := range tt.Data {
		if back[i] != 3*v {
			t.Fatalf("dyadic elem %d: %v != %v", i, back[i], 3*v)
		}
	}
}

// TestEnclaveAggregatesSealedUpdates: sealed updates fold inside the
// enclave; only the aggregate mean crosses the world boundary and it
// matches the plaintext weighted mean bit for bit.
func TestEnclaveAggregatesSealedUpdates(t *testing.T) {
	enc, err := NewEnclave("agg-test")
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()

	const n, round = 3, 0
	idx := []int{1, 4}
	shapes := [][]int{{2, 2}, {3}}
	type client struct {
		ch  *tz.Channel
		upd []*tensor.Tensor
	}
	clients := make([]client, n)
	var updates [][]*tensor.Tensor
	var weights []float64
	for i := range clients {
		offerID, pub, err := enc.NewOffer()
		if err != nil {
			t.Fatal(err)
		}
		clientOffer, err := tz.NewChannelOffer()
		if err != nil {
			t.Fatal(err)
		}
		ch, err := clientOffer.Establish(pub, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Establish(offerID, fmt.Sprintf("c%d", i), clientOffer.Public); err != nil {
			t.Fatal(err)
		}
		clients[i] = client{ch: ch, upd: dyadicUpdate(i, shapes)}
		updates = append(updates, clients[i].upd)
		weights = append(weights, float64(i+1))
	}

	if err := enc.Begin(round, idx, shapes); err != nil {
		t.Fatal(err)
	}
	before := enc.Device().SecureMemory().InUse()
	if before == 0 {
		t.Fatal("round accumulator not charged to secure memory")
	}
	for i, c := range clients {
		sealed := c.ch.Seal(wire.EncodeSealedUpdate(idx, c.upd))
		if err := enc.Fold(fmt.Sprintf("c%d", i), round, sealed, weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Double fold must be rejected atomically.
	sealed := clients[0].ch.Seal(wire.EncodeSealedUpdate(idx, clients[0].upd))
	if err := enc.Fold("c0", round, sealed, 1); err == nil {
		t.Fatal("double fold must fail")
	}
	if _, err := enc.Finish(round, n+1); err == nil {
		t.Fatal("count mismatch must fail")
	}
	mean, err := enc.Finish(round, n)
	if err != nil {
		t.Fatal(err)
	}
	ref := []*tensor.Tensor{tensor.New(2, 2), tensor.New(3)}
	want := plainWeightedMean(updates, weights, ref)
	for k := range mean {
		for j := range mean[k].Data {
			if mean[k].Data[j] != want[k].Data[j] {
				t.Fatalf("tensor %d elem %d: enclave %v != plaintext %v", k, j, mean[k].Data[j], want[k].Data[j])
			}
		}
	}
	if after := enc.Device().SecureMemory().InUse(); after != 0 {
		t.Fatalf("secure memory not released: %d bytes in use", after)
	}
	if enc.Device().SMCCount() == 0 {
		t.Fatal("enclave work must cross the world boundary")
	}
}

// TestEnclaveRejectsBadFolds: validation failures leave the round
// accumulator untouched and further folds still work.
func TestEnclaveRejectsBadFolds(t *testing.T) {
	enc, err := NewEnclave("agg-bad")
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()

	offerID, pub, err := enc.NewOffer()
	if err != nil {
		t.Fatal(err)
	}
	clientOffer, err := tz.NewChannelOffer()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := clientOffer.Establish(pub, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Establish(offerID, "c0", clientOffer.Public); err != nil {
		t.Fatal(err)
	}

	idx := []int{0}
	shapes := [][]int{{2}}
	if err := enc.Begin(1, idx, shapes); err != nil {
		t.Fatal(err)
	}
	if err := enc.Fold("ghost", 1, nil, 1); err == nil {
		t.Fatal("unknown device must fail")
	}
	if err := enc.Fold("c0", 1, []byte{1, 2, 3}, 1); err == nil {
		t.Fatal("garbage seal must fail")
	}
	wrongIdx := ch.Seal(wire.EncodeSealedUpdate([]int{5}, []*tensor.Tensor{tensor.Full(1, 2)}))
	if err := enc.Fold("c0", 1, wrongIdx, 1); err == nil {
		t.Fatal("wrong protected index must fail")
	}
	// The nil-tensor marker is refused, not dereferenced: the fold fails,
	// and the good fold below still lands alone on an untouched sum.
	nilTensor := ch.Seal(wire.EncodeSealedUpdate(idx, []*tensor.Tensor{nil}))
	if err := enc.Fold("c0", 1, nilTensor, 1); err == nil {
		t.Fatal("nil protected tensor must fail")
	}
	good := ch.Seal(wire.EncodeSealedUpdate(idx, []*tensor.Tensor{tensor.Full(0.5, 2)}))
	if err := enc.Fold("c0", 1, good, 1); err != nil {
		t.Fatal(err)
	}
	mean, err := enc.Finish(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mean[0].Data[0] != 0.5 {
		t.Fatalf("mean = %v", mean[0].Data)
	}
	// A sealed update may list the protected tensors in any order: the
	// real GradSec trainer does not sort its layer enumeration.
	if err := enc.Begin(3, []int{2, 7}, [][]int{{2}, {3}}); err != nil {
		t.Fatal(err)
	}
	permuted := ch.Seal(wire.EncodeSealedUpdate([]int{7, 2},
		[]*tensor.Tensor{tensor.Full(3, 3), tensor.Full(1, 2)}))
	if err := enc.Fold("c0", 3, permuted, 1); err != nil {
		t.Fatal(err)
	}
	mean, err = enc.Finish(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mean[0].Data[0] != 1 || mean[1].Data[0] != 3 {
		t.Fatalf("permuted fold landed wrong: %v / %v", mean[0].Data, mean[1].Data)
	}
	// Duplicate coverage of one protected index must still be rejected.
	if err := enc.Begin(4, []int{2, 7}, [][]int{{2}, {3}}); err != nil {
		t.Fatal(err)
	}
	dup := ch.Seal(wire.EncodeSealedUpdate([]int{2, 2},
		[]*tensor.Tensor{tensor.Full(1, 2), tensor.Full(1, 2)}))
	if err := enc.Fold("c0", 4, dup, 1); err == nil {
		t.Fatal("duplicate protected index must fail")
	}
	enc.Abort(4)
	enc.Abort(2) // aborting an unknown round is a no-op
	if got := enc.Device().SecureMemory().InUse(); got != 0 {
		t.Fatalf("secure memory leaked: %d", got)
	}
}

// TestEnclaveMinReleaseFloor: the count-capped release policy lives in
// TA state — Finish refuses to publish below the floor, the floor can
// only be raised, and an under-floor round's accumulator survives so
// further folds can still reach the floor.
func TestEnclaveMinReleaseFloor(t *testing.T) {
	enc, err := NewEnclave("agg-floor")
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	if got := enc.SetMinRelease(3); got != 3 {
		t.Fatalf("floor = %d, want 3", got)
	}
	// The floor is monotonic: an attempt to loosen it is ignored.
	if got := enc.SetMinRelease(1); got != 3 {
		t.Fatalf("floor lowered to %d — the policy must be monotonic", got)
	}

	const round = 0
	idx := []int{0}
	shapes := [][]int{{2}}
	seal := func(i int) []byte {
		offerID, pub, err := enc.NewOffer()
		if err != nil {
			t.Fatal(err)
		}
		clientOffer, err := tz.NewChannelOffer()
		if err != nil {
			t.Fatal(err)
		}
		ch, err := clientOffer.Establish(pub, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Establish(offerID, fmt.Sprintf("f%d", i), clientOffer.Public); err != nil {
			t.Fatal(err)
		}
		return ch.Seal(wire.EncodeSealedUpdate(idx, []*tensor.Tensor{tensor.Full(0.5, 2)}))
	}
	if err := enc.Begin(round, idx, shapes); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := enc.Fold(fmt.Sprintf("f%d", i), round, seal(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := enc.Finish(round, 2); !errors.Is(err, ErrCohortTooSmall) {
		t.Fatalf("Finish below the floor = %v, want ErrCohortTooSmall", err)
	}
	// The refused round is still open: one more fold reaches the floor
	// and the aggregate releases.
	if err := enc.Fold("f2", round, seal(2), 1); err != nil {
		t.Fatal(err)
	}
	mean, err := enc.Finish(round, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mean[0].Data[0] != 0.5 {
		t.Fatalf("mean = %v, want 0.5", mean[0].Data[0])
	}
	if got := enc.Device().SecureMemory().InUse(); got != 0 {
		t.Fatalf("secure memory leaked: %d", got)
	}
}

package secagg

import (
	"errors"
	"fmt"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
)

func graphDevices(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dev-%04d", i)
	}
	return out
}

// TestPairSignTies: self == peer is not a pair — the sign is 0, which
// no masking path accepts. Duplicate device IDs must be rejected
// before any mask is derived: by NewGraph and by MaskedUpdateRoster on
// the roster (the server additionally dedups at selection).
func TestPairSignTies(t *testing.T) {
	if got := PairSign("a", "b"); got != 1 {
		t.Fatalf("PairSign(a,b) = %d", got)
	}
	if got := PairSign("b", "a"); got != -1 {
		t.Fatalf("PairSign(b,a) = %d", got)
	}
	if got := PairSign("twin", "twin"); got != 0 {
		t.Fatalf("PairSign(twin,twin) = %d, want 0 (not a pair)", got)
	}
	if PairSign("a", "b") != -PairSign("b", "a") {
		t.Fatal("pair signs must be antisymmetric")
	}
	if _, err := NewGraph(0, []string{"a", "b", "a"}, 2); err == nil {
		t.Fatal("NewGraph must reject duplicate devices before mask derivation")
	}
}

// TestGraphDeterministicAndSymmetric: every party derives the same
// graph from the roster regardless of input order; the neighbour
// relation is symmetric; different rounds shuffle differently.
func TestGraphDeterministicAndSymmetric(t *testing.T) {
	devs := graphDevices(37)
	g1, err := NewGraph(5, devs, 6)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]string, len(devs))
	for i, d := range devs {
		rev[len(devs)-1-i] = d
	}
	g2, err := NewGraph(5, rev, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		n1, n2 := g1.Neighbors(d), g2.Neighbors(d)
		if len(n1) != len(n2) {
			t.Fatalf("roster order changed the graph for %s", d)
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("roster order changed the graph for %s", d)
			}
		}
		for _, p := range n1 {
			found := false
			for _, q := range g1.Neighbors(p) {
				if q == d {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetric edge %s→%s", d, p)
			}
		}
	}
	g3, err := NewGraph(6, devs, 6)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for _, d := range devs {
		a, b := g1.Neighbors(d), g3.Neighbors(d)
		for i := range a {
			if a[i] != b[i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("different rounds must derive different graphs")
	}
}

// connectedAfter reports whether the survivors of the graph stay
// connected once the dropped set is removed (BFS over neighbour sets).
func connectedAfter(g *Graph, devs []string, dropped map[string]bool) bool {
	var start string
	alive := 0
	for _, d := range devs {
		if !dropped[d] {
			alive++
			if start == "" {
				start = d
			}
		}
	}
	if alive == 0 {
		return true
	}
	seen := map[string]bool{start: true}
	queue := []string{start}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		for _, p := range g.Neighbors(d) {
			if !dropped[p] && !seen[p] {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	return len(seen) == alive
}

// TestGraphConnectivityAndDropoutRecovery: the property test from the
// issue. For cohort sizes across [2, 4096] the auto-degree graph is
// connected, the degree and threshold match the spec, and after
// ⌊(k−1)/2⌋ dropouts — both an adversarial consecutive block and a
// pseudo-random set — the survivor graph stays connected and every
// survivor keeps ≥ Threshold surviving neighbours, so every folded
// client's Shamir-shared self seed remains reconstructible (asserted
// end to end through SplitSeed/CombineSeed).
func TestGraphConnectivityAndDropoutRecovery(t *testing.T) {
	sizes := []int{}
	limit := 512
	if testing.Short() {
		limit = 96
	}
	for n := 2; n <= limit; n++ {
		sizes = append(sizes, n)
	}
	if !testing.Short() {
		sizes = append(sizes, 600, 777, 1024, 1500, 2048, 3000, 4095, 4096)
	}
	for _, n := range sizes {
		devs := graphDevices(n)
		k := DegreeFor(n)
		g, err := NewGraph(n, devs, k)
		if err != nil {
			t.Fatal(err)
		}
		wantDeg := min(k, n-1)
		for _, d := range devs {
			if got := len(g.Neighbors(d)); got != g.Degree() {
				t.Fatalf("n=%d: %s has %d neighbours, graph degree %d", n, d, got, g.Degree())
			}
		}
		if g.Degree() < min(wantDeg-1, n-1) || g.Degree() > wantDeg {
			t.Fatalf("n=%d: degree %d, want ≈%d", n, g.Degree(), wantDeg)
		}
		if th := g.Threshold(); th != g.Degree()/2+1 {
			t.Fatalf("n=%d: threshold %d for degree %d", n, th, g.Degree())
		}
		if !connectedAfter(g, devs, nil) {
			t.Fatalf("n=%d: graph not connected", n)
		}

		drops := (g.Degree() - 1) / 2
		// Adversarial: a consecutive ring block around one member's
		// neighbourhood is the worst case for that member.
		block := map[string]bool{}
		for i := 0; i < drops; i++ {
			block[ringOrder(g)[(1+i)%n]] = true
		}
		// Pseudo-random: spread across the ring.
		spread := map[string]bool{}
		for i := 0; i < drops; i++ {
			spread[ringOrder(g)[(i*7+3)%n]] = true
		}
		for name, dropped := range map[string]map[string]bool{"block": block, "spread": spread} {
			if !connectedAfter(g, devs, dropped) {
				t.Fatalf("n=%d: %s dropout of %d disconnected the graph", n, name, drops)
			}
			for _, d := range devs {
				if dropped[d] {
					continue
				}
				alive := 0
				for _, p := range g.Neighbors(d) {
					if !dropped[p] {
						alive++
					}
				}
				if alive < g.Threshold() {
					t.Fatalf("n=%d: %s dropout leaves %s with %d of %d threshold holders",
						n, name, d, alive, g.Threshold())
				}
			}
		}

		// End-to-end seed recovery for one survivor under the block
		// dropout: split among its neighbours, lose the dropped ones,
		// reconstruct from the rest.
		if g.Degree() == 0 {
			continue
		}
		owner := ringOrder(g)[0]
		neigh := g.Neighbors(owner)
		xs := make([]uint8, len(neigh))
		for i := range neigh {
			xs[i] = uint8(i + 1)
		}
		seed := [32]byte{1, 2, 3, byte(n)}
		shares, err := SplitSeed(seed, xs, g.Threshold(), owner)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var kept []Share
		for i, d := range neigh {
			if !block[d] {
				kept = append(kept, shares[i])
			}
		}
		got, err := CombineSeed(kept, g.Threshold())
		if err != nil {
			t.Fatalf("n=%d: combining %d shares: %v", n, len(kept), err)
		}
		if got != seed {
			t.Fatalf("n=%d: reconstructed seed differs", n)
		}
	}
}

// TestShamirThreshold: t−1 shares reveal nothing usable — CombineSeed
// refuses below the threshold, and interpolating a wrong subset yields
// a different value than the secret (sanity, not a secrecy proof).
func TestShamirThreshold(t *testing.T) {
	seed := [32]byte{9, 8, 7, 6, 5}
	xs := []uint8{1, 2, 3, 4, 5, 6}
	shares, err := SplitSeed(seed, xs, 4, "owner")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CombineSeed(shares[:3], 4); !errors.Is(err, ErrShareCount) {
		t.Fatalf("below-threshold combine = %v, want ErrShareCount", err)
	}
	// Any t-subset reconstructs.
	for _, pick := range [][]int{{0, 1, 2, 3}, {2, 3, 4, 5}, {0, 2, 4, 5}} {
		sub := make([]Share, len(pick))
		for i, j := range pick {
			sub[i] = shares[j]
		}
		got, err := CombineSeed(sub, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got != seed {
			t.Fatalf("subset %v reconstructed a different seed", pick)
		}
	}
	// Deterministic: the same (seed, context) re-splits identically.
	again, err := SplitSeed(seed, xs, 4, "owner")
	if err != nil {
		t.Fatal(err)
	}
	for i := range shares {
		if string(shares[i].Data) != string(again[i].Data) {
			t.Fatal("re-split diverged — flsim reproducibility broken")
		}
	}
	other, err := SplitSeed(seed, xs, 4, "other-owner")
	if err != nil {
		t.Fatal(err)
	}
	if string(other[0].Data) == string(shares[0].Data) {
		t.Fatal("context must separate sharings")
	}
	// Hostile shares fail loudly.
	if _, err := CombineSeed([]Share{{X: 0, Data: make([]byte, 32)}}, 1); err == nil {
		t.Fatal("zero x must fail")
	}
	if _, err := CombineSeed([]Share{shares[0], shares[0], shares[1], shares[2]}, 4); err == nil {
		t.Fatal("duplicate x must fail")
	}
	if _, err := CombineSeed([]Share{{X: 1, Data: []byte{1}}}, 1); err == nil {
		t.Fatal("short share data must fail")
	}
	if _, err := SplitSeed(seed, []uint8{1, 1}, 2, "o"); err == nil {
		t.Fatal("duplicate x-coordinates must fail at split")
	}
	if _, err := SplitSeed(seed, xs, 7, "o"); err == nil {
		t.Fatal("t > n must fail")
	}
}

// TestWrappedShareTransport: wrap/unwrap round-trips under the
// direction-scoped key; any bit flip, truncation, wrong direction,
// wrong round or wrong pair key fails authentication.
func TestWrappedShareTransport(t *testing.T) {
	var pair, otherPair [32]byte
	pair[0], otherPair[0] = 1, 2
	sh := Share{X: 3, Data: make([]byte, SeedShareLen)}
	for i := range sh.Data {
		sh.Data[i] = byte(i * 7)
	}
	key := shareWrapKey(pair, 4, "alice")
	blob := wrapShare(key, sh)
	if len(blob) != WrappedShareLen {
		t.Fatalf("blob is %d bytes, want %d", len(blob), WrappedShareLen)
	}
	got, err := unwrapShare(key, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.X != sh.X || string(got.Data) != string(sh.Data) {
		t.Fatal("round trip corrupted the share")
	}
	bad := append([]byte(nil), blob...)
	bad[5] ^= 1
	if _, err := unwrapShare(key, bad); !errors.Is(err, ErrShareBlob) {
		t.Fatalf("tampered blob = %v, want ErrShareBlob", err)
	}
	if _, err := unwrapShare(key, blob[:10]); !errors.Is(err, ErrShareBlob) {
		t.Fatal("truncated blob must fail")
	}
	for name, wrong := range map[string][32]byte{
		"other direction": shareWrapKey(pair, 4, "bob"),
		"other round":     shareWrapKey(pair, 5, "alice"),
		"other pair":      shareWrapKey(otherPair, 4, "alice"),
	} {
		if _, err := unwrapShare(wrong, blob); err == nil {
			t.Fatalf("%s key must not authenticate", name)
		}
	}
	if shareWrapKey(pair, 4, "alice") == shareWrapKey(pair, 4, "bob") {
		t.Fatal("wrap keys must separate the two directions of a pair")
	}
}

// TestDoubleMaskedAggregation drives the full k-regular double-masking
// data path at the secagg layer: cohort masks with MaskedUpdateRoster
// (degree > 0), some clients straggle, the server-side reconciliation
// removes dangling pair masks via revealed pair seeds and every folded
// self-mask via shares reconstructed from Reconcile answers — and the
// mean is bit-identical to the plaintext weighted mean of the folded
// updates.
func TestDoubleMaskedAggregation(t *testing.T) {
	const n, round = 12, 2
	ref := dyadicUpdate(0, [][]int{{4, 3}, {5}})
	shapes := [][]int{{4, 3}, {5}}
	sessions, cohort := testCohort(t, n)
	degree := DegreeFor(n)
	names := make([]string, n)
	for i, p := range cohort {
		names[i] = p.Device
	}
	graph, err := NewGraph(round, names, degree)
	if err != nil {
		t.Fatal(err)
	}

	droppedSet := map[string]bool{}
	allowed := (graph.Degree() - 1) / 2
	for i := 0; i < allowed; i++ {
		droppedSet[cohort[2+i].Device] = true
	}

	msum := NewMaskedSum(ref, nil, DefaultScaleBits)
	wrapped := map[string]map[string][]byte{} // owner → holder → blob
	foldedSet := map[string]bool{}
	byDevice := map[string]*ClientSession{}
	var updates [][]*tensor.Tensor
	var weights []float64
	for i, s := range sessions {
		byDevice[cohort[i].Device] = s
		upd := dyadicUpdate(10+i, shapes)
		w := uint64(1 + i%3)
		masked, shares, err := s.MaskedUpdateRoster(round, rosterOf(cohort), degree, upd, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(shares) != graph.Degree() {
			t.Fatalf("client %d sent %d shares, want %d", i, len(shares), graph.Degree())
		}
		if droppedSet[cohort[i].Device] {
			continue // straggled: nothing reaches the server
		}
		if err := msum.Add(masked, w); err != nil {
			t.Fatal(err)
		}
		foldedSet[cohort[i].Device] = true
		m := map[string][]byte{}
		for _, ws := range shares {
			m[ws.To] = ws.Blob
		}
		wrapped[cohort[i].Device] = m
		updates = append(updates, upd)
		weights = append(weights, float64(w))
	}

	// Server-side reconciliation: per folded survivor, request pair
	// seeds for dropped neighbours and self-seed shares for folded ones.
	seedShares := map[string][]Share{}
	for d, folded := range foldedSet {
		if !folded {
			continue
		}
		var dropped []string
		var envs []SeedEnvelope
		for _, p := range graph.Neighbors(d) {
			if droppedSet[p] {
				dropped = append(dropped, p)
			} else if foldedSet[p] {
				envs = append(envs, SeedEnvelope{Owner: p, Blob: wrapped[p][d]})
			}
		}
		ans, err := byDevice[d].Reconcile(round, dropped, envs)
		if err != nil {
			t.Fatal(err)
		}
		for _, ps := range ans.Pairs {
			msum.ApplySeedMask(ps.Seed, -PairSign(d, ps.Device))
		}
		for _, ss := range ans.Seeds {
			if want := graph.ShareIndex(ss.Owner, d); int(ss.X) != want {
				t.Fatalf("share x=%d from %s for %s, want %d", ss.X, d, ss.Owner, want)
			}
			seedShares[ss.Owner] = append(seedShares[ss.Owner], Share{X: ss.X, Data: ss.Data})
		}
	}
	for owner := range foldedSet {
		seed, err := CombineSeed(seedShares[owner], graph.Threshold())
		if err != nil {
			t.Fatalf("self seed of %s: %v", owner, err)
		}
		msum.ApplySeedMask(seed, -1)
	}

	got, err := msum.Mean()
	if err != nil {
		t.Fatal(err)
	}
	want := plainWeightedMean(updates, weights, ref)
	for i := range ref {
		for j := range want[i].Data {
			if got[i].Data[j] != want[i].Data[j] {
				t.Fatalf("tensor %d elem %d: double-masked %v != plaintext %v", i, j, got[i].Data[j], want[i].Data[j])
			}
		}
	}
}

// TestReconcileRoleExclusivity: the client-side invariant that closes
// the late-update unmasking window — one peer, one role per round.
func TestReconcileRoleExclusivity(t *testing.T) {
	const n, round = 8, 1
	sessions, cohort := testCohort(t, n)
	degree := DegreeFor(n)
	upd := dyadicUpdate(1, [][]int{{3}})
	wrapped := map[string]map[string][]byte{}
	for i, s := range sessions {
		_, shares, err := s.MaskedUpdateRoster(round, rosterOf(cohort), degree, upd, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string][]byte{}
		for _, ws := range shares {
			m[ws.To] = ws.Blob
		}
		wrapped[cohort[i].Device] = m
	}
	names := make([]string, n)
	for i, p := range cohort {
		names[i] = p.Device
	}
	graph, err := NewGraph(round, names, degree)
	if err != nil {
		t.Fatal(err)
	}
	self := cohort[0].Device
	neigh := graph.Neighbors(self)
	peer := neigh[0]

	// Both roles in one request must fail.
	if _, err := sessions[0].Reconcile(round, []string{peer},
		[]SeedEnvelope{{Owner: peer, Blob: wrapped[peer][self]}}); !errors.Is(err, ErrRoleConflict) {
		t.Fatalf("dual-role request = %v, want ErrRoleConflict", err)
	}
	// Role flip across requests of the same round must fail too — roles
	// are sticky even when the request that set them later errored.
	flip := neigh[2]
	if _, err := sessions[0].Reconcile(round, nil,
		[]SeedEnvelope{{Owner: flip, Blob: wrapped[flip][self]}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sessions[0].Reconcile(round, []string{flip}, nil); !errors.Is(err, ErrRoleConflict) {
		t.Fatalf("role flip = %v, want ErrRoleConflict", err)
	}
	// Own name is refused in either list.
	if _, err := sessions[0].Reconcile(round, []string{self}, nil); !errors.Is(err, ErrSelfInPairs) {
		t.Fatalf("self as dropped = %v, want ErrSelfInPairs", err)
	}
	if _, err := sessions[0].Reconcile(round, nil,
		[]SeedEnvelope{{Owner: self, Blob: wrapped[self][peer]}}); !errors.Is(err, ErrSelfInPairs) {
		t.Fatalf("self as survivor = %v, want ErrSelfInPairs", err)
	}
	// Non-neighbours are refused; unknown rounds are refused.
	var far string
	nm := map[string]bool{self: true}
	for _, d := range neigh {
		nm[d] = true
	}
	for _, d := range names {
		if !nm[d] {
			far = d
			break
		}
	}
	if far != "" {
		if _, err := sessions[0].Reconcile(round, []string{far}, nil); !errors.Is(err, ErrNoPair) {
			t.Fatalf("non-neighbour = %v, want ErrNoPair", err)
		}
	}
	if _, err := sessions[0].Reconcile(round+1, nil, nil); !errors.Is(err, ErrNoRoundState) {
		t.Fatalf("unknown round = %v, want ErrNoRoundState", err)
	}
	// A corrupted envelope is skipped, not fatal, and reveals nothing.
	bad := append([]byte(nil), wrapped[neigh[1]][self]...)
	bad[0] ^= 0xff
	ans, err := sessions[0].Reconcile(round, nil, []SeedEnvelope{{Owner: neigh[1], Blob: bad}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Seeds) != 0 {
		t.Fatal("corrupt blob must not yield a share")
	}
}

// FuzzMaskShares feeds hostile wrapped-share blobs and share material
// through the unwrap and combine paths: they must never panic, never
// accept a forged MAC, and never reconstruct from hostile shares
// without the threshold being met.
func FuzzMaskShares(f *testing.F) {
	var pair [32]byte
	pair[0] = 7
	key := shareWrapKey(pair, 3, "owner")
	good := wrapShare(key, Share{X: 5, Data: make([]byte, SeedShareLen)})
	f.Add(good, uint8(1), []byte{})
	f.Add([]byte{}, uint8(0), make([]byte, SeedShareLen))
	f.Add(good[:20], uint8(9), make([]byte, 40))
	f.Add(append(append([]byte{}, good...), 1), uint8(255), make([]byte, 31))
	f.Fuzz(func(t *testing.T, blob []byte, x uint8, data []byte) {
		sh, err := unwrapShare(key, blob)
		if err == nil {
			// Only an authentic blob may unwrap — for a fuzzed mutation
			// that means bit-identity with the good blob.
			if string(blob) != string(good) {
				t.Fatalf("forged blob authenticated: %x", blob)
			}
			if sh.X != 5 {
				t.Fatalf("authentic blob unwrapped wrong share: %+v", sh)
			}
		}
		shares := []Share{{X: x, Data: data}, {X: x + 1, Data: data}}
		if _, err := CombineSeed(shares, 3); !errors.Is(err, ErrShareParams) && !errors.Is(err, ErrShareCount) {
			if len(data) != SeedShareLen || x == 0 || x+1 == 0 {
				t.Fatalf("hostile shares combined: x=%d len=%d err=%v", x, len(data), err)
			}
		}
	})
}

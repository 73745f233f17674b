package secagg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// ringOrder returns the graph's ring, member names by ring position.
func ringOrder(g *Graph) []string {
	out := make([]string, len(g.cycle))
	for p, rank := range g.cycle {
		out[p] = g.devices[g.byName[rank]]
	}
	return out
}

// graphDigest hashes a graph's ring order and every member's Neighbors,
// members in ring order: two graphs that mask anyone differently hash
// differently.
func graphDigest(g *Graph) string {
	h := sha256.New()
	var lb [8]byte
	put := func(s string) {
		binary.BigEndian.PutUint64(lb[:], uint64(len(s)))
		h.Write(lb[:])
		h.Write([]byte(s))
	}
	ring := ringOrder(g)
	for _, d := range ring {
		put(d)
	}
	for _, d := range ring {
		neigh := g.Neighbors(d)
		binary.BigEndian.PutUint64(lb[:], uint64(len(neigh)))
		h.Write(lb[:])
		for _, p := range neigh {
			put(p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGraphRingGolden pins the mask graph every party derives: the
// SHA-256 of the ring order and every member's neighbours, on the auto
// degree, recorded from the map-based derivation before the ring became
// an index permutation. A derivation that moves one member's neighbour
// masks a fleet inconsistently with every older peer — never re-record.
func TestGraphRingGolden(t *testing.T) {
	for _, c := range []struct {
		round, n int
		want     string
	}{
		{0, 2, "f46c31527aa9b206cee94a416cdd63f8cea7607a51b10aa34d7ff40795046a57"},
		{1, 3, "59579ca32dd06fd58f6ffbabcad7b0f190a365680a3be43dd70d34157c0093df"},
		{5, 37, "ac98712ca88434adbbc5d7fcee0d2fb888af4da1cb2222353dd99bb3e2d98a17"},
		{7, 256, "3e2672cc17b0f8b8ca0bbe48a8beb4c1c0d0403e8f558fd9ee0b01c0d1d5f961"},
		{3, 1024, "ee6f41b4286678b6cf540c1a4695c5efb731e25070f2b30317875a023c456a0e"},
	} {
		g, err := NewGraph(c.round, graphDevices(c.n), AutoDegree)
		if err != nil {
			t.Fatal(err)
		}
		if got := graphDigest(g); got != c.want {
			t.Errorf("round %d, n %d: graph digest %s, want %s", c.round, c.n, got, c.want)
		}
	}
}

// TestMaskedUpdateAllocsIndependentOfCohort: a client's masking bill is
// O(k), so a warm MaskedUpdateRoster on degree 8 — over a decoded
// roster, as the fl client calls it — allocates the same bytes per call
// in a cohort of 32 as in one of 1024. The roster map, the name slice
// and a per-client sorted copy of the roster made it grow by ~1 KB per
// 10 members.
func TestMaskedUpdateAllocsIndependentOfCohort(t *testing.T) {
	upd := dyadicUpdate(1, [][]int{{4, 16}})
	perCall := func(n int) float64 {
		sessions, cohort := testCohort(t, n)
		self, roster := sessions[n/2], rosterOf(cohort)
		mask := func() {
			if _, _, err := self.MaskedUpdateRoster(3, roster, 8, upd, 1); err != nil {
				t.Fatal(err)
			}
		}
		mask() // warm: pair secrets, level buffers, the session's slices
		const calls = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			mask()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / calls
	}
	small, large := perCall(32), perCall(1024)
	t.Logf("MaskedUpdateRoster allocates %.0f B per call at n=32, %.0f B at n=1024", small, large)
	if diff := math.Abs(large - small); diff > 4096 {
		t.Fatalf("per-call allocation grows with the cohort: %.0f B at n=32, %.0f B at n=1024", small, large)
	}
}

// refGraph is the map-based graph derivation the index permutation
// replaced, kept verbatim as FuzzGraphMatchesReference's reference.
type refGraph struct {
	ring []string
	pos  map[string]int
	half int
}

func newRefGraph(round int, devices []string, degree int) (*refGraph, error) {
	n := len(devices)
	sorted := make([]string, n)
	copy(sorted, devices)
	sort.Strings(sorted)
	pos := make(map[string]int, n)
	for i, d := range sorted {
		if _, dup := pos[d]; dup {
			return nil, fmt.Errorf("%w: duplicate device %q in cohort", ErrSelfInPairs, d)
		}
		pos[d] = i
	}
	if degree <= 0 {
		degree = DegreeFor(n)
	}
	h := (degree + 1) / 2
	if n > 0 && 2*h > n-1 {
		h = n / 2
	}
	hsh := sha256.New()
	hsh.Write([]byte("secagg-mask-graph"))
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], uint64(round))
	hsh.Write(rb[:])
	for _, d := range sorted {
		binary.BigEndian.PutUint64(rb[:], uint64(len(d)))
		hsh.Write(rb[:])
		hsh.Write([]byte(d))
	}
	var seed [32]byte
	copy(seed[:], hsh.Sum(nil))
	prg := newPRG(seed)
	for i := n - 1; i > 0; i-- {
		j := int(prg.uint64() % uint64(i+1))
		sorted[i], sorted[j] = sorted[j], sorted[i]
	}
	for i, d := range sorted {
		pos[d] = i
	}
	return &refGraph{ring: sorted, pos: pos, half: h}, nil
}

func (g *refGraph) neighbors(device string) []string {
	i, ok := g.pos[device]
	if !ok {
		return nil
	}
	n := len(g.ring)
	out := make([]string, 0, 2*g.half)
	for d := 1; d <= g.half; d++ {
		lo, hi := (i-d+n)%n, (i+d)%n
		out = append(out, g.ring[hi])
		if lo != hi && lo != i {
			out = append(out, g.ring[lo])
		}
	}
	sort.Strings(out)
	return out
}

// FuzzGraphMatchesReference: for any roster — names split from the
// fuzzed bytes at each 0x00, so empty names and duplicates occur — the
// graph derivation agrees with the map-based reference on the ring, on
// every member's neighbours and on refusing the roster.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Add(uint16(0), uint8(0), []byte("a\x00b"))
	f.Add(uint16(5), uint8(6), []byte("dev-1\x00dev-2\x00dev-3\x00dev-4\x00dev-5\x00dev-6\x00dev-7\x00dev-8"))
	f.Add(uint16(1), uint8(2), []byte("a\x00b\x00a"))
	f.Add(uint16(9), uint8(3), []byte("\x00x\x00\xff\xfe\x00xy"))
	f.Add(uint16(2), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, round uint16, degree uint8, roster []byte) {
		devices := strings.Split(string(roster), "\x00")
		if len(devices) > 300 {
			devices = devices[:300]
		}
		want, werr := newRefGraph(int(round), devices, int(degree))
		got, gerr := NewGraph(int(round), devices, int(degree))
		if (werr != nil) != (gerr != nil) || gerr != nil && !errors.Is(gerr, ErrDuplicateDevice) {
			t.Fatalf("roster %q: error %v, reference %v", devices, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if !slices.Equal(ringOrder(got), want.ring) {
			t.Fatalf("roster %q: ring %q, reference %q", devices, ringOrder(got), want.ring)
		}
		for _, d := range append(devices, "not-a-member") {
			if n, w := got.Neighbors(d), want.neighbors(d); !slices.Equal(n, w) || (n == nil) != (w == nil) {
				t.Fatalf("roster %q: %q neighbours %q, reference %q", devices, d, n, w)
			}
		}
	})
}

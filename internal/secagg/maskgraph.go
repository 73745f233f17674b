package secagg

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// AutoDegree, as a mask-degree configuration value, selects
// DegreeFor(n) per round: the CCS'20 ⌈log₂ n⌉ regime, the sweet spot
// between mask cost (O(k·n·model) fleet-wide) and dropout tolerance
// (⌊(k−1)/2⌋ arbitrary dropouts per round, see Graph). It is the zero
// value, so a configuration that never mentions the degree gets it.
const AutoDegree = 0

// degreeFloor is the minimum automatic degree. ⌈log₂ n⌉ alone leaves
// small cohorts with almost no worst-case dropout tolerance (k = 4 at
// n = 16 tolerates a single arbitrary dropout), so the automatic
// degree never drops below 6 edges — any 2 arbitrary mid-round
// dropouts — before the complete-graph cap takes over. Deployments
// expecting heavier churn pin a larger degree (MaskDegree > 0).
const degreeFloor = 6

// DegreeFor returns the automatic mask degree for an n-member cohort:
// ⌈log₂ n⌉ rounded up to even (the graph is a circulant of ±offsets,
// so effective degrees are even until the complete-graph cap), floored
// at degreeFloor. At n = 1024 this is k = 10: any 4 concurrent
// dropouts are survivable in the worst case, and the random-dropout
// tolerance (≥ k/2+1 of k neighbours must fold) is far higher. The
// result may exceed n−1 for tiny cohorts; NewGraph caps it.
func DegreeFor(n int) int {
	if n < 2 {
		return 0
	}
	k := bits.Len(uint(n - 1)) // = ⌈log₂ n⌉
	k = (k + 1) / 2 * 2
	return max(k, degreeFloor)
}

// Graph is one round's deterministic masking graph: the cohort is
// shuffled onto a ring by a PRG seeded from (round, member names), and
// each member pairs with the k/2 members on either side. Server and
// every client derive the identical graph from the roster alone — no
// extra protocol messages.
//
// The offsets ±1..±h make this a Harary-style circulant: it is
// h-connected, and after removing any ⌊(k−1)/2⌋ = h−1 vertices every
// surviving vertex still has ≥ h+1 = Threshold surviving neighbours —
// exactly enough to reconstruct its Shamir-shared self-mask seed.
type Graph struct {
	ring
	devices []string // roster order
}

// NewGraph derives the round's masking graph over the cohort's device
// names. Duplicate names are rejected here (ErrDuplicateDevice) —
// before any mask is derived — because PairSign cannot orient a pair of
// equal names. degree ≤ 0 selects DegreeFor(len(devices)); any degree
// is capped at the complete graph.
func NewGraph(round int, devices []string, degree int) (*Graph, error) {
	size := 0
	for _, d := range devices {
		size += len(d)
	}
	g := &Graph{devices: slices.Clone(devices)}
	g.names = make([][]byte, len(devices))
	buf := make([]byte, 0, size)
	for i, d := range devices {
		buf = append(buf, d...)
		g.names[i] = buf[len(buf)-len(d):]
	}
	if err := g.derive(round, degree); err != nil {
		return nil, err
	}
	return g, nil
}

// ring is the one graph derivation, over a roster of names held as
// index permutations in slices its owner keeps: the server's Graph
// derives one per round, and a ClientSession re-derives into the same
// slices every round, so deriving allocates nothing that grows with the
// cohort once they have grown. Roster indices are sorted by name into
// ranks, and the ring is a permutation of ranks.
type ring struct {
	names  [][]byte // the roster, in roster order
	byName []int32  // rank → roster index: the roster in name order
	cycle  []int32  // ring position → rank
	pos    []int32  // rank → ring position
	half   int      // neighbours at circular distance 1..half
}

// derive (re)builds the ring over r.names for the round: a duplicate
// name fails with ErrDuplicateDevice; degree ≤ 0 selects DegreeFor(n),
// capped at the complete graph.
func (r *ring) derive(round, degree int) error {
	n := len(r.names)
	r.byName, r.cycle, r.pos = identity(r.byName, n), identity(r.cycle, n), resize(r.pos, n)
	slices.SortFunc(r.byName, func(a, b int32) int { return bytes.Compare(r.names[a], r.names[b]) })
	for i := 1; i < n; i++ {
		if d := r.names[r.byName[i]]; bytes.Equal(r.names[r.byName[i-1]], d) {
			return fmt.Errorf("%w: %q", ErrDuplicateDevice, d)
		}
	}
	if degree <= 0 {
		degree = DegreeFor(n)
	}
	r.half = (degree + 1) / 2
	if n > 0 && 2*r.half > n-1 {
		r.half = n / 2 // complete graph: circular distance ≤ ⌊n/2⌋ reaches everyone
	}

	// Seeded Fisher–Yates: the ring order is unpredictable without the
	// roster but identical for every party that has it.
	hsh := sha256.New()
	hsh.Write([]byte("secagg-mask-graph"))
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], uint64(round))
	hsh.Write(rb[:])
	for _, i := range r.byName {
		binary.BigEndian.PutUint64(rb[:], uint64(len(r.names[i])))
		hsh.Write(rb[:])
		hsh.Write(r.names[i])
	}
	var seed [32]byte
	hsh.Sum(seed[:0])
	prg := newPRG(seed)
	for i := n - 1; i > 0; i-- {
		j := int(prg.uint64() % uint64(i+1))
		r.cycle[i], r.cycle[j] = r.cycle[j], r.cycle[i]
	}
	for p, rank := range r.cycle {
		r.pos[rank] = int32(p)
	}
	return nil
}

// find returns a device's rank, or -1 outside the roster. Names are
// compared as string(name) operands, which the compiler does not copy.
func (r *ring) find(device string) int {
	rank, ok := slices.BinarySearchFunc(r.byName, device, func(i int32, d string) int {
		switch name := r.names[i]; {
		case string(name) < d:
			return -1
		case string(name) > d:
			return 1
		}
		return 0
	})
	if !ok {
		return -1
	}
	return rank
}

// neighbours appends the ranks of a member's masking partners to dst in
// ascending order — which is name order.
func (r *ring) neighbours(dst []int32, rank int) []int32 {
	n, i, from := len(r.cycle), int(r.pos[rank]), len(dst)
	for d := 1; d <= r.half; d++ {
		lo, hi := (i-d+n)%n, (i+d)%n
		dst = append(dst, r.cycle[hi])
		if lo != hi && lo != i {
			dst = append(dst, r.cycle[lo])
		}
	}
	slices.Sort(dst[from:])
	return dst
}

// name returns the roster name of a rank.
func (r *ring) name(rank int32) []byte { return r.names[r.byName[rank]] }

// identity returns buf resized to n and holding 0..n−1.
func identity(buf []int32, n int) []int32 {
	buf = resize(buf, n)
	for i := range buf {
		buf[i] = int32(i)
	}
	return buf
}

// resize returns buf with length n, reallocated only when it is too
// short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// prg draws deterministic uint64s from an AES-256-CTR keystream — the
// same primitive family the mask expansion uses (which keys AES-128
// for speed on its much larger volume), so graph derivation adds no
// new cryptographic assumptions.
type prg struct {
	stream cipher.Stream
	buf    [64]byte
	off    int
}

func newPRG(seed [32]byte) *prg {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic("secagg: AES key size invariant violated: " + err.Error())
	}
	var iv [aes.BlockSize]byte
	p := &prg{stream: cipher.NewCTR(block, iv[:])}
	p.off = len(p.buf)
	return p
}

func (p *prg) uint64() uint64 {
	if p.off == len(p.buf) {
		clear(p.buf[:])
		p.stream.XORKeyStream(p.buf[:], p.buf[:])
		p.off = 0
	}
	v := binary.LittleEndian.Uint64(p.buf[p.off:])
	p.off += 8
	return v
}

// Size returns the cohort size.
func (r *ring) Size() int { return len(r.names) }

// Degree returns the effective per-member degree: min(2·half, n−1).
func (r *ring) Degree() int {
	n := len(r.names)
	if n == 0 {
		return 0
	}
	return min(2*r.half, n-1)
}

// Threshold returns the Shamir threshold for self-mask seed shares:
// k/2 + 1 of the k neighbours must survive (and respond) to
// reconstruct a seed. 0 when the graph has no edges.
func (r *ring) Threshold() int {
	d := r.Degree()
	if d == 0 {
		return 0
	}
	return d/2 + 1
}

// Contains reports cohort membership.
func (g *Graph) Contains(device string) bool { return g.find(device) >= 0 }

// Neighbors returns a member's masking partners in sorted name order —
// the canonical order both sides use to assign Shamir share indices
// (ShareIndex). It returns nil for devices outside the cohort.
func (g *Graph) Neighbors(device string) []string {
	rank := g.find(device)
	if rank < 0 {
		return nil
	}
	var buf [16]int32
	ranks := g.neighbours(buf[:0], rank)
	out := make([]string, len(ranks))
	for i, r := range ranks {
		out[i] = g.devices[g.byName[r]]
	}
	return out
}

// ShareIndex returns the 1-based Shamir x-coordinate assigned to
// holder for owner's self-mask seed: holder's position in owner's
// sorted neighbour list. Both the owner (splitting) and the server
// (combining) derive it from the graph, so a share arriving with any
// other x is a protocol fault, not an interpolation surprise. Returns
// 0 when holder is not a neighbour of owner.
func (g *Graph) ShareIndex(owner, holder string) int {
	for i, d := range g.Neighbors(owner) {
		if d == holder {
			return i + 1
		}
	}
	return 0
}

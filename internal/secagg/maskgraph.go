package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
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
	ring []string       // shuffled cohort; neighbours are ring offsets
	pos  map[string]int // device → ring position
	half int            // neighbours at circular distance 1..half
}

// NewGraph derives the round's masking graph over the cohort's device
// names. Duplicate names are rejected here — before any mask is
// derived — because PairSign cannot orient a pair of equal names (see
// PairSign). degree ≤ 0 selects DegreeFor(len(devices)); any degree is
// capped at the complete graph.
func NewGraph(round int, devices []string, degree int) (*Graph, error) {
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
		h = n / 2 // complete graph: circular distance ≤ ⌊n/2⌋ reaches everyone
	}

	// Seeded Fisher–Yates: the ring order is unpredictable without the
	// roster but identical for every party that has it.
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
	return &Graph{ring: sorted, pos: pos, half: h}, nil
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
func (g *Graph) Size() int { return len(g.ring) }

// Degree returns the effective per-member degree: min(2·half, n−1).
func (g *Graph) Degree() int {
	n := len(g.ring)
	if n == 0 {
		return 0
	}
	return min(2*g.half, n-1)
}

// Threshold returns the Shamir threshold for self-mask seed shares:
// k/2 + 1 of the k neighbours must survive (and respond) to
// reconstruct a seed. 0 when the graph has no edges.
func (g *Graph) Threshold() int {
	d := g.Degree()
	if d == 0 {
		return 0
	}
	return d/2 + 1
}

// Contains reports cohort membership.
func (g *Graph) Contains(device string) bool {
	_, ok := g.pos[device]
	return ok
}

// Neighbors returns a member's masking partners in sorted name order —
// the canonical order both sides use to assign Shamir share indices
// (ShareIndex). It returns nil for devices outside the cohort.
func (g *Graph) Neighbors(device string) []string {
	i, ok := g.pos[device]
	if !ok {
		return nil
	}
	n := len(g.ring)
	out := make([]string, 0, g.Degree())
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

package secagg

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// Masking and reconciliation-role errors.
var (
	// ErrMaskDowngrade is returned when a cohort of two or more members is
	// announced with a mask degree below 1. Every multi-member round is
	// double-masked over a k-regular graph; a server asking for less is
	// asking for an update without its self mask — which revealed pair
	// seeds alone would strip — so the client refuses to mask at all.
	ErrMaskDowngrade = errors.New("secagg: mask degree below 1 for a multi-member cohort")
	// ErrRoleConflict is returned when the server asks this client to
	// treat one peer as both dropped (reveal the pair seed) and
	// surviving (reveal its self-seed share) in the same round. Honouring
	// both would hand the server everything it needs to unmask that
	// peer's late update — the exact hole double masking closes — so the
	// client refuses and the round fails instead.
	ErrRoleConflict = errors.New("secagg: peer claimed both dropped and surviving in one round")
	// ErrNoRoundState is returned when a reconciliation request arrives
	// for a round this client never masked an update for.
	ErrNoRoundState = errors.New("secagg: no masking state for round")
)

// ClientSession is the device side of the masking protocol for one FL
// session: it owns the mask keypair announced during the handshake and
// turns local updates into masked ring-level tensors.
type ClientSession struct {
	device    string
	key       *MaskKey
	scaleBits int

	// Per-round reconciliation state: the neighbours the update of round
	// was masked against, in name order, each with the role already
	// conceded for it. A peer may be treated as dropped or as surviving
	// in a round — never both (ErrRoleConflict). spare is the other
	// neighbour buffer: a round masks into it, and the two swap once the
	// round has masked.
	round  int
	masked bool
	neigh  []neighbour
	spare  []neighbour

	// The round's graph derivation and what it reads, re-derived every
	// round into the same slices: the roster's mask pubs (by roster
	// index) and the client's neighbour ranks. None of it outlives the
	// call.
	ring  ring
	pubs  [][]byte
	ranks []int32
	masks []SeedMask

	// levels are the buffers MaskedUpdateRoster quantises into, per position,
	// and scratch is its mask kernel's keystream chunk; both are reused
	// across rounds, a level buffer reallocated only when its shape
	// changes.
	levels  []*wire.U64Tensor
	scratch []byte
}

// neighbour is one graph neighbour of the round's masked update: what
// Reconcile needs of it.
type neighbour struct {
	device string
	pair   [32]byte // the session-long pair secret (MaskKey.pairSecret)
	role   int
}

const (
	roleDropped  = 1
	roleSurvivor = 2
)

// NewClientSession creates the masking state for one session. A nil
// maskSeed draws the keypair from crypto/rand; a non-nil seed derives
// it deterministically (simulations, tests). scaleBits ≤ 0 selects
// DefaultScaleBits.
func NewClientSession(device string, maskSeed []byte, scaleBits int) (*ClientSession, error) {
	var key *MaskKey
	var err error
	if maskSeed != nil {
		key, err = MaskKeyFromSeed(maskSeed)
	} else {
		key, err = NewMaskKey()
	}
	if err != nil {
		return nil, err
	}
	if scaleBits <= 0 {
		scaleBits = DefaultScaleBits
	}
	if scaleBits > MaxScaleBits {
		return nil, fmt.Errorf("secagg: scale bits %d exceed maximum %d", scaleBits, MaxScaleBits)
	}
	return &ClientSession{device: device, key: key, scaleBits: scaleBits}, nil
}

// MaskPub returns the mask public key for the Attest message.
func (s *ClientSession) MaskPub() []byte { return s.key.Public() }

// ScaleBits returns the session's fixed-point precision.
func (s *ClientSession) ScaleBits() int { return s.scaleBits }

// selfSeed derives the round-scoped double-masking self seed: secret
// (bound to the private mask key) but deterministic per round, so
// simulated sessions reproduce exactly.
func (s *ClientSession) selfSeed(round int) [32]byte {
	h := sha256.New()
	h.Write([]byte("secagg-self-seed"))
	h.Write(s.key.priv.Bytes())
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], uint64(round))
	h.Write(rb[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// MaskedUpdate is MaskedUpdateRoster over a cohort held as a []Peer
// slice, for callers that keep one (the benchmark's masking probe). It
// lays the cohort out as a roster on every call, O(n); a client masking
// each round passes the roster its ModelDown decoded to
// MaskedUpdateRoster instead.
func (s *ClientSession) MaskedUpdate(round int, cohort []Peer, degree int, upd []*tensor.Tensor, weight uint64) ([]*wire.U64Tensor, []WrappedShare, error) {
	var roster wire.Pairs
	for _, p := range cohort {
		roster.Append(p.Device, p.Pub)
	}
	return s.MaskedUpdateRoster(round, roster, degree, upd, weight)
}

// MaskedUpdateRoster quantises the update (nil entries mark protected
// positions travelling through the sealed path), multiplies by the
// client's FedAvg weight in the ring, and double-masks it. The roster
// is the cohort's (device, mask pub) pairs in their wire layout, as a
// decoded ModelDown carries it, read in place and only during the
// call. It must name this client exactly once and no name twice
// (ErrDuplicateDevice).
//
// The client masks against its neighbours in the round's k-regular
// graph (degree is the server-resolved graph degree, capped at the
// complete graph), adds the self-mask PRG(selfSeed), and returns the
// Shamir shares of that seed wrapped for each neighbour (threshold
// Graph.Threshold), which ride the MaskedUp upload. degree < 1 is only
// meaningful for a one-member cohort — no pairs, no self mask, no
// shares; for any larger cohort it is refused with ErrMaskDowngrade.
//
// The levels are quantised into buffers the session owns and reuses
// across rounds, and every mask lands on them in one kernel pass: the
// returned tensors are valid until the session's next masked update, so
// a caller encodes (or copies) them before masking another round. The
// graph is derived into slices the session reuses too, and only the
// client's k neighbours are kept for Reconcile: once warm, a round
// allocates nothing that grows with the cohort.
func (s *ClientSession) MaskedUpdateRoster(round int, roster wire.Pairs, degree int, upd []*tensor.Tensor, weight uint64) ([]*wire.U64Tensor, []WrappedShare, error) {
	if weight == 0 {
		return nil, nil, fmt.Errorf("secagg: zero update weight")
	}
	if degree < 1 && roster.N > 1 {
		return nil, nil, fmt.Errorf("%w: degree %d announced for %d members", ErrMaskDowngrade, degree, roster.N)
	}
	s.ring.names, s.pubs = resize(s.ring.names, roster.N), resize(s.pubs, roster.N)
	off := 0
	for i := range s.pubs {
		s.ring.names[i], s.pubs[i], off = roster.Next(off)
	}
	if err := s.ring.derive(round, degree); err != nil {
		return nil, nil, err
	}
	self := s.ring.find(s.device)
	if self < 0 {
		return nil, nil, fmt.Errorf("secagg: client %q is not in the cohort", s.device)
	}

	s.ranks = s.ring.neighbours(s.ranks[:0], self)
	next, masks := s.spare[:0], s.masks[:0]
	for _, rank := range s.ranks {
		d := string(s.ring.name(rank))
		pair, err := s.key.pairSecret(s.pubs[s.ring.byName[rank]])
		if err != nil {
			return nil, nil, fmt.Errorf("secagg: pairing with %s: %w", d, err)
		}
		next = append(next, neighbour{device: d, pair: pair})
		masks = append(masks, SeedMask{Seed: RoundSeed(pair, round), Sign: PairSign(s.device, d)})
	}

	var shares []WrappedShare
	if len(next) > 0 {
		// Double mask: the self-mask stays on the update until the server
		// reconstructs its seed from ≥ threshold neighbour shares — so a
		// straggler's masks can be reconciled without ever exposing a
		// folded update, and a late update stays masked by construction.
		seed := s.selfSeed(round)
		masks = append(masks, SeedMask{Seed: seed, Sign: 1})
		xs := make([]uint8, len(next))
		for i := range next {
			xs[i] = uint8(i + 1) // == Graph.ShareIndex(s.device, next[i].device)
		}
		split, err := SplitSeed(seed, xs, s.ring.Threshold(), s.device)
		if err != nil {
			return nil, nil, fmt.Errorf("secagg: sharing self seed: %w", err)
		}
		shares = make([]WrappedShare, len(next))
		for i, nb := range next {
			shares[i] = WrappedShare{To: nb.device, Blob: wrapShare(shareWrapKey(nb.pair, round, s.device), split[i])}
		}
	}

	out := make([]*wire.U64Tensor, len(upd))
	var active [][]uint64
	if len(s.levels) != len(upd) {
		s.levels = make([]*wire.U64Tensor, len(upd))
	}
	for i, t := range upd {
		if t == nil {
			continue
		}
		if s.levels[i] == nil || !slices.Equal(s.levels[i].Shape, t.Shape) {
			s.levels[i] = &wire.U64Tensor{Shape: slices.Clone(t.Shape), Levels: make([]uint64, len(t.Data))}
		}
		quantiseInto(s.levels[i].Levels, t.Data, ScaleFor(s.scaleBits), weight)
		out[i] = s.levels[i]
		active = append(active, out[i].Levels)
	}
	if s.scratch == nil {
		s.scratch = make([]byte, maskChunk)
	}
	applyMasks(masks, active, s.scratch)
	s.round, s.masked = round, true
	s.neigh, s.spare, s.masks = next, s.neigh, masks
	return out, shares, nil
}

// ReconAnswer is this client's reply to a reconciliation request: pair seeds for its dropped neighbours and unwrapped
// self-seed shares for its folded neighbours.
type ReconAnswer struct {
	Pairs []PairShare
	Seeds []SeedShare
}

// Reconcile answers a double-masking reconciliation request against
// the state MaskedUpdateRoster stored for the round. Per neighbour it
// concedes exactly one role, across every request of the round:
//
//   - dropped → reveal the pairwise round seed (the peer's update
//     never folded; its pair masks must come off the sum);
//   - surviving → unwrap and reveal the peer's self-seed share (its
//     update folded; its self-mask must come off the sum).
//
// A request naming a peer in both roles — or flipping a role conceded
// earlier in the round — fails with ErrRoleConflict: holding the pair
// seeds AND the self-seed shares for one peer is exactly what a
// malicious server needs to unmask that peer's late update. The
// client's own name is refused in either list: its pair seeds would
// unmask itself, and its self seed travels only as shares held by
// neighbours. Wrapped blobs that fail authentication are skipped (the
// server needs only Threshold of the k shares), never guessed at.
func (s *ClientSession) Reconcile(round int, dropped []string, survivors []SeedEnvelope) (*ReconAnswer, error) {
	if !s.masked || round != s.round {
		return nil, fmt.Errorf("%w %d", ErrNoRoundState, round)
	}
	ans := &ReconAnswer{}
	for _, d := range dropped {
		if d == s.device {
			return nil, fmt.Errorf("%w: asked to reveal own seed", ErrSelfInPairs)
		}
		nb := s.neighbour(d)
		if nb == nil {
			return nil, fmt.Errorf("%w: %q is not a mask neighbour", ErrNoPair, d)
		}
		if nb.role == roleSurvivor {
			return nil, fmt.Errorf("%w: %q", ErrRoleConflict, d)
		}
		nb.role = roleDropped
		ans.Pairs = append(ans.Pairs, PairShare{Device: d, Seed: RoundSeed(nb.pair, round)})
	}
	for _, env := range survivors {
		if env.Owner == s.device {
			return nil, fmt.Errorf("%w: asked to reveal own seed", ErrSelfInPairs)
		}
		nb := s.neighbour(env.Owner)
		if nb == nil {
			return nil, fmt.Errorf("%w: %q is not a mask neighbour", ErrNoPair, env.Owner)
		}
		if nb.role == roleDropped {
			return nil, fmt.Errorf("%w: %q", ErrRoleConflict, env.Owner)
		}
		nb.role = roleSurvivor
		sh, err := unwrapShare(shareWrapKey(nb.pair, round, env.Owner), env.Blob)
		if err != nil {
			continue // corrupt blob: withhold this share, not the round
		}
		ans.Seeds = append(ans.Seeds, SeedShare{Owner: env.Owner, X: sh.X, Data: sh.Data})
	}
	return ans, nil
}

// neighbour returns the masked round's neighbour named device, nil for
// any other peer.
func (s *ClientSession) neighbour(device string) *neighbour {
	i, ok := slices.BinarySearchFunc(s.neigh, device, func(nb neighbour, d string) int { return strings.Compare(nb.device, d) })
	if !ok {
		return nil
	}
	return &s.neigh[i]
}

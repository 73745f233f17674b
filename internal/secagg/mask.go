package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Masking errors.
var (
	ErrNoPair      = errors.New("secagg: peer not in cohort")
	ErrBadMaskKey  = errors.New("secagg: bad mask key material")
	ErrSelfInPairs = errors.New("secagg: cohort pairs a client with itself")
	// ErrDuplicateDevice is returned for a roster that names one device
	// twice, by the graph derivation both the server and every client
	// run, before any mask is derived (see PairSign).
	ErrDuplicateDevice = errors.New("secagg: duplicate device in cohort")
)

// Peer is one cohort member's masking identity, distributed to the
// whole cohort by the server with each round's model: the device name
// and the mask public key it presented during the attestation
// handshake.
type Peer struct {
	Device string
	Pub    []byte
}

// MaskKey is a client's per-session X25519 keypair for pairwise mask
// agreement. The public half rides the Attest message; the private half
// never leaves the client.
type MaskKey struct {
	priv *ecdh.PrivateKey

	// pairs memoises pairSecret by peer public key. The secret is
	// session-long and X25519 is deterministic, so the first derivation
	// per peer is authoritative; without the cache a k-regular round
	// pays up to three ECDH per edge (mask, share wrap, reconcile) and
	// the scalar multiplications dominate the round at fleet scale.
	mu    sync.Mutex
	pairs map[string][32]byte
}

// NewMaskKey generates a mask keypair from crypto/rand.
func NewMaskKey() (*MaskKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("secagg: generating mask key: %w", err)
	}
	return &MaskKey{priv: priv}, nil
}

// MaskKeyFromSeed derives a deterministic mask keypair from arbitrary
// seed bytes — used by simulations and tests that need reproducible
// handshakes. Production clients use NewMaskKey.
func MaskKeyFromSeed(seed []byte) (*MaskKey, error) {
	sum := sha256.Sum256(append([]byte("secagg-mask-key:"), seed...))
	priv, err := ecdh.X25519().NewPrivateKey(sum[:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMaskKey, err)
	}
	return &MaskKey{priv: priv}, nil
}

// Public returns the key's public half for the Attest message.
func (k *MaskKey) Public() []byte { return k.priv.PublicKey().Bytes() }

// ValidateMaskPub checks that pub parses as an X25519 public key. The
// server runs this at selection: one client presenting a garbage key
// would otherwise be admitted into the roster and abort every honest
// peer's masking instead of only itself.
func ValidateMaskPub(pub []byte) error {
	if _, err := ecdh.X25519().NewPublicKey(pub); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMaskKey, err)
	}
	return nil
}

// pairSecret computes the session-long shared secret with a peer's
// mask public key, memoised per peer for the life of the key. Both
// orders of the pair derive the same secret (X25519 commutativity).
func (k *MaskKey) pairSecret(peerPub []byte) ([32]byte, error) {
	k.mu.Lock()
	cached, ok := k.pairs[string(peerPub)]
	k.mu.Unlock()
	if ok {
		return cached, nil
	}
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return [32]byte{}, fmt.Errorf("%w: %v", ErrBadMaskKey, err)
	}
	shared, err := k.priv.ECDH(pub)
	if err != nil {
		return [32]byte{}, fmt.Errorf("secagg: pair ECDH: %w", err)
	}
	h := sha256.New()
	h.Write([]byte("secagg-pair-secret"))
	h.Write(shared)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	k.mu.Lock()
	if k.pairs == nil {
		k.pairs = make(map[string][32]byte)
	}
	k.pairs[string(peerPub)] = out
	k.mu.Unlock()
	return out, nil
}

// AggQuoteNonce derives the nonce an aggregation-enclave quote must
// cover: the challenge nonce bound to the offered trusted-channel
// public key. Without the binding a quote would only prove the enclave
// exists — a dishonest server could attest the enclave while offering
// its own channel key and unseal protected updates itself.
func AggQuoteNonce(nonce, serverPub []byte) []byte {
	h := sha256.New()
	h.Write([]byte("secagg-agg-quote"))
	h.Write(nonce)
	h.Write([]byte{0})
	h.Write(serverPub)
	return h.Sum(nil)
}

// RoundSeed narrows a session-long pair secret to one round. Only the
// round seed is ever revealed during reconciliation, so a revealed
// seed unmasks nothing in any other round.
func RoundSeed(pair [32]byte, round int) [32]byte {
	h := sha256.New()
	h.Write([]byte("secagg-round-seed"))
	h.Write(pair[:])
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], uint64(round))
	h.Write(rb[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// PairSign orients a pair's mask: the lexicographically smaller device
// adds the expansion, the larger subtracts it, so the pair contributes
// net zero to the cohort sum. self == peer is not a pair — two equal
// names would derive identical seeds with symmetric signs and nothing
// would cancel — so the tie returns 0, which no masking path accepts.
// Every caller rejects duplicate device names before deriving masks:
// the server at selection (fl.Server.Open), and the graph derivation
// on the roster it is handed (ErrDuplicateDevice).
func PairSign(self, peer string) int {
	switch {
	case self < peer:
		return 1
	case self > peer:
		return -1
	}
	return 0
}

// maskCipher keys the mask-expansion PRG from a round seed: AES-128
// over the seed's first half. A 128-bit PRG key is the standard
// secure-aggregation choice (Bonawitz et al., CCS'17, expand with
// AES-128), and the four fewer AES rounds versus AES-256 shave ~30%
// off the fleet's keystream wall — the dominant masking cost. The
// discarded half keeps round seeds 32 bytes on the wire and in the
// Shamir layer, so only the expansion is affected.
func maskCipher(seed [32]byte) cipher.Block {
	block, err := aes.NewCipher(seed[:16])
	if err != nil {
		panic("secagg: AES key size invariant violated: " + err.Error())
	}
	return block
}

// MaskLevels expands a round seed into mask level tensors of the given
// sizes using AES-CTR as the PRG (see maskCipher). The expansion is
// deterministic in (seed, sizes), so the masker and a reconciling
// server derive the same stream.
func MaskLevels(seed [32]byte, sizes []int) [][]uint64 {
	block := maskCipher(seed)
	var iv [aes.BlockSize]byte
	stream := cipher.NewCTR(block, iv[:])
	out := make([][]uint64, len(sizes))
	for i, n := range sizes {
		buf := make([]byte, 8*n)
		stream.XORKeyStream(buf, buf)
		levels := make([]uint64, n)
		for j := range levels {
			levels[j] = binary.LittleEndian.Uint64(buf[8*j:])
		}
		out[i] = levels
	}
	return out
}

// maskChunk sizes the mask kernel's keystream scratch (bytes): large
// enough that per-call CTR setup is noise, small enough that the
// scratch, the zero source and the destination chunk stay
// cache-resident while every seed's keystream lands on it.
const maskChunk = 1 << 16

// zeroChunk is the shared all-zero keystream source: XORKeyStream over
// a zero source writes the raw keystream into the scratch buffer, so
// the kernel never has to re-clear it. The buffer is read-only by
// contract — nothing may write through it.
var zeroChunk [maskChunk]byte

// SeedMask is one term of a mask application: the PRG expansion of
// Seed, added to the levels (Sign ≥ 0) or subtracted from them.
type SeedMask struct {
	Seed [32]byte
	Sign int
}

// applyMasks adds Σ ±PRG(seed) over the destination vectors, read as
// one concatenated vector, without materialising any expansion. It opens
// one AES-CTR stream per seed and walks the destinations chunk by chunk;
// for each chunk every stream writes its next keystream into scratch and
// the kernel adds or subtracts it while the chunk is still in cache.
// The scratch holds maskChunk bytes and belongs to the caller, who keeps
// it across calls: it escapes through cipher.Stream, so a per-call
// buffer would be a fresh heap allocation every time. Each stream is
// consumed in order, exactly as MaskLevels consumes it, so the result is
// word for word the sum of the seeds' ±MaskLevels expansions — the
// client masks and the reconciling server unmasks with this one kernel,
// and the two cancel.
func applyMasks(masks []SeedMask, dsts [][]uint64, scratch []byte) {
	var iv [aes.BlockSize]byte
	streams := make([]cipher.Stream, len(masks))
	for k, m := range masks {
		streams[k] = cipher.NewCTR(maskCipher(m.Seed), iv[:])
	}
	for _, dst := range dsts {
		for off := 0; off < len(dst); {
			n := min(len(dst)-off, maskChunk/8)
			d, ks := dst[off:off+n], scratch[:8*n]
			for k, stream := range streams {
				stream.XORKeyStream(ks, zeroChunk[:8*n])
				if masks[k].Sign >= 0 {
					addWords(d, ks)
				} else {
					subWords(d, ks)
				}
			}
			off += n
		}
	}
}

// addWords adds the little-endian words of ks to d, word i to d[i], in
// ℤ/2⁶⁴. The loop is unrolled eight words wide: a word-at-a-time loop
// measured about three times slower, as slow as the AES-CTR keystream
// it consumes.
func addWords(d []uint64, ks []byte) {
	for len(d) >= 8 && len(ks) >= 64 {
		d[0] += binary.LittleEndian.Uint64(ks[0:8])
		d[1] += binary.LittleEndian.Uint64(ks[8:16])
		d[2] += binary.LittleEndian.Uint64(ks[16:24])
		d[3] += binary.LittleEndian.Uint64(ks[24:32])
		d[4] += binary.LittleEndian.Uint64(ks[32:40])
		d[5] += binary.LittleEndian.Uint64(ks[40:48])
		d[6] += binary.LittleEndian.Uint64(ks[48:56])
		d[7] += binary.LittleEndian.Uint64(ks[56:64])
		d, ks = d[8:], ks[64:]
	}
	for i := range d {
		d[i] += binary.LittleEndian.Uint64(ks[8*i:])
	}
}

// subWords is addWords subtracting.
func subWords(d []uint64, ks []byte) {
	for len(d) >= 8 && len(ks) >= 64 {
		d[0] -= binary.LittleEndian.Uint64(ks[0:8])
		d[1] -= binary.LittleEndian.Uint64(ks[8:16])
		d[2] -= binary.LittleEndian.Uint64(ks[16:24])
		d[3] -= binary.LittleEndian.Uint64(ks[24:32])
		d[4] -= binary.LittleEndian.Uint64(ks[32:40])
		d[5] -= binary.LittleEndian.Uint64(ks[40:48])
		d[6] -= binary.LittleEndian.Uint64(ks[48:56])
		d[7] -= binary.LittleEndian.Uint64(ks[56:64])
		d, ks = d[8:], ks[64:]
	}
	for i := range d {
		d[i] -= binary.LittleEndian.Uint64(ks[8*i:])
	}
}

// PairShare is one revealed round seed during reconciliation: the
// dropped peer's device name and the survivor's round seed with it.
type PairShare struct {
	Device string
	Seed   [32]byte
}

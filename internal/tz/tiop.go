package tz

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Trusted I/O path (§7.3 of the paper): protected layer weights arrive
// from the FL server and protected gradients leave the device through a
// channel whose plaintext is never visible to the normal world. We model
// it as an X25519-agreed, AES-256-GCM-sealed, replay-protected channel
// between the FL server and the TA. Normal-world code relays only
// ciphertext.

// TIOP errors.
var (
	ErrChannelReplay = errors.New("tz: trusted channel replay or reordering detected")
	ErrChannelAuth   = errors.New("tz: trusted channel authentication failed")
)

// nonceSize is the AES-GCM nonce length; a nonce ends in the sequence number.
const nonceSize = 12

// Channel is one endpoint of an established trusted I/O path.
type Channel struct {
	mu      sync.Mutex
	send    cipher.AEAD
	recv    cipher.AEAD
	sendSeq uint64
	recvSeq uint64
}

// ChannelOffer is the public handshake half: an ephemeral X25519 public key.
type ChannelOffer struct {
	Public []byte
	priv   *ecdh.PrivateKey
}

// NewChannelOffer generates an ephemeral keypair for the handshake.
func NewChannelOffer() (*ChannelOffer, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("tz: generating channel key: %w", err)
	}
	return &ChannelOffer{Public: priv.PublicKey().Bytes(), priv: priv}, nil
}

// Establish completes the handshake against the peer's public key.
// initiator must differ between the two sides so the directional keys
// line up.
func (o *ChannelOffer) Establish(peerPublic []byte, initiator bool) (*Channel, error) {
	peer, err := ecdh.X25519().NewPublicKey(peerPublic)
	if err != nil {
		return nil, fmt.Errorf("tz: bad peer public key: %w", err)
	}
	shared, err := o.priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("tz: ECDH: %w", err)
	}
	a2b, b2a := gcm(deriveKey(shared, "tiop-a2b")), gcm(deriveKey(shared, "tiop-b2a"))
	if initiator {
		return &Channel{send: a2b, recv: b2a}, nil
	}
	return &Channel{send: b2a, recv: a2b}, nil
}

// EstablishPair returns two connected channel endpoints directly (for
// in-process use and tests).
func EstablishPair() (initiator, responder *Channel, err error) {
	a, err := NewChannelOffer()
	if err != nil {
		return nil, nil, err
	}
	b, err := NewChannelOffer()
	if err != nil {
		return nil, nil, err
	}
	initiator, err = a.Establish(b.Public, true)
	if err != nil {
		return nil, nil, err
	}
	responder, err = b.Establish(a.Public, false)
	if err != nil {
		return nil, nil, err
	}
	return initiator, responder, nil
}

// Seal encrypts and authenticates plaintext with the next send sequence
// number. Output layout: seq(8) | ct.
func (c *Channel) Seal(plaintext []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := c.sendSeq
	c.sendSeq++
	nonce := make([]byte, nonceSize)
	binary.BigEndian.PutUint64(nonce[nonceSize-8:], seq)
	ct := c.send.Seal(nil, nonce, plaintext, nonce[nonceSize-8:])
	out := make([]byte, 8+len(ct))
	binary.BigEndian.PutUint64(out[:8], seq)
	copy(out[8:], ct)
	return out
}

// Open authenticates and decrypts a sealed message, enforcing strictly
// increasing sequence numbers (replay protection).
func (c *Channel) Open(sealed []byte) ([]byte, error) {
	if len(sealed) < 8 {
		return nil, fmt.Errorf("%w: short message", ErrChannelAuth)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := binary.BigEndian.Uint64(sealed[:8])
	if seq < c.recvSeq {
		return nil, fmt.Errorf("%w: seq %d after %d", ErrChannelReplay, seq, c.recvSeq)
	}
	nonce := make([]byte, nonceSize)
	binary.BigEndian.PutUint64(nonce[nonceSize-8:], seq)
	pt, err := c.recv.Open(nil, nonce, sealed[8:], sealed[:8])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChannelAuth, err)
	}
	c.recvSeq = seq + 1
	return pt, nil
}

// deriveKey is an HKDF-style expand: HMAC-SHA256(parent, label || 0).
func deriveKey(parent []byte, label string) [32]byte {
	mac := hmac.New(sha256.New, parent)
	mac.Write([]byte(label))
	mac.Write([]byte{0})
	return [32]byte(mac.Sum(nil))
}

// gcm returns AES-256-GCM under key; a 32-byte key cannot fail.
func gcm(key [32]byte) cipher.AEAD {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return aead
}

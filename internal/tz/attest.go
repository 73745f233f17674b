package tz

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
)

// Remote attestation (§7.3): TrustZone lacks native attestation, so the
// paper points to TPM-backed or WaTZ-style schemes. We model the common
// core — a per-device root key measuring TA identity, producing a quote a
// verifier with the registered device key can check. The FL server uses
// this during client selection (Fig. 2 step 1) to reject clients whose
// TEE or TA is not genuine.

// Attestation errors.
var (
	ErrUnknownDevice    = errors.New("tz: attestation from unknown device")
	ErrBadQuote         = errors.New("tz: attestation quote failed verification")
	ErrUntrustedMeasure = errors.New("tz: TA measurement not in verifier policy")
	ErrNonceMismatch    = errors.New("tz: attestation nonce mismatch")
)

// Identity is a device's attestation root: an ID and a symmetric root key
// (standing in for a fused endorsement key).
type Identity struct {
	id  string
	key [32]byte
}

// NewIdentity derives a deterministic identity for the named device.
func NewIdentity(name string) *Identity {
	return &Identity{id: name, key: sha256.Sum256([]byte("device-root-key:" + name))}
}

// ID returns the device identifier.
func (i *Identity) ID() string { return i.id }

// RootKey returns the device root key for verifier registration
// (provisioning step — in real deployments this happens at manufacture).
func (i *Identity) RootKey() [32]byte { return i.key }

// Measure computes the TA measurement: a hash over its code identity
// (UUID and version stand in for the binary hash).
func Measure(app TrustedApp) [32]byte {
	h := sha256.New()
	u := app.UUID()
	h.Write(u[:])
	h.Write([]byte{0})
	h.Write([]byte(app.Version()))
	return [32]byte(h.Sum(nil))
}

// Quote is a signed attestation statement.
type Quote struct {
	DeviceID    string
	Measurement [32]byte
	Nonce       []byte
	MAC         []byte
}

// Attest produces a quote binding the measurement to the verifier nonce.
func (i *Identity) Attest(measurement [32]byte, nonce []byte) Quote {
	return Quote{
		DeviceID:    i.id,
		Measurement: measurement,
		Nonce:       append([]byte(nil), nonce...),
		MAC:         quoteMAC(i.key, measurement, nonce),
	}
}

func quoteMAC(key [32]byte, measurement [32]byte, nonce []byte) []byte {
	mac := hmac.New(sha256.New, key[:])
	mac.Write(measurement[:])
	mac.Write([]byte{0})
	mac.Write(nonce)
	return mac.Sum(nil)
}

// Verifier checks quotes against registered device keys and a policy of
// acceptable TA measurements.
type Verifier struct {
	devices  map[string][32]byte
	measures map[[32]byte]bool
}

// NewVerifier returns an empty verifier.
func NewVerifier() *Verifier {
	return &Verifier{devices: make(map[string][32]byte), measures: make(map[[32]byte]bool)}
}

// RegisterDevice provisions a device root key.
func (v *Verifier) RegisterDevice(id string, key [32]byte) { v.devices[id] = key }

// AllowMeasurement whitelists a TA measurement.
func (v *Verifier) AllowMeasurement(m [32]byte) { v.measures[m] = true }

// Verify checks the quote's MAC, nonce freshness and measurement policy.
func (v *Verifier) Verify(q Quote, nonce []byte) error {
	key, ok := v.devices[q.DeviceID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDevice, q.DeviceID)
	}
	if !bytes.Equal(q.Nonce, nonce) {
		return ErrNonceMismatch
	}
	if !hmac.Equal(q.MAC, quoteMAC(key, q.Measurement, nonce)) {
		return ErrBadQuote
	}
	if !v.measures[q.Measurement] {
		return fmt.Errorf("%w: %x", ErrUntrustedMeasure, q.Measurement[:8])
	}
	return nil
}

// Package tz is a software simulator of ARM TrustZone as exposed by the
// OP-TEE trusted OS — the substrate the paper's GradSec prototype runs
// on. It models:
//
//   - the two execution worlds and the secure-monitor call (SMC) that
//     switches between them, with per-switch cost charged to a virtual
//     clock;
//   - a capacity-limited secure-memory allocator (TrustZone secure RAM is
//     typically 3–5 MB);
//   - a GlobalPlatform-style trusted-application (TA) framework with
//     install / open-session / invoke-command / close-session lifecycle;
//   - a trusted I/O path (authenticated encrypted channel between the FL
//     server and a TA); and
//   - HMAC-based remote attestation.
//
// The security property everything else relies on is the information-flow
// boundary: normal-world code must never observe secure-world data. The
// simulator enforces it at the API boundary — TA invocation responses are
// screened against the secure-memory registry, and violations panic.
package tz

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
)

// UUID identifies a trusted application, GlobalPlatform style.
type UUID [16]byte

// NameUUID derives a deterministic UUID from a human-readable name.
func NameUUID(name string) UUID {
	var u UUID
	sum := sha256.Sum256([]byte("gradsec-ta:" + name))
	copy(u[:], sum[:16])
	return u
}

func (u UUID) String() string { return hex.EncodeToString(u[:]) }

// TrustedApp is the interface trusted applications implement. All methods
// execute logically in the secure world; the device charges world-switch
// and secure-compute costs around them.
type TrustedApp interface {
	// UUID returns the application identity.
	UUID() UUID
	// Version participates in the attestation measurement.
	Version() string
	// OpenSession creates per-session state.
	OpenSession(env *TAEnv) (state any, err error)
	// Invoke executes a command against session state. The returned value
	// must not reference secure memory; the device enforces this.
	Invoke(env *TAEnv, state any, cmd uint32, req any) (resp any, err error)
	// CloseSession releases per-session state.
	CloseSession(env *TAEnv, state any)
}

// TAEnv is the secure-world environment handed to TA callbacks, the
// equivalent of the GP TEE Internal API.
type TAEnv struct {
	// Mem is the secure-memory allocator.
	Mem *SecureAllocator
	// Clock is the device's virtual clock; TAs charge their own compute.
	Clock *simclock.Clock
	// Cost is the device cost model.
	Cost simclock.CostModel
}

// Errors returned by the device and its subsystems.
var (
	ErrUnknownTA        = errors.New("tz: no such trusted application")
	ErrSessionClosed    = errors.New("tz: session closed")
	ErrAlreadyInstalled = errors.New("tz: trusted application already installed")
)

// DeviceOption configures NewDevice.
type DeviceOption func(*Device)

// WithSecureMemory overrides the secure memory capacity in bytes.
func WithSecureMemory(capBytes int) DeviceOption {
	return func(d *Device) { d.mem = NewSecureAllocator(capBytes) }
}

// DefaultSecureMemory is the default enclave capacity: the paper cites
// 3–5 MB of TrustZone secure memory; we default to 4 MiB.
const DefaultSecureMemory = 4 << 20

// Device models one TrustZone-capable client device: both worlds, the
// secure monitor, the trusted OS with its installed TAs, secure memory,
// and a per-device identity for attestation.
type Device struct {
	mu sync.Mutex

	clock *simclock.Clock
	cost  simclock.CostModel
	mem   *SecureAllocator
	ident *Identity

	apps     map[UUID]TrustedApp
	smcCount int64
	nextSess int
	openSess map[int]*Session
}

// NewDevice creates a device with the Pi-3B+ cost model and 4 MiB of
// secure memory, unless overridden.
func NewDevice(name string, opts ...DeviceOption) *Device {
	d := &Device{
		clock:    &simclock.Clock{},
		cost:     simclock.Pi3B(),
		mem:      NewSecureAllocator(DefaultSecureMemory),
		apps:     make(map[UUID]TrustedApp),
		openSess: make(map[int]*Session),
	}
	d.ident = NewIdentity(name)
	for _, o := range opts {
		o(d)
	}
	return d
}

// Clock returns the device's virtual clock.
func (d *Device) Clock() *simclock.Clock { return d.clock }

// Cost returns the device's cost model.
func (d *Device) Cost() simclock.CostModel { return d.cost }

// SecureMemory returns the secure allocator (for accounting/tests; normal
// world cannot read region contents through it).
func (d *Device) SecureMemory() *SecureAllocator { return d.mem }

// Identity returns the device's attestation identity.
func (d *Device) Identity() *Identity { return d.ident }

// SMCCount reports how many world switches have occurred.
func (d *Device) SMCCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.smcCount
}

// Install registers a trusted application with the trusted OS.
func (d *Device) Install(app TrustedApp) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.apps[app.UUID()]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyInstalled, app.UUID())
	}
	d.apps[app.UUID()] = app
	return nil
}

// Measurement returns the attestation measurement of an installed TA, or
// an error if it is not installed.
func (d *Device) Measurement(uuid UUID) ([32]byte, error) {
	d.mu.Lock()
	app, ok := d.apps[uuid]
	d.mu.Unlock()
	if !ok {
		return [32]byte{}, fmt.Errorf("%w: %s", ErrUnknownTA, uuid)
	}
	return Measure(app), nil
}

// Attest produces an attestation quote over the given TA for a
// verifier-chosen nonce.
func (d *Device) Attest(uuid UUID, nonce []byte) (Quote, error) {
	m, err := d.Measurement(uuid)
	if err != nil {
		return Quote{}, err
	}
	return d.ident.Attest(m, nonce), nil
}

// smc models one secure-monitor world transition.
func (d *Device) smc() {
	d.mu.Lock()
	d.smcCount++
	d.mu.Unlock()
	d.clock.ChargeKernel(d.cost.WorldSwitch)
}

// env builds the secure-world environment for a TA.
func (d *Device) env() *TAEnv {
	return &TAEnv{
		Mem:   d.mem,
		Clock: d.clock,
		Cost:  d.cost,
	}
}

// Session is an open client session with a TA, the normal-world handle of
// the GP TEE Client API.
type Session struct {
	dev    *Device
	app    TrustedApp
	env    *TAEnv
	state  any
	id     int
	closed bool
}

// OpenSession opens a session with the TA identified by uuid, crossing
// into the secure world.
func (d *Device) OpenSession(uuid UUID) (*Session, error) {
	d.mu.Lock()
	app, ok := d.apps[uuid]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTA, uuid)
	}
	d.smc() // enter secure world
	env := d.env()
	state, err := app.OpenSession(env)
	d.smc() // return to normal world
	if err != nil {
		return nil, fmt.Errorf("tz: open session with %s: %w", uuid, err)
	}
	d.mu.Lock()
	d.nextSess++
	s := &Session{dev: d, app: app, env: env, state: state, id: d.nextSess}
	d.openSess[s.id] = s
	d.mu.Unlock()
	return s, nil
}

// Invoke executes one TA command. The request crosses into the secure
// world and the response crosses back; the response is screened against
// the secure-memory registry to enforce the isolation boundary.
func (s *Session) Invoke(cmd uint32, req any) (any, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.dev.smc()
	resp, err := s.app.Invoke(s.env, s.state, cmd, req)
	s.dev.smc()
	if err != nil {
		return nil, err
	}
	if leaked := s.dev.mem.scanForSecureRefs(resp); leaked != "" {
		panic(fmt.Sprintf("tz: TA %s leaked secure region %q across the world boundary", s.app.UUID(), leaked))
	}
	return resp, nil
}

// Close terminates the session.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.dev.smc()
	s.app.CloseSession(s.env, s.state)
	s.dev.smc()
	s.dev.mu.Lock()
	delete(s.dev.openSess, s.id)
	s.dev.mu.Unlock()
}

// TensorCarrier is implemented by TA response types that wrap tensors, so
// that the boundary screen sees the tensors inside them.
type TensorCarrier interface {
	Tensors() []*tensor.Tensor
}

// scanForSecureRefs walks common response container shapes looking for
// registered secure tensors. It intentionally covers the shapes used at
// the GradSec TA boundary (tensors, slices and maps of tensors, and
// response structs that declare theirs as a TensorCarrier).
func (a *SecureAllocator) scanForSecureRefs(v any) string {
	switch t := v.(type) {
	case nil:
		return ""
	case TensorCarrier:
		return a.scanForSecureRefs(t.Tensors())
	case *tensor.Tensor:
		return a.secureTensorName(t)
	case []*tensor.Tensor:
		for _, x := range t {
			if n := a.secureTensorName(x); n != "" {
				return n
			}
		}
	case [][]*tensor.Tensor:
		for _, xs := range t {
			for _, x := range xs {
				if n := a.secureTensorName(x); n != "" {
					return n
				}
			}
		}
	case map[string]*tensor.Tensor:
		for _, x := range t {
			if n := a.secureTensorName(x); n != "" {
				return n
			}
		}
	}
	return ""
}

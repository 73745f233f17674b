package fl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gradsec/gradsec/internal/wire"
)

// Conn is a bidirectional, message-oriented connection between an FL
// server and one client. Send and SendFrame are safe for concurrent use;
// Recv must be called from a single goroutine at a time.
type Conn interface {
	// Send transmits one message, encoding tensors with the connection's
	// negotiated codec.
	Send(m Message) error
	// SendFrame transmits a message payload that was already encoded
	// (with EncodeMessageCodec and this connection's codec). The payload
	// is not copied: broadcast senders share one buffer across many
	// connections, and an in-memory receiver reads its tensors through
	// views into that very buffer, which — unlike a Send frame — carries
	// no lease and is never released by the receiver. The sender must not
	// mutate it until every receiver is done with it: the server reuses a
	// round's shared frame only once every peer it reached has answered
	// (docs/WIRE.md, rule 6).
	SendFrame(mt MsgType, payload []byte) error
	// Recv blocks for the next message. It returns io.EOF after the peer
	// closes. A frame that arrives intact but fails to decode is
	// reported wrapped in ErrDecode; the stream's length-prefixed
	// framing survives such a failure, so Recv may be called again.
	Recv() (Message, error)
	// SetCodec installs the tensor codec negotiated during the handshake
	// for all subsequent Send/SendFrame/Recv. Connections start at the
	// uncompressed CodecF64. Equivalent to SetSendCodec + SetRecvCodec.
	SetCodec(c wire.Codec)
	// SetSendCodec switches only the encoding codec for subsequent
	// Send/SendFrame calls, leaving Recv untouched. An adaptive server
	// flips its send side the moment it issues a CodecSwitch…
	SetSendCodec(c wire.Codec)
	// SetRecvCodec switches only the decoding codec for subsequent Recv
	// calls. …and flips its receive side only when the client's
	// CodecSwitch ack arrives, so in-flight frames encoded under the old
	// codec still decode correctly (see the CodecSwitch ordering rule in
	// messages.go).
	SetRecvCodec(c wire.Codec)
	// Close releases the connection; it is safe to call twice.
	Close() error
}

// DeadlineConn is implemented by connections with enforceable per-
// operation I/O deadlines (the TCP transport). A read timeout bounds
// each Recv, a write timeout each Send/SendFrame; 0 disables either.
type DeadlineConn interface {
	Conn
	SetReadTimeout(d time.Duration)
	SetWriteTimeout(d time.Duration)
}

// ErrConnClosed is returned by Send after Close.
var ErrConnClosed = errors.New("fl: connection closed")

// ErrDecode marks a Recv failure where the frame arrived intact but its
// payload would not decode (codec mismatch, malformed message). Unlike
// transport errors the connection is still usable — framing is length-
// prefixed — so the engine treats these as client protocol faults
// (probationable) rather than a lost transport (permanent).
var ErrDecode = errors.New("fl: frame decode failed")

// meteredConn is the optional interface transports implement to accept
// a wire.Meter for byte/frame accounting. Meters attach per connection
// but are typically shared session-wide.
type meteredConn interface {
	setMeter(m *wire.Meter)
}

// SetMeter attaches a traffic meter to a connection. Transports that do
// not support metering (external Conn implementations, recovery
// placeholders) silently ignore it — metering is observability, never a
// protocol requirement. A nil meter detaches.
func SetMeter(c Conn, m *wire.Meter) {
	if mc, ok := c.(meteredConn); ok {
		mc.setMeter(m)
	}
}

// decodeFrame decodes one received frame, tagging failures with
// ErrDecode so callers can distinguish a poisoned payload from a dead
// transport.
func decodeFrame(mt MsgType, payload []byte, codec wire.Codec) (Message, error) {
	m, err := DecodeMessageCodec(mt, payload, codec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return m, nil
}

// maxReadScratch caps the frame buffer a connection keeps for its next
// frame (larger payloads are read fine, just not kept).
const maxReadScratch = 8 << 20

// A received frame's buffer is leased to the message decoded from it
// when the message references it (GradUp, ModelDown, MaskedUp,
// PartialUp); the engine releases it — the server in handleArrival, a
// client after adopt — and the buffer goes back through the frameSlot of
// the side that fills the next frame: a pipe's sending end, a TCP conn's
// read scratch (docs/WIRE.md, rule 6).

// frameSlot holds at most one spare frame buffer, handed from the
// goroutine that releases a frame to the one that fills the next.
type frameSlot chan []byte

func newFrameSlot() frameSlot { return make(frameSlot, 1) }

// take returns the spare buffer, nil when there is none.
func (s frameSlot) take() []byte {
	select {
	case b := <-s:
		return b
	default:
		return nil
	}
}

// put offers a released buffer as the spare: kept unless a spare is
// already there or it is larger than maxReadScratch.
func (s frameSlot) put(b []byte) {
	if poisonFrames {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xFF
		}
	}
	if cap(b) > maxReadScratch {
		return
	}
	select {
	case s <- b:
	default:
	}
}

// poisonFrames is a test seam: when set (only ever from _test.go files),
// every released frame is overwritten with 0xFF bytes before it can be
// reused, so a view read after its release reads NaNs, all-ones words
// and garbage lengths at once instead of whatever the next frame put
// there, whenever it gets there.
var poisonFrames bool

// leased is embedded in every message decoded into views: the frame they
// alias and the slot it returns to, both nil on a message built in memory
// or read from a shared frame.
type leased struct {
	frame []byte
	home  *frameSlot
}

func (l *leased) attach(frame []byte, home *frameSlot) { l.frame, l.home = frame, home }

// release hands the frame back; the message's views are dead from here.
// Releasing twice, or a message without a lease, does nothing.
func (l *leased) release() {
	if l.home != nil {
		l.home.put(l.frame)
		l.frame, l.home = nil, nil
	}
}

// lend attaches a received frame to the message decoded from it — or,
// when the message holds nothing of the frame (or did not decode),
// returns it to home straight away.
func lend(msg Message, frame []byte, home *frameSlot) {
	if m, ok := msg.(interface{ attach([]byte, *frameSlot) }); ok {
		m.attach(frame, home)
		return
	}
	home.put(frame)
}

// releaseFrame releases the frame msg's views alias, if it holds one.
func releaseFrame(msg Message) {
	if m, ok := msg.(interface{ release() }); ok {
		m.release()
	}
}

// pipeConn is an in-memory Conn built on channels. Messages still pass
// through the full wire codec so in-process tests exercise encoding.
type pipeConn struct {
	send      chan<- frame
	recv      <-chan frame
	closeOnce sync.Once
	closed    chan struct{}
	peerDone  <-chan struct{}
	sendCodec atomic.Uint32
	recvCodec atomic.Uint32
	meter     atomic.Pointer[wire.Meter]
	// spare is the frame buffer the peer released last: Send encodes
	// into it when its capacity fits.
	spare frameSlot
}

type frame struct {
	mt      MsgType
	payload []byte
	// home is the sending end's spare slot the payload returns to once
	// the receiver releases it; nil for a shared frame (SendFrame).
	home *frameSlot
}

// Pipe returns a connected in-memory transport pair.
func Pipe() (Conn, Conn) {
	ab := make(chan frame, 16)
	ba := make(chan frame, 16)
	aClosed := make(chan struct{})
	bClosed := make(chan struct{})
	a := &pipeConn{send: ab, recv: ba, closed: aClosed, peerDone: bClosed, spare: newFrameSlot()}
	b := &pipeConn{send: ba, recv: ab, closed: bClosed, peerDone: aClosed, spare: newFrameSlot()}
	return a, b
}

// SetCodec implements Conn.
func (c *pipeConn) SetCodec(codec wire.Codec) {
	c.sendCodec.Store(uint32(codec))
	c.recvCodec.Store(uint32(codec))
}

// SetSendCodec implements Conn.
func (c *pipeConn) SetSendCodec(codec wire.Codec) { c.sendCodec.Store(uint32(codec)) }

// SetRecvCodec implements Conn.
func (c *pipeConn) SetRecvCodec(codec wire.Codec) { c.recvCodec.Store(uint32(codec)) }

// setMeter implements meteredConn.
func (c *pipeConn) setMeter(m *wire.Meter) { c.meter.Store(m) }

// Send implements Conn: the message is encoded into the spare buffer
// the peer released last, when it fits, and its frame is leased to the
// message the peer decodes.
func (c *pipeConn) Send(m Message) error {
	payload := wire.EncodeInto(c.spare.take(), wire.Codec(c.sendCodec.Load()), m.walk)
	return c.sendFrame(frame{mt: m.Kind(), payload: payload, home: &c.spare})
}

// SendFrame implements Conn. The payload travels by reference and the
// receiver decodes its tensors and levels as views into it, so one
// payload shared across many pipes is read by every receiver: no
// receiver mutates or releases it (it carries no lease), and the sender
// leaves it alone until every receiver has answered.
func (c *pipeConn) SendFrame(mt MsgType, payload []byte) error {
	return c.sendFrame(frame{mt: mt, payload: payload})
}

func (c *pipeConn) sendFrame(f frame) error {
	// Check for closure first: the select below would otherwise pick the
	// (buffered) send case at random even when already closed.
	select {
	case <-c.closed:
		return ErrConnClosed
	case <-c.peerDone:
		return ErrConnClosed
	default:
	}
	select {
	case <-c.closed:
		return ErrConnClosed
	case <-c.peerDone:
		return ErrConnClosed
	case c.send <- f:
		if m := c.meter.Load(); m != nil {
			// 5 = header parity with the TCP framing (1 type + 4 length).
			m.CountTx(wire.Codec(c.sendCodec.Load()), 5+len(f.payload))
		}
		return nil
	}
}

// recvFrame decodes one frame, metering it first, and lends a frame
// that has a home to the decoded message.
func (c *pipeConn) recvFrame(f frame) (Message, error) {
	codec := wire.Codec(c.recvCodec.Load())
	if m := c.meter.Load(); m != nil {
		m.CountRx(codec, 5+len(f.payload))
	}
	msg, err := decodeFrame(f.mt, f.payload, codec)
	if f.home != nil {
		lend(msg, f.payload, f.home)
	}
	return msg, err
}

// Recv implements Conn.
func (c *pipeConn) Recv() (Message, error) {
	select {
	case <-c.closed:
		return nil, io.EOF
	case f := <-c.recv:
		return c.recvFrame(f)
	case <-c.peerDone:
		// Drain anything already queued before reporting EOF.
		select {
		case f := <-c.recv:
			return c.recvFrame(f)
		default:
			return nil, io.EOF
		}
	}
}

// Close implements Conn.
func (c *pipeConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// tcpConn adapts a net.Conn to the Message framing. Incoming frames are
// read into the connection's read scratch, which a message decoded into
// views holds on lease until the engine releases it (the views alias it
// until then) and any other message leaves for the next frame; Send
// encodes into the scratch too while no frame holds it. Every frame goes
// out as one writev of header and payload.
type tcpConn struct {
	nc        net.Conn
	writeMu   sync.Mutex
	closeOnce sync.Once
	sendCodec atomic.Uint32
	recvCodec atomic.Uint32
	readTO    atomic.Int64 // read timeout, ns; 0 = none
	writeTO   atomic.Int64 // write timeout, ns; 0 = none
	meter     atomic.Pointer[wire.Meter]
	// scratch is the read buffer, in its slot whenever no frame holds
	// it: Recv takes it once a frame's header has arrived, so a frame
	// released while Recv waited for the next one is read into.
	scratch frameSlot
}

// NewNetConn wraps an established net.Conn (TCP or otherwise). The
// returned Conn also implements DeadlineConn.
func NewNetConn(nc net.Conn) Conn { return &tcpConn{nc: nc, scratch: newFrameSlot()} }

// Dial connects to an FL server at addr over TCP.
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fl: dialing %s: %w", addr, err)
	}
	return NewNetConn(nc), nil
}

// SetCodec implements Conn.
func (c *tcpConn) SetCodec(codec wire.Codec) {
	c.sendCodec.Store(uint32(codec))
	c.recvCodec.Store(uint32(codec))
}

// SetSendCodec implements Conn.
func (c *tcpConn) SetSendCodec(codec wire.Codec) { c.sendCodec.Store(uint32(codec)) }

// SetRecvCodec implements Conn.
func (c *tcpConn) SetRecvCodec(codec wire.Codec) { c.recvCodec.Store(uint32(codec)) }

// setMeter implements meteredConn.
func (c *tcpConn) setMeter(m *wire.Meter) { c.meter.Store(m) }

// SetReadTimeout implements DeadlineConn.
func (c *tcpConn) SetReadTimeout(d time.Duration) { c.readTO.Store(int64(d)) }

// SetWriteTimeout implements DeadlineConn.
func (c *tcpConn) SetWriteTimeout(d time.Duration) { c.writeTO.Store(int64(d)) }

// armWriteDeadline applies (or clears) the write deadline for one write.
// Callers hold writeMu.
func (c *tcpConn) armWriteDeadline() {
	if d := time.Duration(c.writeTO.Load()); d > 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(d))
	} else {
		_ = c.nc.SetWriteDeadline(time.Time{})
	}
}

// Send implements Conn: the message is encoded into the read scratch
// when no received frame holds it (a fresh buffer otherwise) and written
// like SendFrame; the buffer is then the scratch for the next frame.
func (c *tcpConn) Send(m Message) error {
	codec := wire.Codec(c.sendCodec.Load())
	payload := wire.EncodeInto(c.scratch.take(), codec, m.walk)
	err := c.writeFrame(m.Kind(), payload, codec)
	c.scratch.put(payload)
	return err
}

// SendFrame implements Conn: header + shared payload go out in a single
// writev, so broadcasts neither copy the payload nor split the header
// into its own packet.
func (c *tcpConn) SendFrame(mt MsgType, payload []byte) error {
	return c.writeFrame(mt, payload, wire.Codec(c.sendCodec.Load()))
}

// writeFrame writes one frame, metered under the codec its payload was
// encoded with.
func (c *tcpConn) writeFrame(mt MsgType, payload []byte, codec wire.Codec) error {
	if len(payload) > wire.MaxFrame {
		return fmt.Errorf("%w: %d bytes", wire.ErrFrameTooLarge, len(payload))
	}
	var hdr [5]byte
	hdr[0] = byte(mt)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	bufs := net.Buffers{hdr[:], payload}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.armWriteDeadline()
	if _, err := bufs.WriteTo(c.nc); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	if m := c.meter.Load(); m != nil {
		m.CountTx(codec, 5+len(payload))
	}
	return nil
}

// Recv implements Conn.
func (c *tcpConn) Recv() (Message, error) {
	if d := time.Duration(c.readTO.Load()); d > 0 {
		_ = c.nc.SetReadDeadline(time.Now().Add(d))
	} else {
		_ = c.nc.SetReadDeadline(time.Time{})
	}
	mt, n, err := wire.ReadFrameHeader(c.nc)
	if err != nil {
		return nil, err
	}
	payload, err := wire.ReadPayload(c.nc, c.scratch.take(), n)
	if err != nil {
		return nil, err
	}
	codec := wire.Codec(c.recvCodec.Load())
	if m := c.meter.Load(); m != nil {
		m.CountRx(codec, 5+len(payload))
	}
	msg, err := decodeFrame(MsgType(mt), payload, codec)
	lend(msg, payload, &c.scratch)
	return msg, err
}

// Close implements Conn.
func (c *tcpConn) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.nc.Close() })
	return err
}

// Listener accepts FL client connections over TCP.
type Listener struct {
	l net.Listener
}

// Listen opens a TCP listener on addr ("host:port"; ":0" for ephemeral).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fl: listening on %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next client connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewNetConn(nc), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

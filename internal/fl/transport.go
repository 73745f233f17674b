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
	// is not copied and must never be mutated afterwards: broadcast
	// senders share one buffer across many connections, and an in-memory
	// receiver reads its tensors through views into that very buffer.
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

// maxReadScratch caps the per-connection receive buffer retained across
// frames (larger payloads are read fine, just not kept).
const maxReadScratch = 8 << 20

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
}

type frame struct {
	mt      MsgType
	payload []byte
}

// Pipe returns a connected in-memory transport pair.
func Pipe() (Conn, Conn) {
	ab := make(chan frame, 16)
	ba := make(chan frame, 16)
	aClosed := make(chan struct{})
	bClosed := make(chan struct{})
	a := &pipeConn{send: ab, recv: ba, closed: aClosed, peerDone: bClosed}
	b := &pipeConn{send: ba, recv: ab, closed: bClosed, peerDone: aClosed}
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

// Send implements Conn.
func (c *pipeConn) Send(m Message) error {
	return c.SendFrame(m.Kind(), EncodeMessageCodec(m, wire.Codec(c.sendCodec.Load())))
}

// SendFrame implements Conn. The payload travels by reference and the
// receiver decodes the tensors of GradUp and ModelDown, and the levels
// of MaskedUp and PartialUp, as views into it, so one
// payload shared across many pipes is read by every receiver and must
// never be mutated by sender or receiver.
func (c *pipeConn) SendFrame(mt MsgType, payload []byte) error {
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
	case c.send <- frame{mt: mt, payload: payload}:
		if m := c.meter.Load(); m != nil {
			// 5 = header parity with the TCP framing (1 type + 4 length).
			m.CountTx(wire.Codec(c.sendCodec.Load()), 5+len(payload))
		}
		return nil
	}
}

// recvFrame decodes one frame, metering it first.
func (c *pipeConn) recvFrame(f frame) (Message, error) {
	codec := wire.Codec(c.recvCodec.Load())
	if m := c.meter.Load(); m != nil {
		m.CountRx(codec, 5+len(f.payload))
	}
	return decodeFrame(f.mt, f.payload, codec)
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

// tcpConn adapts a net.Conn to the Message framing. Outgoing messages
// are encoded into a pooled buffer and written with a single Write;
// incoming frames are read into a per-connection scratch buffer, which a
// message decoded into views takes with it (the next frame gets a fresh
// one) and any other message leaves for the next frame.
type tcpConn struct {
	nc        net.Conn
	writeMu   sync.Mutex
	closeOnce sync.Once
	sendCodec atomic.Uint32
	recvCodec atomic.Uint32
	readTO    atomic.Int64 // read timeout, ns; 0 = none
	writeTO   atomic.Int64 // write timeout, ns; 0 = none
	meter     atomic.Pointer[wire.Meter]
	readBuf   []byte // frame scratch, owned by the single Recv caller
}

// NewNetConn wraps an established net.Conn (TCP or otherwise). The
// returned Conn also implements DeadlineConn.
func NewNetConn(nc net.Conn) Conn { return &tcpConn{nc: nc} }

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

// Send implements Conn: encode into a pooled frame buffer, one Write.
func (c *tcpConn) Send(m Message) error {
	w := wire.GetWriter()
	w.BeginFrame(byte(m.Kind()))
	w.Codec = wire.Codec(c.sendCodec.Load())
	m.walk(wire.Encoder(w))
	buf, err := w.Frame()
	if err == nil {
		c.writeMu.Lock()
		c.armWriteDeadline()
		_, err = c.nc.Write(buf)
		c.writeMu.Unlock()
		if err != nil {
			err = fmt.Errorf("wire: writing frame: %w", err)
		} else if mtr := c.meter.Load(); mtr != nil {
			mtr.CountTx(w.Codec, len(buf))
		}
	}
	wire.PutWriter(w)
	return err
}

// SendFrame implements Conn: header + shared payload go out in a single
// writev, so broadcasts neither copy the payload nor split the header
// into its own packet.
func (c *tcpConn) SendFrame(mt MsgType, payload []byte) error {
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
		m.CountTx(wire.Codec(c.sendCodec.Load()), 5+len(payload))
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
	mt, payload, err := wire.ReadFrameInto(c.nc, c.readBuf)
	if err != nil {
		return nil, err
	}
	codec := wire.Codec(c.recvCodec.Load())
	if m := c.meter.Load(); m != nil {
		m.CountRx(codec, 5+len(payload))
	}
	msg, err := decodeFrame(MsgType(mt), payload, codec)
	switch msg.(type) {
	case *GradUp, *ModelDown, *MaskedUp, *PartialUp:
		// Their views own the frame now: never read into it again.
		c.readBuf = nil
	default:
		// Keep the grown scratch for the next frame, but never pin more
		// than maxReadScratch per connection: one huge frame must not
		// hold its capacity for the connection's lifetime.
		if cap(payload) > cap(c.readBuf) && cap(payload) <= maxReadScratch {
			c.readBuf = payload
		}
	}
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

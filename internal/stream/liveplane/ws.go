// Package liveplane is the daemon's live-protocol layer: a dependency-free
// RFC 6455 WebSocket server and client pair, an SSE fan-out hub with
// replayable event rings, and the ingest handler that bridges WebSocket
// observation streams onto a serve.DetectorPool. It speaks HTTP through
// internal/wire's types, so a daemon that serves it links no net/http;
// internal/stream/live puts its handshake behind net/http's.
//
// The package exists so the paper's actual setting — live social video
// streams pushing segments as they happen — has a first-class transport
// instead of batch NDJSON replay. The protocol layer is deliberately
// small: text messages in both directions carry the same JSON objects the
// NDJSON endpoints use ({"action":[...],"audience":[...]} in,
// decision objects out), so a client can switch transports without
// changing its payload handling.
//
// Resume contract (ARCHITECTURE.md §15): every accepted observation is
// assigned a per-channel sequence (the WAL sequence when the pool runs
// with a journal, a hub-local counter otherwise). A reconnecting client
// sends `Last-Seq: N`; the 101 response carries `X-Aovlis-Resume: M`, the
// channel's accepted floor. Decisions in (N, M] that are still in the
// hub's ring are replayed over the new connection; observations the
// client sent beyond M were never accepted and must be resent. Because M
// is never below the WAL floor, a segment the server acknowledged is
// never resent and therefore never double-applied — the live layer
// composes with the journal's exactly-once story instead of inventing its
// own.
package liveplane

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"time"

	"aovlis/internal/wire"
)

// Opcode is an RFC 6455 frame opcode.
type Opcode byte

// The opcodes the protocol defines; anything else is a protocol error.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// Close codes (RFC 6455 §7.4.1) the package uses.
const (
	CloseNormal        = 1000
	CloseGoingAway     = 1001
	CloseProtocolError = 1002
	ClosePolicy        = 1008
	CloseTooBig        = 1009
	CloseInternal      = 1011
)

// wsGUID is the fixed handshake GUID from RFC 6455 §1.3.
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// DefaultMaxMessage bounds a reassembled message when Options.MaxMessage
// is zero. Observation vectors are a few KB; 1 MiB leaves generous
// headroom without letting one connection balloon the heap.
const DefaultMaxMessage = 1 << 20

// AcceptKey derives the Sec-WebSocket-Accept value for a handshake key.
func AcceptKey(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// CloseError reports a closed WebSocket: either the peer sent a close
// frame (its code and reason are carried through) or this side aborted
// the connection after a protocol violation.
type CloseError struct {
	Code   int
	Reason string
}

func (e *CloseError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("websocket: closed with code %d", e.Code)
	}
	return fmt.Sprintf("websocket: closed with code %d: %s", e.Code, e.Reason)
}

// Options configures an upgraded connection.
type Options struct {
	// MaxMessage caps a reassembled message's payload bytes
	// (0 → DefaultMaxMessage). Oversized messages close the connection
	// with code 1009.
	MaxMessage int
	// Header adds response headers to the 101 handshake (e.g. the
	// X-Aovlis-Resume floor).
	Header wire.Header
}

// Conn is one WebSocket connection. Reads must come from a single
// goroutine; writes are internally serialised so control replies (pongs,
// close echoes) may race application writes safely. A message is read
// into, and a frame written from, buffers the connection owns, so a
// connection in steady state allocates nothing per message.
type Conn struct {
	conn   wire.Conn
	br     *bufio.Reader
	client bool // client conns send masked, expect unmasked
	maxMsg int

	// Read side, owned by the reading goroutine: msg is the message being
	// reassembled (ReadMessage's result until its next call), ctl a control
	// frame's payload, hdr a frame header's bytes.
	msg []byte
	ctl [125]byte
	hdr [8]byte

	wmu       sync.Mutex
	wbuf      []byte // the frame being written
	sentClose bool
	maskSeed  uint64 // client mask keystream (xorshift; masking needs no CSPRNG)

	// OnPong, when set, observes pong payloads from inside ReadMessage —
	// the keepalive tests use it to assert ping/pong round trips. The
	// payload is valid only during the call. Set it before the read loop
	// starts.
	OnPong func(payload []byte)
}

// Upgrade performs the server half of the RFC 6455 handshake and hijacks
// the connection. On a handshake violation it writes the appropriate HTTP
// error itself and returns a non-nil error.
func Upgrade(w wire.ResponseWriter, r *wire.Request, opts *Options) (*Conn, error) {
	if opts == nil {
		opts = &Options{}
	}
	if r.Method != wire.MethodGet {
		wire.Error(w, "websocket handshake wants GET", wire.StatusMethodNotAllowed)
		return nil, fmt.Errorf("live: handshake method %s", r.Method)
	}
	if !r.Header.HasToken("Connection", "upgrade") {
		wire.Error(w, "websocket handshake needs Connection: Upgrade", wire.StatusBadRequest)
		return nil, fmt.Errorf("live: missing Connection: Upgrade")
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		wire.Error(w, "websocket handshake needs Upgrade: websocket", wire.StatusBadRequest)
		return nil, fmt.Errorf("live: missing Upgrade: websocket")
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		wire.Error(w, "unsupported websocket version", wire.StatusUpgradeRequired)
		return nil, fmt.Errorf("live: unsupported Sec-WebSocket-Version %q", v)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if raw, err := base64.StdEncoding.DecodeString(key); err != nil || len(raw) != 16 {
		wire.Error(w, "bad Sec-WebSocket-Key", wire.StatusBadRequest)
		return nil, fmt.Errorf("live: bad Sec-WebSocket-Key %q", key)
	}
	nc, brw, err := w.Hijack()
	if err != nil {
		wire.Error(w, err.Error(), wire.StatusInternalError)
		return nil, fmt.Errorf("live: hijack: %w", err)
	}
	var resp strings.Builder
	resp.WriteString("HTTP/1.1 101 Switching Protocols\r\n")
	resp.WriteString("Upgrade: websocket\r\n")
	resp.WriteString("Connection: Upgrade\r\n")
	resp.WriteString("Sec-WebSocket-Accept: " + AcceptKey(key) + "\r\n")
	for k, vs := range opts.Header {
		for _, v := range vs {
			resp.WriteString(k + ": " + v + "\r\n")
		}
	}
	resp.WriteString("\r\n")
	if _, err := brw.WriteString(resp.String()); err != nil {
		nc.Close()
		return nil, fmt.Errorf("live: writing handshake: %w", err)
	}
	if err := brw.Flush(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("live: flushing handshake: %w", err)
	}
	return NewConn(nc, brw.Reader, false, opts.MaxMessage), nil
}

// NewConn is a Conn over nc, whose handshake is done: client says which
// side this is, br holds what was read past the handshake (nil: nothing),
// and maxMsg caps a message (0: DefaultMaxMessage).
func NewConn(nc wire.Conn, br *bufio.Reader, client bool, maxMsg int) *Conn {
	if maxMsg <= 0 {
		maxMsg = DefaultMaxMessage
	}
	if br == nil {
		br = bufio.NewReader(nc)
	}
	return &Conn{conn: nc, br: br, client: client, maxMsg: maxMsg,
		maskSeed: uint64(time.Now().UnixNano()) | 1}
}

// ReadMessage returns the next complete data message, transparently
// reassembling fragments and handling interleaved control frames (pings
// are answered, pongs handed to OnPong). A close frame from the peer is
// echoed once and surfaces as *CloseError; protocol violations close the
// connection with the matching code and also surface as *CloseError.
//
// The message is read into a buffer the connection reuses: it is valid
// until the next call to ReadMessage, and a caller that keeps it copies it.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	var (
		op      Opcode
		started bool
	)
	c.msg = c.msg[:0]
	for {
		h, err := c.readHeader()
		if err != nil {
			return 0, nil, err
		}
		if h.op >= OpClose {
			if h.op > OpPong {
				return 0, nil, c.fail(CloseProtocolError, fmt.Sprintf("reserved opcode %d", h.op))
			}
			payload := c.ctl[:h.n]
			if err := c.readPayload(payload, h); err != nil {
				return 0, nil, err
			}
			switch h.op {
			case OpPing:
				if werr := c.writeControl(OpPong, payload); werr != nil {
					return 0, nil, werr
				}
			case OpPong:
				if c.OnPong != nil {
					c.OnPong(payload)
				}
			case OpClose:
				code, reason := CloseNormal, ""
				if len(payload) >= 2 {
					code = int(binary.BigEndian.Uint16(payload))
					reason = string(payload[2:])
				}
				c.WriteClose(code, "")
				return 0, nil, &CloseError{Code: code, Reason: reason}
			}
			continue
		}
		switch h.op {
		case OpContinuation:
			if !started {
				return 0, nil, c.fail(CloseProtocolError, "continuation without a started message")
			}
		case OpText, OpBinary:
			if started {
				return 0, nil, c.fail(CloseProtocolError, "new data frame inside a fragmented message")
			}
			op, started = h.op, true
		default:
			return 0, nil, c.fail(CloseProtocolError, fmt.Sprintf("reserved opcode %d", h.op))
		}
		// The limit is on the reassembled message, and it is checked against
		// the declared length before the payload is read: a fragment that
		// would cross it closes the connection without being buffered.
		have := len(c.msg)
		if have+h.n > c.maxMsg {
			return 0, nil, c.fail(CloseTooBig, "message exceeds limit")
		}
		if need := have + h.n; need > cap(c.msg) {
			grown := make([]byte, have, min(max(2*cap(c.msg), need), c.maxMsg))
			copy(grown, c.msg)
			c.msg = grown
		}
		c.msg = c.msg[:have+h.n]
		if err := c.readPayload(c.msg[have:], h); err != nil {
			return 0, nil, err
		}
		if h.fin {
			return op, c.msg, nil
		}
	}
}

// frameHeader is one validated frame header: n payload bytes follow, masked
// with mask when masked.
type frameHeader struct {
	fin    bool
	op     Opcode
	masked bool
	mask   [4]byte
	n      int
}

// readHeader reads and validates one frame header. A declared length past
// the limit is refused here, before any of its payload is read.
func (c *Conn) readHeader() (frameHeader, error) {
	var h frameHeader
	if _, err := readFull(c.br, c.hdr[:2]); err != nil {
		return h, err
	}
	h.fin = c.hdr[0]&0x80 != 0
	if c.hdr[0]&0x70 != 0 {
		return h, c.fail(CloseProtocolError, "nonzero RSV bits")
	}
	h.op = Opcode(c.hdr[0] & 0x0f)
	h.masked = c.hdr[1]&0x80 != 0
	n := uint64(c.hdr[1] & 0x7f)
	if h.op >= OpClose {
		if !h.fin {
			return h, c.fail(CloseProtocolError, "fragmented control frame")
		}
		if n > 125 {
			return h, c.fail(CloseProtocolError, "oversized control frame")
		}
	}
	switch n {
	case 126:
		if _, err := readFull(c.br, c.hdr[:2]); err != nil {
			return h, err
		}
		n = uint64(binary.BigEndian.Uint16(c.hdr[:2]))
	case 127:
		if _, err := readFull(c.br, c.hdr[:8]); err != nil {
			return h, err
		}
		n = binary.BigEndian.Uint64(c.hdr[:8])
		if n&(1<<63) != 0 {
			return h, c.fail(CloseProtocolError, "frame length high bit set")
		}
	}
	// RFC 6455 §5.1: client frames MUST be masked, server frames MUST NOT.
	if !c.client && !h.masked {
		return h, c.fail(CloseProtocolError, "unmasked client frame")
	}
	if c.client && h.masked {
		return h, c.fail(CloseProtocolError, "masked server frame")
	}
	if n > uint64(c.maxMsg) {
		return h, c.fail(CloseTooBig, "frame exceeds limit")
	}
	if h.masked {
		if _, err := readFull(c.br, c.hdr[:4]); err != nil {
			return h, err
		}
		copy(h.mask[:], c.hdr[:4])
	}
	h.n = int(n)
	return h, nil
}

// readPayload reads h's payload into dst, which is h.n bytes, and unmasks
// it.
func (c *Conn) readPayload(dst []byte, h frameHeader) error {
	if _, err := readFull(c.br, dst); err != nil {
		return err
	}
	if h.masked {
		maskBytes(dst, h.mask)
	}
	return nil
}

// readFull is io.ReadFull with torn-frame normalisation: a connection cut
// mid-frame always surfaces as an error (never a silent short read).
func readFull(br *bufio.Reader, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := br.Read(b[n:])
		n += m
		if err != nil {
			return n, fmt.Errorf("live: torn frame: %w", err)
		}
	}
	return n, nil
}

func maskBytes(b []byte, key [4]byte) {
	for i := range b {
		b[i] ^= key[i&3]
	}
}

// fail sends a close frame with code and returns the matching CloseError.
func (c *Conn) fail(code int, reason string) error {
	c.WriteClose(code, reason)
	return &CloseError{Code: code, Reason: reason}
}

// WriteMessage writes one unfragmented data message. Safe for concurrent
// use with the read loop's control replies.
func (c *Conn) WriteMessage(op Opcode, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sentClose {
		return &CloseError{Code: CloseNormal, Reason: "write after close"}
	}
	return c.writeFrameLocked(op, payload)
}

// writeControl writes a control frame (pong replies from the read path).
func (c *Conn) writeControl(op Opcode, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sentClose {
		return nil
	}
	return c.writeFrameLocked(op, payload)
}

// WriteClose sends a close frame once; later writes are refused. It does
// not close the underlying connection — callers pair it with Close after
// draining or a read deadline.
func (c *Conn) WriteClose(code int, reason string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sentClose {
		return nil
	}
	payload := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(payload, uint16(code))
	copy(payload[2:], reason)
	err := c.writeFrameLocked(OpClose, payload)
	c.sentClose = true
	return err
}

// WriteFrame writes one pre-encoded frame verbatim — the conformance
// generator's seam for fragmented, interleaved and deliberately torn
// writes. The caller is responsible for frame validity.
func (c *Conn) WriteFrame(f Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sentClose {
		return &CloseError{Code: CloseNormal, Reason: "write after close"}
	}
	return c.writeLocked(f)
}

// WriteRaw writes bytes straight to the connection — torn-frame tests
// push partial frames through it.
func (c *Conn) WriteRaw(b []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.conn.Write(b)
	return err
}

// writeFrameLocked writes one final frame, masked when this is the client
// side. Called with wmu held.
func (c *Conn) writeFrameLocked(op Opcode, payload []byte) error {
	f := Frame{Fin: true, Op: op, Payload: payload}
	if c.client {
		f.Masked = true
		f.MaskKey = c.nextMask()
	}
	return c.writeLocked(f)
}

// writeLocked encodes f into the write buffer and puts it on the wire in
// one write. Called with wmu held.
func (c *Conn) writeLocked(f Frame) error {
	c.wbuf = f.Append(c.wbuf[:0])
	_, err := c.conn.Write(c.wbuf)
	return err
}

// nextMask draws the next client mask key (xorshift64*; masking exists to
// defeat proxy cache poisoning, not cryptanalysis).
func (c *Conn) nextMask() [4]byte {
	x := c.maskSeed
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.maskSeed = x
	var k [4]byte
	binary.LittleEndian.PutUint32(k[:], uint32(x*0x2545F4914F6CDD1D>>32))
	return k
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.conn.Close() }

// NetConn exposes the underlying connection so tests can cut it abruptly
// (the disconnect half of disconnect+resume).
func (c *Conn) NetConn() wire.Conn { return c.conn }

// SetReadDeadline bounds the next reads.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

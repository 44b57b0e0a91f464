// Package live is the live plane behind net/http's types: Upgrade and Dial
// with net/http signatures, running liveplane's handshake, and the names
// of liveplane's codec, hub and ingest handler. A program that serves with
// net/http uses it; the daemons import liveplane, which links no net/http.
package live

import (
	"bufio"
	"net"
	"net/http"
	"time"

	"aovlis/internal/stream/liveplane"
	"aovlis/internal/wire"
)

// The live plane's types, under the names they have always had here.
type (
	Opcode        = liveplane.Opcode
	Conn          = liveplane.Conn
	CloseError    = liveplane.CloseError
	Options       = liveplane.Options
	Frame         = liveplane.Frame
	Scrambler     = liveplane.Scrambler
	Hub           = liveplane.Hub
	HubConfig     = liveplane.HubConfig
	Session       = liveplane.Session
	Watcher       = liveplane.Watcher
	IngestHandler = liveplane.IngestHandler
	Observation   = liveplane.Observation
	Decision      = liveplane.Decision
)

// Opcodes, close codes and the resume headers.
const (
	OpContinuation = liveplane.OpContinuation
	OpText         = liveplane.OpText
	OpBinary       = liveplane.OpBinary
	OpClose        = liveplane.OpClose
	OpPing         = liveplane.OpPing

	CloseNormal        = liveplane.CloseNormal
	CloseGoingAway     = liveplane.CloseGoingAway
	CloseProtocolError = liveplane.CloseProtocolError
	CloseTooBig        = liveplane.CloseTooBig

	ResumeHeader  = liveplane.ResumeHeader
	LastSeqHeader = liveplane.LastSeqHeader
)

// Errors, the same values liveplane returns.
var (
	ErrBadHandshake = liveplane.ErrBadHandshake
	ErrHubClosed    = liveplane.ErrHubClosed
	ErrChannelBusy  = liveplane.ErrChannelBusy
)

// AcceptKey derives the Sec-WebSocket-Accept value for a handshake key.
func AcceptKey(key string) string { return liveplane.AcceptKey(key) }

// NewConn is liveplane.NewConn.
func NewConn(nc net.Conn, br *bufio.Reader, client bool, maxMsg int) *Conn {
	return liveplane.NewConn(nc, br, client, maxMsg)
}

// NewHub builds an empty hub.
func NewHub(cfg HubConfig) *Hub { return liveplane.NewHub(cfg) }

// NewScrambler seeds a frame generator.
func NewScrambler(seed int64) *Scrambler { return liveplane.NewScrambler(seed) }

// Upgrade is liveplane.Upgrade on a net/http request: the same handshake
// checks and refusals, then the connection hijacked through
// http.ResponseController.
func Upgrade(w http.ResponseWriter, r *http.Request, opts *Options) (*Conn, error) {
	req := &wire.Request{Method: r.Method, URL: r.URL, Header: wire.Header(r.Header)}
	return liveplane.Upgrade(httpWriter{w}, req, opts)
}

// httpWriter is a net/http ResponseWriter as a wire one.
type httpWriter struct{ w http.ResponseWriter }

func (w httpWriter) Header() wire.Header         { return wire.Header(w.w.Header()) }
func (w httpWriter) WriteHeader(code int)        { w.w.WriteHeader(code) }
func (w httpWriter) Write(p []byte) (int, error) { return w.w.Write(p) }
func (w httpWriter) Flush()                      { http.NewResponseController(w.w).Flush() }
func (w httpWriter) Hijack() (wire.Conn, *bufio.ReadWriter, error) {
	return http.NewResponseController(w.w).Hijack()
}

// Dial opens a client WebSocket connection to rawurl (http:// or ws://
// scheme; TLS is out of scope for the in-repo fleet). header adds request
// headers — the resume protocol's Last-Seq rides here. On a non-101
// answer the response is returned with a drained body and the error is
// ErrBadHandshake.
func Dial(rawurl string, header http.Header) (*Conn, *http.Response, error) {
	return DialTimeout(rawurl, header, 10*time.Second)
}

// DialTimeout is Dial with an explicit TCP connect + handshake deadline.
func DialTimeout(rawurl string, header http.Header, timeout time.Duration) (*Conn, *http.Response, error) {
	c, resp, err := liveplane.DialTimeout(rawurl, wire.Header(header), timeout)
	if resp == nil {
		return c, nil, err
	}
	return c, &http.Response{Status: resp.Status, StatusCode: resp.StatusCode,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header(resp.Header),
		ContentLength: resp.ContentLength, Body: resp.Body}, err
}

// Package live is the live plane behind net/http's types: Upgrade and Dial
// with net/http signatures, running liveplane's handshake, and the few
// liveplane names the benchmark harness dials and serves with. A program
// that serves with net/http uses it; the daemons import liveplane, which
// links no net/http, and every other live-plane name lives there.
package live

import (
	"bufio"
	"net/http"
	"time"

	"aovlis/internal/stream/liveplane"
	"aovlis/internal/wire"
)

// The live plane's types, under the names they have always had here.
type (
	Conn        = liveplane.Conn
	Frame       = liveplane.Frame
	Hub         = liveplane.Hub
	Observation = liveplane.Observation
	Decision    = liveplane.Decision
)

// The text opcode and the normal close code.
const (
	OpText      = liveplane.OpText
	CloseNormal = liveplane.CloseNormal
)

// HubConfig is NewHub's argument, kept for callers that pass the empty
// literal: the hub's ring sizes are liveplane constants.
type HubConfig struct{}

// NewHub builds an empty hub.
func NewHub(HubConfig) *Hub { return liveplane.NewHub() }

// Upgrade is liveplane.Upgrade on a net/http request: the same handshake
// checks and refusals, then the connection hijacked through
// http.ResponseController.
func Upgrade(w http.ResponseWriter, r *http.Request, opts *liveplane.Options) (*Conn, error) {
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
// scheme; TLS is out of scope for the in-repo fleet) within a 10 s TCP
// connect + handshake deadline. header adds request headers — the resume
// protocol's Last-Seq rides here. On a non-101 answer the response is
// returned with a drained body and the error is liveplane.ErrBadHandshake.
func Dial(rawurl string, header http.Header) (*Conn, *http.Response, error) {
	c, resp, err := liveplane.DialTimeout(rawurl, wire.Header(header), 10*time.Second)
	if resp == nil {
		return c, nil, err
	}
	return c, &http.Response{Status: resp.Status, StatusCode: resp.StatusCode,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header(resp.Header),
		ContentLength: resp.ContentLength, Body: resp.Body}, err
}

package wire

import (
	"bufio"
	"context"
	"io"
	"net/url"
	"strconv"
	"strings"
)

// The HTTP/1.1 types the daemons are written against. They are the part of
// net/http's surface the node and the router use, and no more: importing
// net/http for its types links its TLS, x509, HTTP/2 and mime code into
// every binary through package initialisation, whether or not a byte of it
// runs.

// Methods and statuses the daemons use by name.
const (
	MethodGet    = "GET"
	MethodHead   = "HEAD"
	MethodPost   = "POST"
	MethodPut    = "PUT"
	MethodDelete = "DELETE"

	StatusSwitchingProtocols = 101
	StatusOK                 = 200
	StatusCreated            = 201
	StatusNoContent          = 204
	StatusNotModified        = 304
	StatusBadRequest         = 400
	StatusNotFound           = 404
	StatusMethodNotAllowed   = 405
	StatusConflict           = 409
	StatusPreconditionFailed = 412
	StatusRequestTooLarge    = 413
	StatusExpectationFailed  = 417
	StatusUnprocessable      = 422
	StatusUpgradeRequired    = 426
	StatusTooManyRequests    = 429
	StatusHeaderTooLarge     = 431
	StatusInternalError      = 500
	StatusBadGateway         = 502
	StatusUnavailable        = 503
	StatusVersionUnsupported = 505
)

var reasons = map[int]string{
	101: "Switching Protocols",
	200: "OK",
	201: "Created",
	204: "No Content",
	304: "Not Modified",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	409: "Conflict",
	412: "Precondition Failed",
	413: "Request Entity Too Large",
	417: "Expectation Failed",
	422: "Unprocessable Entity",
	426: "Upgrade Required",
	429: "Too Many Requests",
	431: "Request Header Fields Too Large",
	500: "Internal Server Error",
	502: "Bad Gateway",
	503: "Service Unavailable",
	505: "HTTP Version Not Supported",
}

// statusText is the reason phrase of a status the daemons send, as
// net/http words it; "" for any other.
func statusText(code int) string { return reasons[code] }

// Header is a request's or response's header fields. Keys are canonical
// (CanonicalHeaderKey, which is textproto.CanonicalMIMEHeaderKey), so that
// a Header and an http.Header convert into each other as they are.
type Header map[string][]string

// Get is the first value of key, or "".
func (h Header) Get(key string) string {
	if v := h[CanonicalHeaderKey(key)]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// Values is every value of key.
func (h Header) Values(key string) []string { return h[CanonicalHeaderKey(key)] }

// Set replaces the values of key with value.
func (h Header) Set(key, value string) { h[CanonicalHeaderKey(key)] = []string{value} }

// Del removes key.
func (h Header) Del(key string) { delete(h, CanonicalHeaderKey(key)) }

// HasToken reports whether token is in the comma-separated lists of key's
// values, ignoring ASCII case: "keep-alive, Upgrade" has "upgrade".
func (h Header) HasToken(key, token string) bool {
	for _, v := range h.Values(key) {
		for v != "" {
			var part string
			part, v, _ = strings.Cut(v, ",")
			if asciiEqualFold(trimString(part), token) {
				return true
			}
		}
	}
	return false
}

// Request is an HTTP/1.x request: one a Server read, or one Do sends.
type Request struct {
	Method string
	// URL is the request target, parsed with url.ParseRequestURI when the
	// request was read; Do sends its RequestURI to its Host.
	URL *url.URL
	// ProtoMinor is 1 for HTTP/1.1 and 0 for HTTP/1.0; the major version
	// is always 1.
	ProtoMinor int
	Header     Header
	// Host is the target's host: the URL's, or the Host header's.
	Host string
	// ContentLength is the length of a served request's body, or -1 for a
	// chunked one.
	ContentLength int64
	// Close is set when the connection ends after this exchange.
	Close bool
	// Body is the request body. A request a Server read always has one,
	// empty when the request has none; Do sends a non-nil one chunked.
	Body io.ReadCloser

	ctx context.Context
}

// Context is the request's context: on a served request, cancelled when
// the client goes away or the handler returns.
func (r *Request) Context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// NewRequest is a request for Do.
func NewRequest(method, rawurl string, body io.Reader) (*Request, error) {
	u, err := url.Parse(rawurl)
	if err != nil {
		return nil, err
	}
	req := &Request{Method: method, URL: u, ProtoMinor: 1, Header: make(Header), Host: u.Host}
	if body != nil {
		rc, ok := body.(io.ReadCloser)
		if !ok {
			rc = io.NopCloser(body)
		}
		req.Body = rc
	}
	return req, nil
}

// Response is an HTTP/1.x response Do read.
type Response struct {
	StatusCode int
	// Status is the status line after the version: "200 OK".
	Status string
	Header Header
	// ContentLength is the body's declared length, or -1 when it is
	// chunked or runs to the connection's end.
	ContentLength int64
	// Body is the response body; the caller closes it.
	Body io.ReadCloser
}

// ResponseWriter is what a Handler answers through. Flush puts the status,
// the headers and the buffered body on the wire; Hijack hands the
// connection to the handler, with what was read past the request head.
type ResponseWriter interface {
	Header() Header
	WriteHeader(code int)
	Write(p []byte) (int, error)
	Flush()
	Hijack() (Conn, *bufio.ReadWriter, error)
}

// Handler answers one request.
type Handler interface {
	ServeHTTP(ResponseWriter, *Request)
}

// HandlerFunc is a function as a Handler.
type HandlerFunc func(ResponseWriter, *Request)

func (f HandlerFunc) ServeHTTP(w ResponseWriter, r *Request) { f(w, r) }

// Error answers a plain-text error: code, and msg on a line of its own.
func Error(w ResponseWriter, msg string, code int) {
	h := w.Header()
	h.Del("Content-Length")
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(code)
	io.WriteString(w, msg+"\n")
}

// Mux routes a request by its path: a pattern that ends in "/" takes every
// path under it, any other only itself, and the longest matching pattern
// wins. An unmatched path is answered 404. Paths are not cleaned and
// nothing is redirected.
type Mux struct {
	exact  map[string]Handler
	prefix []muxEntry // longest first
}

type muxEntry struct {
	pattern string
	h       Handler
}

// Handle routes pattern to h.
func (m *Mux) Handle(pattern string, h Handler) {
	if !strings.HasSuffix(pattern, "/") {
		if m.exact == nil {
			m.exact = make(map[string]Handler)
		}
		m.exact[pattern] = h
		return
	}
	i := 0
	for i < len(m.prefix) && len(m.prefix[i].pattern) >= len(pattern) {
		i++
	}
	m.prefix = append(m.prefix, muxEntry{})
	copy(m.prefix[i+1:], m.prefix[i:])
	m.prefix[i] = muxEntry{pattern, h}
}

// HandleFunc routes pattern to f.
func (m *Mux) HandleFunc(pattern string, f func(ResponseWriter, *Request)) {
	m.Handle(pattern, HandlerFunc(f))
}

func (m *Mux) ServeHTTP(w ResponseWriter, r *Request) {
	path := r.URL.Path
	if h, ok := m.exact[path]; ok {
		h.ServeHTTP(w, r)
		return
	}
	for _, e := range m.prefix {
		if strings.HasPrefix(path, e.pattern) {
			e.h.ServeHTTP(w, r)
			return
		}
	}
	Error(w, "404 page not found", StatusNotFound)
}

// writeHead appends the request head Do sends: the request line, Host,
// the caller's headers, the body's framing and Connection: close.
func (r *Request) writeHead(b []byte) []byte {
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.URL.RequestURI()...)
	b = append(b, " HTTP/1.1\r\n"...)
	host := r.Host
	if host == "" {
		host = r.URL.Host
	}
	b = appendField(b, "Host", host)
	for k, vs := range r.Header {
		switch k {
		case "Host", "Content-Length", "Transfer-Encoding", "Connection":
			continue
		}
		for _, v := range vs {
			b = appendField(b, k, v)
		}
	}
	switch {
	case r.Body != nil:
		b = append(b, "Transfer-Encoding: chunked\r\n"...)
	case r.Method == MethodPost || r.Method == MethodPut:
		b = append(b, "Content-Length: 0\r\n"...)
	}
	return append(b, "Connection: close\r\n\r\n"...)
}

// write sends the request: its head, then its body, if it has one,
// chunked.
func (r *Request) write(w io.Writer) error {
	if _, err := w.Write(r.writeHead(nil)); err != nil || r.Body == nil {
		return err
	}
	defer r.Body.Close()
	cw := chunkedWriter{w: w}
	if _, err := io.Copy(&cw, r.Body); err != nil {
		return err
	}
	_, err := io.WriteString(w, "0\r\n\r\n")
	return err
}

// chunkedWriter writes each Write as one chunk.
type chunkedWriter struct {
	w   io.Writer
	buf []byte
}

func (cw *chunkedWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	cw.buf = strconv.AppendInt(cw.buf[:0], int64(len(p)), 16)
	cw.buf = append(cw.buf, "\r\n"...)
	cw.buf = append(cw.buf, p...)
	cw.buf = append(cw.buf, "\r\n"...)
	if _, err := cw.w.Write(cw.buf); err != nil {
		return 0, err
	}
	return len(p), nil
}

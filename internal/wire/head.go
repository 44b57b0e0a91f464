package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
)

// The head parsers. They read what net/http's ReadRequest and ReadResponse
// read — the start line, then the header fields as textproto does — and frame
// the body by the same rules, with two exceptions. A message that declares
// both a chunked Transfer-Encoding and a Content-Length is refused, where
// net/http drops the length and reads it chunked (RFC 9112 §6.3 lets a
// recipient do either, and the combination is the classic request-smuggling
// shape). An empty Content-Length is refused, where net/http under this
// module's go 1.21 GODEBUG defaults (httplaxcontentlength=1) reads it as no
// length. FuzzReadRequestHead holds both parsers to net/http's.

// ErrVersion is a request whose HTTP version is not 1.x; a Server answers
// it 505.
var ErrVersion = errors.New("wire: HTTP version not supported")

// headError is a malformed head.
type headError struct{ what, value string }

func (e *headError) Error() string { return fmt.Sprintf("wire: %s: %q", e.what, e.value) }

// ReadRequestHead reads a request head off br and frames its body, which
// reads from br: a Content-Length body, a chunked one, or none. A request
// whose version is not 1.x is ErrVersion once its head is read. A
// connection that ends inside the head is io.ErrUnexpectedEOF; one that
// ends before it, io.EOF.
func ReadRequestHead(br *bufio.Reader) (req *Request, err error) {
	b, err := readLine(br)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}()
	line := string(b)
	method, rest, ok1 := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 {
		return nil, &headError{"malformed request line", line}
	}
	if !validMethod(method) {
		return nil, &headError{"invalid method", method}
	}
	major, minor, ok := parseVersion(proto)
	if !ok {
		return nil, &headError{"malformed HTTP version", proto}
	}
	// A CONNECT target is an authority, not a path.
	authority := method == "CONNECT" && !strings.HasPrefix(target, "/")
	if authority {
		target = "http://" + target
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return nil, &headError{"malformed request target", target}
	}
	if authority {
		u.Scheme = ""
	}
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if len(h["Host"]) > 1 {
		return nil, &headError{"too many Host headers", strings.Join(h["Host"], ", ")}
	}
	if major != 1 {
		return nil, ErrVersion
	}
	req = &Request{Method: method, URL: u, ProtoMinor: minor, Header: h, Host: u.Host}
	if req.Host == "" {
		req.Host = h.Get("Host")
	}
	delete(h, "Host") // it is req.Host
	hasClose := h.HasToken("Connection", "close")
	req.Close = hasClose || (minor == 0 && !h.HasToken("Connection", "keep-alive"))
	chunked, n, err := framing(h, minor >= 1)
	if err != nil {
		return nil, err
	}
	switch {
	case chunked:
		req.ContentLength, req.Body = -1, &chunkedReader{r: br}
	case n > 0:
		req.ContentLength, req.Body = n, &fixedReader{r: br, n: n}
	default:
		req.Body = noBody{}
	}
	return req, nil
}

// ReadResponseHead reads the head of the response to a method request off
// br and frames its body, which reads from br: none for a HEAD request or
// a 1xx, 204 or 304 status, else a Content-Length body, a chunked one, or
// one that runs to the connection's end. A connection that ends inside or
// before the head is io.ErrUnexpectedEOF.
func ReadResponseHead(br *bufio.Reader, method string) (resp *Response, err error) {
	defer func() {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}()
	b, err := readLine(br)
	if err != nil {
		return nil, err
	}
	line := string(b)
	proto, status, ok := strings.Cut(line, " ")
	if !ok {
		return nil, &headError{"malformed HTTP response", line}
	}
	status = strings.TrimLeft(status, " ")
	code, _, _ := strings.Cut(status, " ")
	resp = &Response{Status: status}
	if len(code) != 3 {
		return nil, &headError{"malformed HTTP status code", code}
	}
	if resp.StatusCode, err = strconv.Atoi(code); err != nil || resp.StatusCode < 0 {
		return nil, &headError{"malformed HTTP status code", code}
	}
	major, minor, ok := parseVersion(proto)
	if !ok {
		return nil, &headError{"malformed HTTP version", proto}
	}
	if major == 0 && minor == 0 {
		major, minor = 1, 1 // as net/http frames HTTP/0.0
	}
	if resp.Header, err = readHeader(br); err != nil {
		return nil, err
	}
	chunked, n, err := framing(resp.Header, major > 1 || major == 1 && minor >= 1)
	if err != nil {
		return nil, err
	}
	c := resp.StatusCode
	switch {
	case method == MethodHead || c/100 == 1 || c == StatusNoContent || c == StatusNotModified:
		resp.Body = noBody{}
		if method == MethodHead && resp.Header["Content-Length"] != nil {
			resp.ContentLength = n
		}
	case chunked:
		resp.ContentLength, resp.Body = -1, &chunkedReader{r: br}
	case resp.Header["Content-Length"] != nil:
		resp.ContentLength, resp.Body = n, &fixedReader{r: br, n: n}
	default:
		resp.ContentLength, resp.Body = -1, io.NopCloser(br)
	}
	return resp, nil
}

// framing reads a message's body framing out of h, as net/http does but
// for the refusals above: Transfer-Encoding, which only HTTP/1.1 and later
// honour (http11) and then only as one "chunked", is removed from h;
// Content-Length values must agree, and are folded into one. n is the
// length, 0 when none is declared.
func framing(h Header, http11 bool) (chunked bool, n int64, err error) {
	if te, ok := h["Transfer-Encoding"]; ok {
		delete(h, "Transfer-Encoding")
		if http11 {
			if len(te) != 1 || !asciiEqualFold(te[0], "chunked") {
				return false, 0, &headError{"unsupported transfer encoding", strings.Join(te, ", ")}
			}
			chunked = true
		}
	}
	cls := h["Content-Length"]
	if len(cls) > 0 {
		first := trimString(cls[0])
		for _, cl := range cls[1:] {
			if trimString(cl) != first {
				return false, 0, &headError{"conflicting Content-Length headers", strings.Join(cls, ", ")}
			}
		}
		if len(cls) > 1 {
			h["Content-Length"] = []string{first}
		}
		if chunked {
			return false, 0, &headError{"both Transfer-Encoding and Content-Length", first}
		}
		v, perr := strconv.ParseUint(first, 10, 63)
		if perr != nil {
			return false, 0, &headError{"bad Content-Length", first}
		}
		n = int64(v)
	}
	if chunked {
		err = checkTrailer(h)
	}
	return chunked, n, err
}

// checkTrailer removes the Trailer announcement of a chunked message and
// refuses one that announces a framing field.
func checkTrailer(h Header) error {
	vs, ok := h["Trailer"]
	if !ok {
		return nil
	}
	delete(h, "Trailer")
	for _, v := range vs {
		for _, k := range strings.Split(v, ",") {
			switch CanonicalHeaderKey(trimString(k)) {
			case "Transfer-Encoding", "Trailer", "Content-Length":
				return &headError{"bad trailer key", k}
			}
		}
	}
	return nil
}

// parseVersion parses "HTTP/x.y" with one-digit x and y.
func parseVersion(v string) (major, minor int, ok bool) {
	switch v {
	case "HTTP/1.1":
		return 1, 1, true
	case "HTTP/1.0":
		return 1, 0, true
	}
	if len(v) != len("HTTP/x.y") || !strings.HasPrefix(v, "HTTP/") || v[6] != '.' ||
		!isDigit(v[5]) || !isDigit(v[7]) {
		return 0, 0, false
	}
	return int(v[5] - '0'), int(v[7] - '0'), true
}

// validMethod reports whether m is an RFC 9110 token.
func validMethod(m string) bool {
	if m == "" {
		return false
	}
	for i := 0; i < len(m); i++ {
		c := m[i]
		if c >= 0x7f || c <= ' ' || strings.IndexByte(`"(),/:;<=>?@[\]{}`, c) >= 0 {
			return false
		}
	}
	return true
}

// asciiEqualFold is strings.EqualFold for ASCII letters only: "chunKed"
// with a Kelvin sign is not "chunked".
func asciiEqualFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if lower(a[i]) != lower(b[i]) {
			return false
		}
	}
	return true
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// noBody is the body of a message without one.
type noBody struct{}

func (noBody) Read([]byte) (int, error) { return 0, io.EOF }
func (noBody) Close() error             { return nil }

// fixedReader reads a Content-Length body; a connection that ends before
// it is io.ErrUnexpectedEOF.
type fixedReader struct {
	r *bufio.Reader
	n int64
}

func (f *fixedReader) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > f.n {
		p = p[:f.n]
	}
	n, err := f.r.Read(p)
	f.n -= int64(n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (f *fixedReader) Close() error { return nil }

// maxChunkLine bounds a chunk-size line and a trailer line.
const maxChunkLine = 4096

var errChunkLine = errors.New("wire: malformed chunk size line")

// chunkedReader reads a chunked body: each chunk's data, and io.EOF after
// the last chunk and the trailer section, which it skips. As net/http's, it
// refuses a body whose framing outweighs its data — more than 16 KiB of
// chunk lines beyond 16 bytes per chunk and twice the data — and a trailer
// section that does not end within the reader's buffer.
type chunkedReader struct {
	r      *bufio.Reader
	n      uint64 // data left in the current chunk
	crlf   bool   // the current chunk's data is read, its CRLF is not
	excess int64  // framing bytes read beyond the allowance
	err    error
}

func (cr *chunkedReader) Read(p []byte) (int, error) {
	for cr.err == nil {
		if cr.crlf {
			if b, err := cr.r.Peek(2); err != nil || b[0] != '\r' || b[1] != '\n' {
				cr.err = eofIsUnexpected(err, errChunkLine)
				break
			}
			cr.r.Discard(2)
			cr.crlf = false
		}
		if cr.n == 0 {
			cr.next()
			continue
		}
		if len(p) == 0 {
			return 0, nil
		}
		if uint64(len(p)) > cr.n {
			p = p[:cr.n]
		}
		n, err := cr.r.Read(p)
		cr.n -= uint64(n)
		cr.crlf = cr.n == 0
		if err != nil {
			cr.err = eofIsUnexpected(err, err)
		}
		if n > 0 {
			return n, nil
		}
	}
	return 0, cr.err
}

func (cr *chunkedReader) Close() error { return nil }

// next reads a chunk-size line; the last chunk's trailer section is read
// and dropped, and ends the body.
func (cr *chunkedReader) next() {
	line, err := chunkLine(cr.r)
	if err != nil {
		cr.err = err
		return
	}
	cr.excess += int64(len(line)) + 2
	if line, _, _ = bytes.Cut(line, []byte(";")); len(line) == 0 || len(line) > 16 {
		cr.err = errChunkLine
		return
	}
	var n uint64
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= lower(c) && lower(c) <= 'f':
			c = lower(c) - 'a' + 10
		default:
			cr.err = errChunkLine
			return
		}
		n = n<<4 | uint64(c)
	}
	if cr.excess = max(cr.excess-16-2*int64(n), 0); cr.excess > 16<<10 {
		cr.err = errors.New("wire: chunked encoding contains too much non-data")
		return
	}
	if cr.n = n; n == 0 {
		cr.err = cr.trailer()
	}
}

// trailer reads and drops the trailer section after the last chunk: an
// empty line, or header fields that must end within the reader's buffer.
// Its end is the body's.
func (cr *chunkedReader) trailer() error {
	b, err := cr.r.Peek(2)
	switch {
	case len(b) == 2 && b[0] == '\r' && b[1] == '\n':
		cr.r.Discard(2)
		return io.EOF
	case len(b) < 2:
		return eofIsUnexpected(err, io.ErrUnexpectedEOF)
	}
	for n := 4; ; n++ {
		b, err := cr.r.Peek(n)
		if bytes.HasSuffix(b, []byte("\r\n\r\n")) {
			break
		}
		if err != nil {
			return errors.New("wire: trailer does not end within the buffer")
		}
	}
	if _, err := readHeader(cr.r); err != nil {
		return eofIsUnexpected(err, err)
	}
	return io.EOF
}

// chunkLine reads one line of the chunked framing, without its line end
// and trailing white space.
func chunkLine(r *bufio.Reader) ([]byte, error) {
	b, err := r.ReadSlice('\n')
	if err != nil || len(b) >= maxChunkLine {
		return nil, eofIsUnexpected(err, errChunkLine)
	}
	return bytes.TrimRight(b, " \t\r\n"), nil
}

// eofIsUnexpected is err with io.EOF turned into io.ErrUnexpectedEOF, or
// otherwise when err is nil.
func eofIsUnexpected(err, otherwise error) error {
	switch err {
	case nil:
		return otherwise
	case io.EOF:
		return io.ErrUnexpectedEOF
	}
	return err
}

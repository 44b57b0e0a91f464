package wire

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/textproto"
	"reflect"
	"strings"
	"testing"
)

// headSeeds are request and response heads for FuzzReadRequestHead: the
// daemons' own requests, the framings, and the shapes both parsers refuse.
var headSeeds = []string{
	"POST /channels/a/observe HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
	"GET /watch?channel=a&last_id=3 HTTP/1.1\r\nHost: x\r\nLast-Event-ID: 2\r\n\r\n",
	"PUT /channels/a/snapshot HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
	"GET /live/a HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\nConnection: keep-alive, Upgrade\r\nSec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\nSec-WebSocket-Version: 13\r\nLast-Seq: 7\r\n\r\n",
	"GET / HTTP/1.0\r\nConnection: keep-alive\r\nTransfer-Encoding: gzip\r\nContent-Length: 0\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n0\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
	"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nTrailer: Content-Length\r\n\r\n0\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n3;ext=1\r\nabc\r\n0\r\nX-Sum: 1\r\n\r\n",
	"GET http://example.com/p?q=1 HTTP/1.1\r\nHost: other\r\nPragma: no-cache\r\n\r\n",
	"CONNECT example.com:443 HTTP/1.1\r\nHost: example.com:443\r\n\r\n",
	"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
	"GET /%zz HTTP/1.1\r\n\r\n",
	"G\x7fT / HTTP/1.1\r\n\r\n",
	"get /lf HTTP/1.1\nhost: x\nx-aovlis-resume: 4\n\n",
	"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n3\r\n{}\n\r\n0\r\n\r\n",
	"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 3\r\n\r\nno\n",
	"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\r\n\x81\x02hi",
	"HTTP/1.0 200 OK\r\n\r\nto the end",
	"HTTP/1.1 20 OK\r\n\r\n",
}

// FuzzReadRequestHead holds the head parsers to net/http's. The same bytes
// go to ReadRequestHead and http.ReadRequest, and to ReadResponseHead and
// http.ReadResponse: both sides must accept or refuse alike, and on accept
// agree on the method, path, query and every header value, or the status
// and every header value, and on the body's framing and bytes. Where wire
// is stricter by design, the harness asks for its refusal instead: a
// request version other than HTTP/1.x (a Server answers 505); a message
// that declares both a chunked Transfer-Encoding and a Content-Length,
// which net/http reads chunked; and an empty Content-Length, which net/http
// under this module's go 1.21 GODEBUG defaults reads as none. Header keys
// are pinned to textproto.CanonicalMIMEHeaderKey.
func FuzzReadRequestHead(f *testing.F) {
	for _, s := range headSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkRequestHead(t, in)
		checkResponseHead(t, in)
	})
}

func checkRequestHead(t *testing.T, in []byte) {
	ours, oerr := ReadRequestHead(bufio.NewReader(bytes.NewReader(in)))
	theirs, terr := http.ReadRequest(bufio.NewReader(bytes.NewReader(in)))
	switch {
	case terr == nil && theirs.ProtoMajor != 1:
		if oerr != ErrVersion {
			t.Fatalf("HTTP/%d.%d request: %v, want ErrVersion", theirs.ProtoMajor, theirs.ProtoMinor, oerr)
		}
		return
	case terr == nil && stricter(in, theirs.TransferEncoding):
		if oerr == nil {
			t.Fatalf("a request with both framings or an empty length was accepted")
		}
		return
	case (oerr == nil) != (terr == nil):
		t.Fatalf("wire: %v; net/http: %v", oerr, terr)
	case oerr != nil:
		return
	}
	if ours.Method != theirs.Method || ours.URL.Path != theirs.URL.Path || ours.URL.RawQuery != theirs.URL.RawQuery ||
		ours.Host != theirs.Host || ours.ProtoMinor != theirs.ProtoMinor {
		t.Fatalf("wire read %s %q ?%q host %q 1.%d; net/http %s %q ?%q host %q 1.%d", ours.Method, ours.URL.Path,
			ours.URL.RawQuery, ours.Host, ours.ProtoMinor, theirs.Method, theirs.URL.Path, theirs.URL.RawQuery,
			theirs.Host, theirs.ProtoMinor)
	}
	sameHeader(t, ours.Header, theirs.Header)
	sameBody(t, ours.ContentLength, theirs.ContentLength, len(theirs.TransferEncoding) > 0, ours.Body, theirs.Body)
}

func checkResponseHead(t *testing.T, in []byte) {
	ours, oerr := ReadResponseHead(bufio.NewReader(bytes.NewReader(in)), MethodGet)
	theirs, terr := http.ReadResponse(bufio.NewReader(bytes.NewReader(in)), &http.Request{Method: MethodGet})
	switch {
	case terr == nil && stricter(in, theirs.TransferEncoding):
		if oerr == nil {
			t.Fatalf("a response with both framings or an empty length was accepted")
		}
		return
	case (oerr == nil) != (terr == nil):
		t.Fatalf("wire: %v; net/http: %v", oerr, terr)
	case oerr != nil:
		return
	}
	if ours.StatusCode != theirs.StatusCode || ours.Status != theirs.Status {
		t.Fatalf("wire read %q (%d); net/http %q (%d)", ours.Status, ours.StatusCode, theirs.Status, theirs.StatusCode)
	}
	sameHeader(t, ours.Header, theirs.Header)
	sameBody(t, ours.ContentLength, theirs.ContentLength, len(theirs.TransferEncoding) > 0, ours.Body, theirs.Body)
}

// stricter reports whether wire refuses what net/http accepted from in:
// a message net/http read as chunked though it declared a Content-Length
// too, or one whose Content-Length is empty.
func stricter(in []byte, te []string) bool {
	tp := textproto.NewReader(bufio.NewReader(bytes.NewReader(in)))
	tp.ReadLine()
	h, _ := tp.ReadMIMEHeader()
	cl := h["Content-Length"]
	return cl != nil && (len(te) > 0 || textproto.TrimString(cl[0]) == "")
}

// sameHeader compares the parsed headers, less net/http's one addition: a
// Cache-Control: no-cache for a Pragma: no-cache (RFC 7234 §5.4).
func sameHeader(t *testing.T, ours Header, theirs http.Header) {
	if p := ours["Pragma"]; len(p) > 0 && p[0] == "no-cache" && ours["Cache-Control"] == nil {
		delete(theirs, "Cache-Control")
	}
	if !reflect.DeepEqual(map[string][]string(ours), map[string][]string(theirs)) {
		t.Fatalf("headers differ:\nwire     %q\nnet/http %q", ours, theirs)
	}
	for k, vs := range ours {
		if k != textproto.CanonicalMIMEHeaderKey(k) {
			t.Fatalf("key %q is not canonical", k)
		}
		// A key that is not a token (textproto leaves it as sent) is found
		// only as it is.
		if lk := strings.ToLower(k); textproto.CanonicalMIMEHeaderKey(lk) == k && ours.Get(lk) != vs[0] {
			t.Fatalf("Get(%q) = %q, want %q", lk, ours.Get(lk), vs[0])
		}
	}
}

// sameBody compares the framing — a length, or chunked — and the bytes
// each body reads, and whether each ends in an error.
func sameBody(t *testing.T, olen, tlen int64, tchunked bool, ob, tb io.Reader) {
	if ochunked := olen == -1 && tchunked; ochunked != tchunked || (!tchunked && olen != tlen) {
		t.Fatalf("framing: wire length %d; net/http length %d, chunked %v", olen, tlen, tchunked)
	}
	obytes, oerr := io.ReadAll(ob)
	tbytes, terr := io.ReadAll(tb)
	if !bytes.Equal(obytes, tbytes) || (oerr == nil) != (terr == nil) {
		t.Fatalf("body: wire %q, %v; net/http %q, %v", obytes, oerr, tbytes, terr)
	}
}

// TestHeaderCanonicalKeys: Header files every key under
// textproto.CanonicalMIMEHeaderKey, so an http.Header converts to it as it
// is.
func TestHeaderCanonicalKeys(t *testing.T) {
	h := Header{}
	for _, k := range []string{"x-aovlis-resume", "LAST-SEQ", "sec-websocket-key", "content-length", "x_under"} {
		h.Set(k, "v")
		if _, ok := h[textproto.CanonicalMIMEHeaderKey(k)]; !ok || h.Get(k) != "v" {
			t.Fatalf("Set(%q) filed %v", k, h)
		}
	}
	hh := http.Header{}
	hh.Add("last-seq", "3")
	if Header(hh).Get("Last-Seq") != "3" {
		t.Fatalf("converted http.Header: %v", hh)
	}
}

// FuzzCanonicalHeaderKey pins CanonicalHeaderKey, which files every Header
// key, to textproto.CanonicalMIMEHeaderKey: the same key for every string,
// so that a Header keeps converting to and from an http.Header as it is,
// and Get, Set and Del find what the head parsers filed.
func FuzzCanonicalHeaderKey(f *testing.F) {
	for _, s := range []string{"", "content-length", "CONTENT-TYPE", "x-aovlis-resume", "last-seq",
		"sec-websocket-key", "a-", "-a", "x_under", "with space", "bad:colon", "uniçode", "Host", "te\x7f"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := textproto.CanonicalMIMEHeaderKey(s)
		if got := CanonicalHeaderKey(s); got != want {
			t.Fatalf("CanonicalHeaderKey(%q) = %q, textproto %q", s, got, want)
		}
		h := Header{}
		h.Set(s, "v")
		if _, ok := h[want]; !ok || h.Get(s) != "v" || len(h.Values(s)) != 1 {
			t.Fatalf("Set(%q) filed %q", s, h)
		}
		if h.Del(s); len(h) != 0 {
			t.Fatalf("Del(%q) left %q", s, h)
		}
	})
}

package wire

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// served is a Server on a loopback port.
type served struct {
	URL  string
	Addr string
	srv  *Server
}

// testServer serves h on a loopback port until the test ends.
func testServer(t testing.TB, h HandlerFunc) *served {
	t.Helper()
	return serveWith(t, &Server{Handler: h})
}

func serveWith(t testing.TB, srv *Server) *served {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return &served{URL: "http://" + l.Addr(), Addr: l.Addr(), srv: srv}
}

// dialRaw opens a plain connection to a served address, closed when the
// test ends, with a reader over it.
func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, bufio.NewReader(c)
}

// readResp reads one response and its whole body off br.
func readResp(t *testing.T, br *bufio.Reader, method string) (*http.Response, string) {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// expectClosed fails unless the server ends the connection with nothing
// more to read.
func expectClosed(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if b, err := br.ReadByte(); err == nil {
		t.Fatalf("connection still open: read %q", b)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection still open: read timed out")
	}
}

// TestServeSteadyStateAllocs: a warm full-duplex chunked NDJSON exchange
// through Server — one chunk of one line in, one flushed decision line out —
// allocates nothing, client and server together.
func TestServeSteadyStateAllocs(t *testing.T) {
	dec := []byte(`{"channel":"a","seq":0,"anomaly":false,"score":1.5}` + "\n")
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		next, out := ScanLines(r.Body), NewLineWriter(w)
		for {
			if _, err := next(); err != nil {
				return
			}
			out.WriteLine(dec)
			out.Flush()
		}
	})
	s := open(t, srv.URL)
	defer s.Abort()
	line := append(canonicalLine(), '\n')
	roundTrip := func() {
		if err := s.WriteLine(line); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if d, err := s.Next(); err != nil || !bytes.Equal(d, dec[:len(dec)-1]) {
			t.Fatalf("decision %q, %v", d, err)
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(2000, roundTrip); n != 0 {
		t.Fatalf("a warm round trip allocates %v times, want 0", n)
	}
	if err := s.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("end: %v, want io.EOF", err)
	}
}

// TestServeFraming: a body that ends before its first flush goes out with
// a Content-Length, a flushed one chunked; an HTTP/1.0 client gets the body
// delimited by the connection's close. Two pipelined requests are answered
// in order on one connection, a header value cannot inject a line, and a
// body whose handler set no Content-Type goes without one (it is not
// sniffed).
func TestServeFraming(t *testing.T) {
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		w.Header().Set("X-Echo", r.URL.Query().Get("echo"))
		io.WriteString(w, "hello ")
		if r.URL.Path == "/flushed" {
			w.Flush()
		}
		io.WriteString(w, r.URL.Path)
	})
	c, br := dialRaw(t, srv.Addr)
	io.WriteString(c, "GET /small?echo=a%0d%0aEvil:%201 HTTP/1.1\r\nHost: x\r\n\r\nGET /flushed HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, body := readResp(t, br, "GET")
	if resp.ContentLength != int64(len("hello /small")) || body != "hello /small" || len(resp.TransferEncoding) != 0 {
		t.Fatalf("unflushed body: length %d, encoding %v, body %q", resp.ContentLength, resp.TransferEncoding, body)
	}
	if resp.Header.Get("Evil") != "" || resp.Header.Get("X-Echo") != "a  Evil: 1" {
		t.Fatalf("header injection: X-Echo %q, Evil %q", resp.Header.Get("X-Echo"), resp.Header.Get("Evil"))
	}
	if got, ok := resp.Header["Content-Type"]; ok {
		t.Fatalf("sniffed Content-Type %q", got)
	}
	resp, body = readResp(t, br, "GET")
	if resp.ContentLength != -1 || len(resp.TransferEncoding) != 1 || body != "hello /flushed" {
		t.Fatalf("flushed body: length %d, encoding %v, body %q", resp.ContentLength, resp.TransferEncoding, body)
	}

	c, br = dialRaw(t, srv.Addr)
	io.WriteString(c, "GET /flushed HTTP/1.0\r\n\r\n")
	resp, body = readResp(t, br, "GET")
	if resp.ProtoMinor != 0 || !resp.Close || body != "hello /flushed" {
		t.Fatalf("HTTP/1.0: proto %s, close %v, body %q", resp.Proto, resp.Close, body)
	}
	expectClosed(t, br)
}

// TestServeHeadWritesNoBody: a HEAD response carries the handler's headers
// and no body, and the connection stays in step for the next request.
func TestServeHeadWritesNoBody(t *testing.T) {
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "a body HEAD must not send")
	})
	c, br := dialRaw(t, srv.Addr)
	io.WriteString(c, "HEAD / HTTP/1.1\r\nHost: x\r\n\r\nGET / HTTP/1.1\r\nHost: x\r\n\r\n")
	if resp, body := readResp(t, br, "HEAD"); resp.StatusCode != 200 || body != "" {
		t.Fatalf("HEAD: %s, body %q", resp.Status, body)
	}
	if resp, body := readResp(t, br, "GET"); resp.StatusCode != 200 || body != "a body HEAD must not send" {
		t.Fatalf("GET after HEAD: %s, body %q", resp.Status, body)
	}
}

// TestServeCancelsWhenClientGoes: the request context ends when the
// client goes away — for a request without a body at once, for one with a
// body once the body is consumed — through the loop's background read.
func TestServeCancelsWhenClientGoes(t *testing.T) {
	cancelled := make(chan string, 2)
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("up\n"))
		w.Flush()
		select {
		case <-r.Context().Done():
			cancelled <- r.Method
		case <-time.After(5 * time.Second):
			cancelled <- "never"
		}
	})
	for _, req := range []string{
		"GET /watch HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /observe HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
	} {
		c, br := dialRaw(t, srv.Addr)
		io.WriteString(c, req)
		if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != 200 {
			t.Fatalf("response: %v", err)
		}
		if line, err := br.ReadString('\n'); err != nil || line != "3\r\n" {
			t.Fatalf("first chunk: %q, %v", line, err)
		}
		c.Close()
		if got, want := <-cancelled, req[:strings.IndexByte(req, ' ')]; got != want {
			t.Fatalf("%s request: context cancelled %q", want, got)
		}
	}
}

// TestServeHijackHandsOverBufferedBytes: what the loop has read of what the
// client sent behind the request head is in the hijacker's reader — sent
// with the head, or after it, when the background read took its first byte.
func TestServeHijackHandsOverBufferedBytes(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		if r.URL.Path == "/late" {
			entered <- struct{}{}
			<-release
		}
		conn, brw, err := w.Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		// Take what the reader holds, then the rest off the connection
		// itself, as a tunnel splicing the raw sockets does.
		got, _ := brw.Peek(brw.Reader.Buffered())
		rest := make([]byte, 9-len(got))
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadFull(conn, rest); err != nil {
			t.Errorf("reading past the buffered %q: %v", got, err)
			return
		}
		io.WriteString(conn, "got "+string(got)+string(rest))
	})
	c, br := dialRaw(t, srv.Addr)
	io.WriteString(c, "GET /up HTTP/1.1\r\nHost: x\r\nUpgrade: test\r\n\r\npipelined")
	if b, err := io.ReadAll(br); err != nil || string(b) != "got pipelined" {
		t.Fatalf("after hijack: %q, %v", b, err)
	}

	c, br = dialRaw(t, srv.Addr)
	io.WriteString(c, "GET /late HTTP/1.1\r\nHost: x\r\nUpgrade: test\r\n\r\n")
	<-entered
	io.WriteString(c, "pipelined")
	time.Sleep(20 * time.Millisecond) // the background read takes the first byte
	close(release)
	if b, err := io.ReadAll(br); err != nil || string(b) != "got pipelined" {
		t.Fatalf("after a late hijack: %q, %v", b, err)
	}
}

// TestServeExpectContinue: 100 Continue goes out when the handler first
// reads the body, and not at all when the handler answers without reading
// it — the client keeps its body, and the connection closes.
func TestServeExpectContinue(t *testing.T) {
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		if r.URL.Path == "/refuse" {
			Error(w, "too large", http.StatusRequestEntityTooLarge)
			return
		}
		b, _ := io.ReadAll(r.Body)
		w.Write(b)
	})
	const head = " HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n"
	c, br := dialRaw(t, srv.Addr)
	io.WriteString(c, "PUT /echo"+head)
	if line, err := br.ReadString('\n'); err != nil || line != "HTTP/1.1 100 Continue\r\n" {
		t.Fatalf("interim line %q, %v", line, err)
	}
	if line, _ := br.ReadString('\n'); line != "\r\n" {
		t.Fatalf("interim head ends with %q", line)
	}
	io.WriteString(c, "hello")
	if resp, body := readResp(t, br, "PUT"); resp.StatusCode != 200 || body != "hello" {
		t.Fatalf("echo: %s %q", resp.Status, body)
	}

	c, br = dialRaw(t, srv.Addr)
	io.WriteString(c, "PUT /refuse"+head)
	if resp, _ := readResp(t, br, "PUT"); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("refusal: %s", resp.Status)
	}
	expectClosed(t, br)
}

// TestServeRefusesBadHeads: a malformed request gets 400, a head over
// MaxHeadBytes 431 and an HTTP/2 preface 505, each followed by the close.
func TestServeRefusesBadHeads(t *testing.T) {
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		t.Errorf("handler called for %s %s", r.Method, r.URL)
	})
	for _, c := range []struct {
		req  string
		want int
	}{
		{"GARBAGE\r\n\r\n", http.StatusBadRequest},
		{"GET / HTTP/1.1\r\nHost: x\r\nNo colon here\r\n\r\n", http.StatusBadRequest},
		{"GET /%zz HTTP/1.1\r\nHost: x\r\n\r\n", http.StatusBadRequest},
		{"GET / HTTP/1.1\r\nX-Big: " + strings.Repeat("a", 2*MaxHeadBytes) + "\r\n\r\n", http.StatusRequestHeaderFieldsTooLarge},
		{"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n", http.StatusHTTPVersionNotSupported},
		{"GET / HTTP/1.1\r\nHost: x\r\nExpect: tea\r\n\r\n", http.StatusExpectationFailed},
	} {
		conn, br := dialRaw(t, srv.Addr)
		go io.WriteString(conn, c.req) // the server stops reading an oversize head
		if resp, _ := readResp(t, br, "GET"); resp.StatusCode != c.want {
			t.Fatalf("%.40q: %s, want %d", c.req, resp.Status, c.want)
		}
		expectClosed(t, br)
	}
}

// TestServeHandlerPanic: a panicking handler costs its connection, not the
// process, and the panic is logged.
func TestServeHandlerPanic(t *testing.T) {
	var logged lockedBuffer // the connection's goroutine writes it
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		if r.URL.Path == "/boom" {
			panic("boom")
		}
		io.WriteString(w, "fine")
	})
	c, br := dialRaw(t, srv.Addr)
	io.WriteString(c, "GET /boom HTTP/1.1\r\nHost: x\r\n\r\n")
	expectClosed(t, br)
	c, br = dialRaw(t, srv.Addr)
	io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	if _, body := readResp(t, br, "GET"); body != "fine" {
		t.Fatalf("after the panic: %q", body)
	}
	if out := logged.String(); !strings.Contains(out, "panic serving") || !strings.Contains(out, "boom") {
		t.Fatalf("log: %q, want the boom panic", out)
	}
}

// lockedBuffer is a bytes.Buffer that one goroutine may write while
// another reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestServeDrainsSmallUnreadBody: a handler that leaves up to maxDrain of
// its body unread keeps the connection; a larger unread body closes it
// after the response.
func TestServeDrainsSmallUnreadBody(t *testing.T) {
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		io.WriteString(w, "ignored")
	})
	for _, c := range []struct {
		size int
		kept bool
	}{{100 << 10, true}, {maxDrain + 64<<10, false}} {
		for _, chunked := range []bool{false, true} {
			conn, br := dialRaw(t, srv.Addr)
			body := strings.Repeat("x", c.size)
			req := "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " + strconv.Itoa(c.size) + "\r\n\r\n" + body
			if chunked {
				req = "POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n" +
					strconv.FormatInt(int64(c.size), 16) + "\r\n" + body + "\r\n0\r\n\r\n"
			}
			go io.WriteString(conn, req+"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
			if resp, body := readResp(t, br, "POST"); resp.StatusCode != 200 || body != "ignored" {
				t.Fatalf("%d bytes unread: %s %q", c.size, resp.Status, body)
			}
			if !c.kept {
				expectClosed(t, br)
				continue
			}
			if resp, _ := readResp(t, br, "GET"); resp.StatusCode != 200 {
				t.Fatalf("next request after %d bytes unread: %s", c.size, resp.Status)
			}
		}
	}
}

// TestServeShutdown: Shutdown stops accepting, closes idle connections at
// once, waits for an active request, and gives up when its context ends;
// a hijacked connection does not hold it.
func TestServeShutdown(t *testing.T) {
	release, entered := make(chan struct{}), make(chan string, 4)
	srv := &Server{Handler: HandlerFunc(func(w ResponseWriter, r *Request) {
		entered <- r.URL.Path
		switch r.URL.Path {
		case "/slow":
			<-release
		case "/hijack":
			conn, _, _ := w.Hijack()
			t.Cleanup(func() { conn.Close() })
			return
		}
		io.WriteString(w, "done")
	})}
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	addr := l.Addr()

	idle, idleR := dialRaw(t, addr)
	io.WriteString(idle, "GET /idle HTTP/1.1\r\nHost: x\r\n\r\n")
	readResp(t, idleR, "GET")
	hj, _ := dialRaw(t, addr)
	io.WriteString(hj, "GET /hijack HTTP/1.1\r\nHost: x\r\n\r\n")
	slow, slowR := dialRaw(t, addr)
	io.WriteString(slow, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
	for i := 0; i < 3; i++ {
		<-entered // /idle, then /hijack and /slow in either order
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown with a request in flight: %v, want the deadline", err)
	}
	if err := <-served; err != ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("still accepting after Shutdown")
	}
	expectClosed(t, idleR)

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with /slow still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	resp, body := readResp(t, slowR, "GET")
	if body != "done" || !resp.Close {
		t.Fatalf("/slow during Shutdown: %q, close %v", body, resp.Close)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// fuzzConn is a connection whose client is a fixed byte string: reads take
// it in order and then end, writes collect what the server answers.
type fuzzConn struct {
	mu  sync.Mutex
	in  []byte
	out bytes.Buffer
}

var fuzzAddr = &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}

func (c *fuzzConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *fuzzConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}

func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return fuzzAddr }
func (c *fuzzConn) RemoteAddr() net.Addr             { return fuzzAddr }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzServe feeds arbitrary bytes to one served connection. The loop must
// not panic, must hand no handler a head longer than its limit could have
// buffered, and must answer in well-formed responses: one 200 per handler
// call (after a 100 Continue where one was asked for), or a refusal — 400,
// 417, 431 or 505 — that is the last thing on the connection.
func FuzzServe(f *testing.F) {
	const maxHead = 1 << 10
	for _, seed := range []string{
		"POST /observe HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: x\r\n\r\nHEAD /b HTTP/1.1\r\nHost: x\r\n\r\n",
		"PUT /s HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\nhello",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"GET / HTTP/1.1\r\nX-Big: " + strings.Repeat("a", 2*maxHead) + "\r\n\r\n",
		"GET /lf HTTP/1.1\nHost: x\n\nGET /flush HTTP/1.0\n\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var methods []string
		h := func(w ResponseWriter, r *Request) {
			head := len(r.Method) + len(r.URL.RequestURI()) + len("HTTP/1.x") + 4
			for k, vs := range r.Header {
				for _, v := range vs {
					head += len(k) + len(v) + 4
				}
			}
			if head > maxHead+serverBuf {
				t.Errorf("a %d-byte head reached the handler; the limit buffers at most %d", head, maxHead+serverBuf)
			}
			methods = append(methods, r.Method)
			n, _ := io.Copy(io.Discard, io.LimitReader(r.Body, 1<<20))
			fmt.Fprintf(w, "%d bytes", n)
			if r.URL.Path == "/flush" {
				w.Flush()
			}
		}
		c := &fuzzConn{in: in}
		newConn(&Server{Handler: HandlerFunc(h), maxHead: maxHead}, c).serve()

		out := c.out.String()
		br := bufio.NewReader(strings.NewReader(out))
		answered := 0
		for {
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			method := http.MethodGet
			if answered < len(methods) {
				method = methods[answered]
			}
			resp, err := http.ReadResponse(br, &http.Request{Method: method})
			if err != nil {
				t.Fatalf("unreadable answer after %d responses: %v\n%q", answered, err, out)
			}
			if _, err := io.ReadAll(resp.Body); err != nil {
				t.Fatalf("unreadable body of a %s: %v", resp.Status, err)
			}
			switch resp.StatusCode {
			case http.StatusContinue:
			case http.StatusOK:
				answered++
			case http.StatusBadRequest, http.StatusExpectationFailed,
				http.StatusRequestHeaderFieldsTooLarge, http.StatusHTTPVersionNotSupported:
				if br.Buffered() > 0 {
					t.Fatalf("%s followed by more: %q", resp.Status, out)
				}
			default:
				t.Fatalf("status %s", resp.Status)
			}
		}
		if answered != len(methods) {
			t.Fatalf("%d handler calls, %d responses", len(methods), answered)
		}
	})
}

package liveplane

import (
	"bufio"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// echoServer upgrades and echoes every data message back; errc receives
// the read-loop's terminal error (one handler at a time in these tests).
func echoServer(t *testing.T, opts *Options) (*wiretest.Server, chan error) {
	t.Helper()
	errc := make(chan error, 16)
	srv := wiretest.NewServer(t, wire.HandlerFunc(func(w wire.ResponseWriter, r *wire.Request) {
		c, err := Upgrade(w, r, opts)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			op, msg, err := c.ReadMessage()
			if err != nil {
				errc <- err
				return
			}
			if err := c.WriteMessage(op, msg); err != nil {
				errc <- err
				return
			}
		}
	}))
	return srv, errc
}

// rawHandshake sends a hand-built upgrade request and returns the
// response — the seam for the bad-handshake table (http.Client would
// refuse to send half of these).
func rawHandshake(t *testing.T, addr string, lines []string) *http.Response {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	req := strings.Join(lines, "\r\n") + "\r\n\r\n"
	if _, err := nc.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(nc), &http.Request{Method: http.MethodGet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func validKey() string {
	return base64.StdEncoding.EncodeToString([]byte("0123456789abcdef"))
}

// TestUpgradeHandshakeTable pins the handshake's refusal semantics:
// every malformed upgrade is refused with a plain HTTP status before any
// hijack, and the good one completes with the derived accept key.
func TestUpgradeHandshakeTable(t *testing.T) {
	srv, _ := echoServer(t, nil)
	host := strings.TrimPrefix(srv.URL, "http://")

	base := func(mutate func(map[string]string)) []string {
		h := map[string]string{
			"Host":                  host,
			"Upgrade":               "websocket",
			"Connection":            "Upgrade",
			"Sec-WebSocket-Key":     validKey(),
			"Sec-WebSocket-Version": "13",
		}
		if mutate != nil {
			mutate(h)
		}
		lines := []string{"GET /live/ch HTTP/1.1"}
		for k, v := range h {
			if v != "" {
				lines = append(lines, k+": "+v)
			}
		}
		return lines
	}

	cases := []struct {
		name       string
		lines      []string
		wantStatus int
		check      func(t *testing.T, resp *http.Response)
	}{
		{name: "missing upgrade header",
			lines:      base(func(h map[string]string) { h["Upgrade"] = "" }),
			wantStatus: http.StatusBadRequest},
		{name: "missing connection header",
			lines:      base(func(h map[string]string) { h["Connection"] = "keep-alive" }),
			wantStatus: http.StatusBadRequest},
		{name: "wrong upgrade product",
			lines:      base(func(h map[string]string) { h["Upgrade"] = "h2c" }),
			wantStatus: http.StatusBadRequest},
		{name: "unsupported version",
			lines:      base(func(h map[string]string) { h["Sec-WebSocket-Version"] = "8" }),
			wantStatus: http.StatusUpgradeRequired,
			check: func(t *testing.T, resp *http.Response) {
				if got := resp.Header.Get("Sec-WebSocket-Version"); got != "13" {
					t.Errorf("426 advertises version %q, want 13", got)
				}
			}},
		{name: "bad key not base64",
			lines:      base(func(h map[string]string) { h["Sec-WebSocket-Key"] = "not base64!!" }),
			wantStatus: http.StatusBadRequest},
		{name: "bad key wrong length",
			lines: base(func(h map[string]string) {
				h["Sec-WebSocket-Key"] = base64.StdEncoding.EncodeToString([]byte("short"))
			}),
			wantStatus: http.StatusBadRequest},
		{name: "good handshake",
			lines:      base(nil),
			wantStatus: http.StatusSwitchingProtocols,
			check: func(t *testing.T, resp *http.Response) {
				if got, want := resp.Header.Get("Sec-WebSocket-Accept"), AcceptKey(validKey()); got != want {
					t.Errorf("accept key %q, want %q", got, want)
				}
				if !strings.EqualFold(resp.Header.Get("Upgrade"), "websocket") {
					t.Errorf("101 without Upgrade: websocket header")
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := rawHandshake(t, host, tc.lines)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.check != nil {
				tc.check(t, resp)
			}
		})
	}

	// POST is refused by method, not header inspection.
	t.Run("wrong method", func(t *testing.T) {
		lines := append([]string{"POST /live/ch HTTP/1.1"}, base(nil)[1:]...)
		resp := rawHandshake(t, host, lines)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
	})
}

// TestAcceptKeyRFCVector pins the handshake derivation against the
// worked example in RFC 6455 §1.3.
func TestAcceptKeyRFCVector(t *testing.T) {
	if got, want := AcceptKey("dGhlIHNhbXBsZSBub25jZQ=="), "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="; got != want {
		t.Fatalf("AcceptKey = %q, want %q", got, want)
	}
}

func TestDialEchoRoundTrip(t *testing.T) {
	srv, _ := echoServer(t, nil)
	conn, _, err := Dial(srv.URL+"/live/ch", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, msg := range []string{"hello", "", strings.Repeat("x", 70000)} { // 70000 forces 64-bit length
		op := OpText
		if i == 1 {
			op = OpBinary
		}
		if err := conn.WriteMessage(op, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		gotOp, got, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if gotOp != op || string(got) != msg {
			t.Fatalf("echo %d: op %d len %d, want op %d len %d", i, gotOp, len(got), op, len(msg))
		}
	}
}

// TestScrambledMessagesReassemble is the codec half of the conformance
// harness: seeded fragment trains with interleaved pings, delivered in
// torn chunks, must reassemble bit-exactly and in order.
func TestScrambledMessagesReassemble(t *testing.T) {
	srv, _ := echoServer(t, nil)
	conn, _, err := Dial(srv.URL+"/live/ch", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc, lens := NewScrambler(1234), rand.New(rand.NewSource(1234))
	for i := 0; i < 50; i++ {
		msg := []byte(fmt.Sprintf("message-%03d-%s", i, strings.Repeat("p", lens.Intn(400))))
		if err := sc.WriteScrambled(conn, OpText, msg); err != nil {
			t.Fatal(err)
		}
		_, got, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if string(got) != string(msg) {
			t.Fatalf("message %d reassembled as %q, want %q", i, got, msg)
		}
	}
}

// TestScramblerDeterministic pins the seeded generator: equal seeds yield
// byte-identical frame trains and chunkings — the reproducibility the
// conformance suite depends on.
func TestScramblerDeterministic(t *testing.T) {
	payload := []byte(strings.Repeat("abcdefgh", 64))
	render := func(seed int64) ([]Frame, [][]byte) {
		s := NewScrambler(seed)
		frames := s.Frames(OpText, payload)
		var raw []byte
		for _, f := range frames {
			raw = f.Append(raw)
		}
		return frames, s.Chunks(raw)
	}
	f1, c1 := render(77)
	f2, c2 := render(77)
	if !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("equal seeds produced different scrambles")
	}
	f3, _ := render(78)
	if reflect.DeepEqual(f1, f3) {
		t.Fatal("different seeds produced identical scrambles (generator ignores seed?)")
	}
}

func TestPingPongKeepalive(t *testing.T) {
	srv, _ := echoServer(t, nil)
	conn, _, err := Dial(srv.URL+"/live/ch", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pongs := make(chan string, 1)
	conn.OnPong = func(p []byte) { pongs <- string(p) }
	if err := conn.WriteMessage(OpPing, []byte("keepalive-7")); err != nil {
		t.Fatal(err)
	}
	// The pong arrives before the echo of the next data message.
	if err := conn.WriteMessage(OpText, []byte("after-ping")); err != nil {
		t.Fatal(err)
	}
	_, msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "after-ping" {
		t.Fatalf("echo %q, want after-ping", msg)
	}
	select {
	case p := <-pongs:
		if p != "keepalive-7" {
			t.Fatalf("pong payload %q, want keepalive-7", p)
		}
	default:
		t.Fatal("no pong observed for the ping")
	}
}

func TestOversizedMessageClosed1009(t *testing.T) {
	srv, errc := echoServer(t, &Options{MaxMessage: 64})
	conn, _, err := Dial(srv.URL+"/live/ch", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage(OpText, []byte(strings.Repeat("z", 65))); err != nil {
		t.Fatal(err)
	}
	_, _, err = conn.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) || ce.Code != CloseTooBig {
		t.Fatalf("read after oversize = %v, want close %d", err, CloseTooBig)
	}
	if err := <-errc; err == nil {
		t.Fatal("server read loop survived an oversized frame")
	}
}

// TestOversizedAcrossFragments: the limit applies to the reassembled
// message, not only single frames.
func TestOversizedAcrossFragments(t *testing.T) {
	srv, _ := echoServer(t, &Options{MaxMessage: 64})
	conn, _, err := Dial(srv.URL+"/live/ch", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	half := []byte(strings.Repeat("q", 40))
	for i, f := range []Frame{
		{Fin: false, Op: OpText, Masked: true, MaskKey: [4]byte{1, 2, 3, 4}, Payload: half},
		{Fin: true, Op: OpContinuation, Masked: true, MaskKey: [4]byte{5, 6, 7, 8}, Payload: half},
	} {
		if err := conn.WriteFrame(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	_, _, err = conn.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) || ce.Code != CloseTooBig {
		t.Fatalf("read = %v, want close %d", err, CloseTooBig)
	}
}

// TestOversizedFragmentRefusedBeforeItsPayload: a continuation whose
// declared length would carry the message past the limit closes the
// connection with 1009 on its header alone — the server neither waits for
// nor buffers the payload, so a message never holds more than MaxMessage.
func TestOversizedFragmentRefusedBeforeItsPayload(t *testing.T) {
	srvSide, cliSide := net.Pipe()
	defer cliSide.Close()
	srv := NewConn(srvSide, nil, false, 100)
	errc := make(chan error, 1)
	go func() {
		_, _, err := srv.ReadMessage()
		srvSide.Close()
		errc <- err
	}()
	cliSide.SetDeadline(time.Now().Add(5 * time.Second))
	first := Frame{Op: OpText, Masked: true, MaskKey: [4]byte{1, 2, 3, 4}, Payload: []byte(strings.Repeat("f", 90))}
	// The continuation's header and mask only: 50 declared bytes, never sent.
	cont := []byte{0x80 | byte(OpContinuation), 0x80 | 50, 5, 6, 7, 8}
	if _, err := cliSide.Write(append(first.Append(nil), cont...)); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 2)
	if _, err := io.ReadFull(cliSide, hdr); err != nil {
		t.Fatalf("no close frame while the continuation's payload is unsent: %v", err)
	}
	payload := make([]byte, hdr[1]&0x7f)
	if _, err := io.ReadFull(cliSide, payload); err != nil || len(payload) < 2 {
		t.Fatalf("close frame payload %q: %v", payload, err)
	}
	if op, code := Opcode(hdr[0]&0x0f), int(binary.BigEndian.Uint16(payload)); op != OpClose || code != CloseTooBig {
		t.Fatalf("server sent op %d code %d, want a %d close", op, code, CloseTooBig)
	}
	var ce *CloseError
	if err := <-errc; !errors.As(err, &ce) || ce.Code != CloseTooBig {
		t.Fatalf("server read = %v, want close %d", err, CloseTooBig)
	}
}

func TestUnmaskedClientFrameClosed1002(t *testing.T) {
	srv, _ := echoServer(t, nil)
	conn, _, err := Dial(srv.URL+"/live/ch", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteFrame(Frame{Fin: true, Op: OpText, Payload: []byte("bare")}); err != nil {
		t.Fatal(err)
	}
	_, _, err = conn.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) || ce.Code != CloseProtocolError {
		t.Fatalf("read = %v, want close %d", err, CloseProtocolError)
	}
}

func TestProtocolViolationsTable(t *testing.T) {
	cases := []struct {
		name     string
		frames   []Frame
		wantCode int
	}{
		{"nonzero rsv", []Frame{{Fin: true, RSV: 0x4, Op: OpText, Masked: true, Payload: []byte("x")}}, CloseProtocolError},
		{"reserved opcode", []Frame{{Fin: true, Op: Opcode(0x3), Masked: true, Payload: []byte("x")}}, CloseProtocolError},
		{"continuation without start", []Frame{{Fin: true, Op: OpContinuation, Masked: true, Payload: []byte("x")}}, CloseProtocolError},
		{"data frame mid-fragment", []Frame{
			{Fin: false, Op: OpText, Masked: true, Payload: []byte("a")},
			{Fin: true, Op: OpText, Masked: true, Payload: []byte("b")}}, CloseProtocolError},
		{"fragmented ping", []Frame{{Fin: false, Op: OpPing, Masked: true, Payload: []byte("x")}}, CloseProtocolError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := echoServer(t, nil)
			conn, _, err := Dial(srv.URL+"/live/ch", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for _, f := range tc.frames {
				if err := conn.WriteFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err = conn.ReadMessage()
			var ce *CloseError
			if !errors.As(err, &ce) || ce.Code != tc.wantCode {
				t.Fatalf("read = %v, want close %d", err, tc.wantCode)
			}
		})
	}
}

// TestCloseHandshake pins close-code semantics: the peer's code comes
// back in the echoed close frame and in the CloseError on both sides.
func TestCloseHandshake(t *testing.T) {
	srv, errc := echoServer(t, nil)
	conn, _, err := Dial(srv.URL+"/live/ch", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteClose(CloseGoingAway, "moving on"); err != nil {
		t.Fatal(err)
	}
	_, _, err = conn.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) || ce.Code != CloseGoingAway {
		t.Fatalf("client read = %v, want echoed close %d", err, CloseGoingAway)
	}
	srvErr := <-errc
	if !errors.As(srvErr, &ce) || ce.Code != CloseGoingAway || ce.Reason != "moving on" {
		t.Fatalf("server read = %v, want close %d with reason", srvErr, CloseGoingAway)
	}
	// Writes after a sent close are refused locally.
	if err := conn.WriteMessage(OpText, []byte("late")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

// TestTornFrameDisconnect: a connection cut mid-frame surfaces as an
// error on the server promptly — never a hang, never a silent short
// message.
func TestTornFrameDisconnect(t *testing.T) {
	srv, errc := echoServer(t, nil)
	conn, _, err := Dial(srv.URL+"/live/ch", nil)
	if err != nil {
		t.Fatal(err)
	}
	full := Frame{Fin: true, Op: OpText, Masked: true, MaskKey: [4]byte{9, 9, 9, 9},
		Payload: []byte("this frame will be cut short")}.Append(nil)
	if err := conn.WriteRaw(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("server treated a torn frame as success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on a torn frame")
	}
}

// TestSlowLorisWriterStillScores: a client trickling one byte at a time
// still gets its message through, and a second, fast connection is not
// blocked behind it (each connection owns its goroutine).
func TestSlowLorisWriterStillScores(t *testing.T) {
	srv, _ := echoServer(t, nil)
	slow, _, err := Dial(srv.URL+"/live/slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	raw := Frame{Fin: true, Op: OpText, Masked: true, MaskKey: [4]byte{1, 1, 2, 3},
		Payload: []byte("slowly does it")}.Append(nil)
	done := make(chan error, 1)
	go func() {
		for _, b := range raw {
			if err := slow.WriteRaw([]byte{b}); err != nil {
				done <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		done <- nil
	}()
	// The fast connection completes many round trips while the loris
	// drips.
	fast, _, err := Dial(srv.URL+"/live/fast", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	for i := 0; i < 20; i++ {
		msg := []byte(fmt.Sprintf("fast-%d", i))
		if err := fast.WriteMessage(OpText, msg); err != nil {
			t.Fatal(err)
		}
		if _, got, err := fast.ReadMessage(); err != nil || string(got) != string(msg) {
			t.Fatalf("fast echo %d: %q %v", i, got, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("slow writer: %v", err)
	}
	if _, got, err := slow.ReadMessage(); err != nil || string(got) != "slowly does it" {
		t.Fatalf("slow echo: %q %v", got, err)
	}
}

// TestDialRefusedSurfacesStatus: a non-101 answer comes back as
// ErrBadHandshake with the response attached — how clients see the
// ingest endpoint's 404/409/429 refusals.
func TestDialRefusedSurfacesStatus(t *testing.T) {
	srv := wiretest.NewServer(t, wire.HandlerFunc(func(w wire.ResponseWriter, r *wire.Request) {
		wire.Error(w, "nope", http.StatusConflict)
	}))
	_, resp, err := Dial(srv.URL+"/live/ch", nil)
	if !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
	if resp == nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("resp = %+v, want 409", resp)
	}
}

// TestDialRefusals covers the client-side dial error branches: bad URL,
// unsupported scheme, unreachable host.
func TestDialRefusals(t *testing.T) {
	if _, _, err := Dial("://nope", nil); err == nil {
		t.Fatal("bad URL dialed")
	}
	if _, _, err := Dial("ftp://example.test/live/a", nil); err == nil || !strings.Contains(err.Error(), "unsupported scheme") {
		t.Fatalf("ftp dial: %v", err)
	}
	if _, _, err := DialTimeout("http://127.0.0.1:1/live/a", nil, 50*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	// wire.HostPort defaults the port: a portless IPv6 literal reaches the
	// TCP dial as [::1]:80 (refused here) instead of failing on "missing
	// port in address".
	_, _, err := DialTimeout("http://[::1]/live/a", nil, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "[::1]:80") || strings.Contains(err.Error(), "missing port") {
		t.Fatalf("portless IPv6 dial: %v", err)
	}
}

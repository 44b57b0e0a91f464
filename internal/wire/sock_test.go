//go:build unix

package wire

import (
	"context"
	"errors"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// listenLoopback listens on 127.0.0.1 until the test ends.
func listenLoopback(t *testing.T) *TCPListener {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// connPair dials l and accepts the connection: the dialed end, then the
// accepted one, closed when the test ends.
func connPair(t *testing.T, l *TCPListener) (dialed, accepted *TCPConn) {
	t.Helper()
	type result struct {
		c   Conn
		err error
	}
	acc := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		acc <- result{c, err}
	}()
	d, err := Dial(context.Background(), l.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	r := <-acc
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { r.c.Close() })
	return d, r.c.(*TCPConn)
}

func sockopt(t *testing.T, c *TCPConn, level, opt int) int {
	t.Helper()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var v int
	var gerr error
	if err := rc.Control(func(fd uintptr) { v, gerr = syscall.GetsockoptInt(int(fd), level, opt) }); err != nil {
		t.Fatal(err)
	}
	if gerr != nil {
		t.Fatal(gerr)
	}
	return v
}

// TestConnOptions: a dialed and an accepted connection both have Nagle off
// and keep-alive on, as net sets them, and carry bytes both ways.
func TestConnOptions(t *testing.T) {
	l := listenLoopback(t)
	d, a := connPair(t, l)
	for name, c := range map[string]*TCPConn{"dialed": d, "accepted": a} {
		if sockopt(t, c, syscall.IPPROTO_TCP, syscall.TCP_NODELAY) == 0 {
			t.Errorf("%s connection: TCP_NODELAY off", name)
		}
		if sockopt(t, c, syscall.SOL_SOCKET, syscall.SO_KEEPALIVE) == 0 {
			t.Errorf("%s connection: SO_KEEPALIVE off", name)
		}
	}
	if _, err := d.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(a, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("accepted end read %q, %v", buf, err)
	}
	if err := a.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if n, err := d.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("after CloseWrite the dialed end read %d, %v; want io.EOF", n, err)
	}
	if !strings.HasPrefix(a.RemoteAddr(), "127.0.0.1:") || d.RemoteAddr() != l.Addr() {
		t.Fatalf("remote addresses: accepted %q, dialed %q", a.RemoteAddr(), d.RemoteAddr())
	}
}

// TestListenerCloseUnblocksAccept: Close returns a parked Accept with an
// error that is os.ErrClosed, which is how Serve tells it from a failing
// accept it should retry.
func TestListenerCloseUnblocksAccept(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it park
	l.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("Accept after Close: %v, want os.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Accept")
	}
	if _, err := l.Accept(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Accept on a closed listener: %v", err)
	}
}

// TestReadDeadline: a read parked past its deadline fails with
// os.ErrDeadlineExceeded, an error the server counts as the socket's; a
// read after Close fails with os.ErrClosed.
func TestReadDeadline(t *testing.T) {
	d, _ := connPair(t, listenLoopback(t))
	d.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, err := d.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) || !fromSocket(err) {
		t.Fatalf("read past the deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	d.Close()
	if _, err := d.Read(make([]byte, 1)); !errors.Is(err, os.ErrClosed) || !fromSocket(err) {
		t.Fatalf("read after Close: %v, want os.ErrClosed", err)
	}
}

// TestDialCancel: a cancelled ctx fails a dial before it starts, and aborts
// one whose connect is parked (on a listener whose accept queue is full).
func TestDialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Dial(ctx, listenLoopback(t).Addr(), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("dial under a cancelled ctx: %v", err)
	}

	// A listener with a backlog of 0 that never accepts: once its queue is
	// full the kernel drops SYNs, and a connect stays in progress.
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(sa.(*syscall.SockaddrInet4).Port)
	for i := 0; i < 64; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		stop := time.AfterFunc(100*time.Millisecond, cancel)
		start := time.Now()
		c, err := Dial(ctx, addr, 0)
		stop.Stop()
		cancel()
		if err == nil {
			defer c.Close() // queued: the next one may park
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parked dial cancelled: %v, want context.Canceled", err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("the cancel took %v to abort the dial", el)
		}
		return
	}
	t.Skip("the kernel completed every connect to a full backlog; no dial parked")
}

// TestListenWildcardAndLoopback: an empty host listens on every interface,
// IPv4 loopback included; [::1] listens where the host has IPv6.
func TestListenWildcardAndLoopback(t *testing.T) {
	l, err := Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !strings.HasPrefix(l.Addr(), "[::]:") && !strings.HasPrefix(l.Addr(), "0.0.0.0:") {
		t.Fatalf("wildcard bound %q", l.Addr())
	}
	_, port, _ := splitHostPort(l.Addr())
	acceptOne(t, l, "127.0.0.1:"+strconv.Itoa(port))

	l6, err := Listen("[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	defer l6.Close()
	if !strings.HasPrefix(l6.Addr(), "[::1]:") {
		t.Fatalf("[::1] bound %q", l6.Addr())
	}
	acceptOne(t, l6, l6.Addr())
}

func acceptOne(t *testing.T, l *TCPListener, addr string) {
	t.Helper()
	acc := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
		acc <- err
	}()
	c, err := Dial(context.Background(), addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	c.Close()
	if err := <-acc; err != nil {
		t.Fatalf("accept from %s: %v", addr, err)
	}
}

// TestLookupHost: IP literals stand for themselves; names resolve from the
// hosts file only — in its order, without regard to case or a trailing
// dot — and anything else is a *hostError naming the host.
func TestLookupHost(t *testing.T) {
	defer func(f string) { hostsFile = f }(hostsFile)
	hostsFile = "testdata/hosts"
	for host, want := range map[string]string{
		"10.1.2.3":     "10.1.2.3",
		"::1":          "::1",
		"fleet-a":      "127.0.0.1",
		"FLEET-ALIAS.": "127.0.0.1",
		"fleet-b":      "127.0.0.2 ::1",
		"localhost":    "127.0.0.1 ::1",
	} {
		ips, err := LookupHost(host)
		if err != nil {
			t.Fatalf("%s: %v", host, err)
		}
		var got []string
		for _, ip := range ips {
			got = append(got, ip.String())
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s resolved to %v, want %s", host, got, want)
		}
	}
	for _, host := range []string{"fleet-c", "nosuch.example", "", "a node"} {
		_, err := LookupHost(host)
		var he *hostError
		if !errors.As(err, &he) || he.Host != host || !strings.Contains(err.Error(), "testdata/hosts") {
			t.Errorf("%q: %v, want a *hostError", host, err)
		}
	}
	l, err := Listen("fleet-a:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !strings.HasPrefix(l.Addr(), "127.0.0.1:") {
		t.Fatalf("fleet-a bound %q", l.Addr())
	}
	_, port, _ := splitHostPort(l.Addr())
	acceptOne(t, l, "Fleet-Alias:"+strconv.Itoa(port))
	if _, err := Dial(context.Background(), "nosuch.example:80", time.Second); !errors.As(err, new(*hostError)) {
		t.Fatalf("dial of an unknown name: %v", err)
	}
}

// TestSplitHostPort: the address forms Listen and Dial take, and the ones
// they refuse.
func TestSplitHostPort(t *testing.T) {
	for addr, want := range map[string]string{
		"127.0.0.1:80": "127.0.0.1 80",
		":8080":        " 8080",
		"[::1]:0":      "::1 0",
		"[::]:65535":   ":: 65535",
		"node-a:7601":  "node-a 7601",
	} {
		host, port, err := splitHostPort(addr)
		if got := host + " " + strconv.Itoa(port); err != nil || got != want {
			t.Errorf("%q: %q, %v; want %q", addr, got, err, want)
		}
	}
	for _, addr := range []string{"127.0.0.1", "::1:80", "[::1:80", "host:http", "host:65536", "host:-1"} {
		if _, _, err := splitHostPort(addr); err == nil {
			t.Errorf("%q accepted", addr)
		}
	}
	if got := joinHostPort("::1", "80"); got != "[::1]:80" {
		t.Errorf("joinHostPort: %q", got)
	}
}

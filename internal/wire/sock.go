//go:build unix

package wire

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// The socket layer: TCP listeners and connections opened with syscall and
// served through pollable *os.Files, so the runtime's poller parks a read,
// a write, an accept or a connect exactly as it does under package net.
// The daemons import nothing else for the network. Package net compiles its
// cgo resolver whenever a C compiler is present, which links runtime/cgo and
// makes a binary that imports it load libc through the dynamic loader; a
// binary whose only sockets are these is static.
//
// Hosts are IP literals or names in the hosts file (/etc/hosts): there is
// no DNS. Every address the fleet is configured with is an IP literal or
// localhost.

// Conn is a connection the wire code reads and writes: a *TCPConn, or any
// net.Conn a test dials.
type Conn interface {
	io.ReadWriteCloser
	SetDeadline(t time.Time) error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Listener is what a Server accepts connections from: a *TCPListener, or a
// test's wrapper around one.
type Listener interface {
	Accept() (Conn, error)
	Close() error
}

// listenBacklog is the accept queue asked for; the kernel caps it at
// somaxconn, as it does net's.
const listenBacklog = 65535

// The keep-alive probes every connection sends, net's defaults: the first
// after 15 s idle, then every 15 s, and the peer is dead after 9 unanswered.
const (
	keepAliveIdle     = 15
	keepAliveInterval = 15
	keepAliveCount    = 9
)

// TCPListener is a listening TCP socket.
type TCPListener struct {
	f      *os.File
	rc     syscall.RawConn
	addr   string
	closed atomic.Bool
}

// Listen binds addr, "host:port", and listens on it. An empty host is the
// wildcard of both IPv6 and IPv4 (IPv4 alone where the host has no IPv6);
// a name listens on its first IPv4 address, or its first address. Port 0
// picks a free port, which Addr reports. SO_REUSEADDR is set, so a port in
// TIME_WAIT can be bound again at once.
func Listen(addr string) (*TCPListener, error) {
	host, port, err := splitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	var sa syscall.Sockaddr = &syscall.SockaddrInet6{Port: port}
	if host != "" {
		ips, err := LookupHost(host)
		if err != nil {
			return nil, fmt.Errorf("listen %s: %w", addr, err)
		}
		ip := ips[0]
		for _, a := range ips {
			if a.Is4() {
				ip = a
				break
			}
		}
		if sa, err = sockaddr(ip, port); err != nil {
			return nil, fmt.Errorf("listen %s: %w", addr, err)
		}
	}
	fd, err := listenFD(sa, host == "")
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	if sa, err = syscall.Getsockname(fd); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("listen %s: %w", addr, os.NewSyscallError("getsockname", err))
	}
	l := &TCPListener{addr: sockaddrString(sa)}
	l.f = os.NewFile(uintptr(fd), "tcp "+l.addr)
	if l.rc, err = l.f.SyscallConn(); err != nil {
		l.f.Close()
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return l, nil
}

// listenFD opens a socket for sa, binds it and listens. The wildcard is
// dual-stack: its IPv6 socket takes IPv4 connections too, and a host
// without IPv6 gets the IPv4 wildcard instead.
func listenFD(sa syscall.Sockaddr, wildcard bool) (int, error) {
	fd, err := socket(sa)
	if wildcard && (err == syscall.EAFNOSUPPORT || err == syscall.EPROTONOSUPPORT) {
		sa = &syscall.SockaddrInet4{Port: sa.(*syscall.SockaddrInet6).Port}
		fd, err = socket(sa)
	}
	if err != nil {
		return -1, os.NewSyscallError("socket", err)
	}
	opts := [][3]int{{syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1}}
	if _, ok := sa.(*syscall.SockaddrInet6); ok {
		v6only := 1
		if wildcard {
			v6only = 0
		}
		opts = append(opts, [3]int{syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, v6only})
	}
	for _, o := range opts {
		if err := syscall.SetsockoptInt(fd, o[0], o[1], o[2]); err != nil {
			syscall.Close(fd)
			return -1, os.NewSyscallError("setsockopt", err)
		}
	}
	if err := syscall.Bind(fd, sa); err != nil {
		syscall.Close(fd)
		return -1, os.NewSyscallError("bind", err)
	}
	if err := syscall.Listen(fd, listenBacklog); err != nil {
		syscall.Close(fd)
		return -1, os.NewSyscallError("listen", err)
	}
	return fd, nil
}

// Addr is the bound address, "host:port", with the port Listen picked for
// port 0: "[::]:8080" for the dual-stack wildcard.
func (l *TCPListener) Addr() string { return l.addr }

// Accept waits for the next connection and returns it as a *TCPConn. Once
// the listener is closed, a parked or later Accept fails with an error
// that is os.ErrClosed.
func (l *TCPListener) Accept() (Conn, error) {
	var (
		nfd  int
		sa   syscall.Sockaddr
		aerr error
	)
	err := l.rc.Read(func(fd uintptr) bool {
		for {
			nfd, sa, aerr = accept(int(fd))
			switch aerr {
			case syscall.EINTR, syscall.ECONNABORTED:
				continue // a connection reset while queued is not the listener's error
			case syscall.EAGAIN:
				return false
			}
			return true
		}
	})
	switch {
	case l.closed.Load():
		if err == nil && aerr == nil {
			syscall.Close(nfd)
		}
		return nil, &os.PathError{Op: "accept", Path: l.f.Name(), Err: os.ErrClosed}
	case err != nil:
		return nil, &os.PathError{Op: "accept", Path: l.f.Name(), Err: err}
	case aerr != nil:
		return nil, &os.PathError{Op: "accept", Path: l.f.Name(), Err: os.NewSyscallError("accept", aerr)}
	}
	c, err := newTCPConn(nfd, sa)
	if err != nil {
		return nil, &os.PathError{Op: "accept", Path: l.f.Name(), Err: err}
	}
	return c, nil
}

// Close stops the listener; a parked Accept returns.
func (l *TCPListener) Close() error {
	l.closed.Store(true)
	return l.f.Close()
}

// TCPConn is a connected TCP socket, with TCP_NODELAY and keep-alive set.
// Its errors are those of an *os.File: a *os.PathError naming the peer,
// io.EOF at the peer's end, and os.ErrClosed and os.ErrDeadlineExceeded
// under it when the connection was closed or a deadline passed.
type TCPConn struct {
	f      *os.File
	remote string
}

// newTCPConn sets the connection options on fd, a connected non-blocking
// socket, and hands it to the poller.
func newTCPConn(fd int, peer syscall.Sockaddr) (*TCPConn, error) {
	if err := setConnOptions(fd); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	c := &TCPConn{remote: sockaddrString(peer)}
	c.f = os.NewFile(uintptr(fd), "tcp "+c.remote)
	return c, nil
}

// connOptions turn Nagle off and keep-alive on, as net does for every TCP
// connection.
var connOptions = append([][3]int{
	{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
	{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
}, keepAliveOptions...)

func setConnOptions(fd int) error {
	for _, o := range connOptions {
		if err := syscall.SetsockoptInt(fd, o[0], o[1], o[2]); err != nil {
			return os.NewSyscallError("setsockopt", err)
		}
	}
	return nil
}

func (c *TCPConn) Read(p []byte) (int, error)         { return c.f.Read(p) }
func (c *TCPConn) Write(p []byte) (int, error)        { return c.f.Write(p) }
func (c *TCPConn) Close() error                       { return c.f.Close() }
func (c *TCPConn) SetDeadline(t time.Time) error      { return c.f.SetDeadline(t) }
func (c *TCPConn) SetReadDeadline(t time.Time) error  { return c.f.SetReadDeadline(t) }
func (c *TCPConn) SetWriteDeadline(t time.Time) error { return c.f.SetWriteDeadline(t) }

// RemoteAddr is the peer's "host:port".
func (c *TCPConn) RemoteAddr() string { return c.remote }

// SyscallConn is the raw socket, for options this type does not set.
func (c *TCPConn) SyscallConn() (syscall.RawConn, error) { return c.f.SyscallConn() }

// CloseWrite shuts the sending side down: the peer reads its end while
// this side can still read.
func (c *TCPConn) CloseWrite() error {
	rc, err := c.f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) { serr = syscall.Shutdown(int(fd), syscall.SHUT_WR) }); err != nil {
		return err
	}
	return os.NewSyscallError("shutdown", serr)
}

// Dial connects to addr, "host:port", within timeout (0: no limit) and
// while ctx lasts. A name dials its addresses in the hosts file's order
// until one answers; an empty host is the local system. A cancelled ctx
// aborts a connect in progress, and the error is ctx's.
func Dial(ctx context.Context, addr string, timeout time.Duration) (*TCPConn, error) {
	host, port, err := splitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	ips, err := LookupHost(host)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	deadline, _ := ctx.Deadline()
	if timeout > 0 {
		if d := time.Now().Add(timeout); deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	for _, ip := range ips {
		var sa syscall.Sockaddr
		if sa, err = sockaddr(ip, port); err != nil {
			continue
		}
		var c *TCPConn
		if c, err = connect(ctx, sa, deadline); err == nil {
			return c, nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("dial %s: %w", addr, err)
}

// connect opens a socket and connects it to sa by deadline (zero: none),
// unless ctx ends first.
func connect(ctx context.Context, sa syscall.Sockaddr, deadline time.Time) (*TCPConn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fd, err := socket(sa)
	if err != nil {
		return nil, os.NewSyscallError("socket", err)
	}
	switch err := syscall.Connect(fd, sa); err {
	case nil, syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
	default:
		syscall.Close(fd)
		return nil, os.NewSyscallError("connect", err)
	}
	c, err := newTCPConn(fd, sa)
	if err != nil {
		return nil, err
	}
	// The connect completes, or fails, when the socket turns writable;
	// the poller waits for that under the write deadline, which ctx's end
	// moves to the past.
	fail := func(err error) (*TCPConn, error) {
		c.Close()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	rc, err := c.f.SyscallConn()
	if err != nil {
		return fail(err)
	}
	c.f.SetWriteDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { c.f.SetWriteDeadline(aLongTimeAgo) })
	var cerr error
	err = rc.Write(func(fd uintptr) bool {
		n, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
		switch {
		case err != nil:
			cerr = os.NewSyscallError("getsockopt", err)
		case n == 0 || syscall.Errno(n) == syscall.EISCONN:
			// The poller can wake spuriously; connected means a peer.
			if _, err := syscall.Getpeername(int(fd)); err != nil {
				return false
			}
		case syscall.Errno(n) == syscall.EINPROGRESS || syscall.Errno(n) == syscall.EALREADY || syscall.Errno(n) == syscall.EINTR:
			return false
		default:
			cerr = os.NewSyscallError("connect", syscall.Errno(n))
		}
		return true
	})
	if !stop() {
		return fail(ctx.Err())
	}
	if err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	c.f.SetWriteDeadline(time.Time{})
	return c, nil
}

// socket opens a non-blocking, close-on-exec stream socket of sa's
// family. The fork lock keeps a concurrent exec from inheriting it before
// it is marked.
func socket(sa syscall.Sockaddr) (int, error) {
	family := syscall.AF_INET
	if _, ok := sa.(*syscall.SockaddrInet6); ok {
		family = syscall.AF_INET6
	}
	syscall.ForkLock.RLock()
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fd)
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return -1, err
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return -1, err
	}
	return fd, nil
}

// accept takes a connection off the listening socket fd, non-blocking and
// close-on-exec, as socket makes its own.
func accept(fd int) (int, syscall.Sockaddr, error) {
	syscall.ForkLock.RLock()
	nfd, sa, err := syscall.Accept(fd)
	if err == nil {
		syscall.CloseOnExec(nfd)
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return -1, nil, err
	}
	if err := syscall.SetNonblock(nfd, true); err != nil {
		syscall.Close(nfd)
		return -1, nil, err
	}
	return nfd, sa, nil
}

// sockaddr is ip:port as a socket address; an IPv4-mapped IPv6 address is
// IPv4, and an IPv6 zone must be an interface index.
func sockaddr(ip IP, port int) (syscall.Sockaddr, error) {
	ip = ip.Unmap()
	if ip.Is4() {
		return &syscall.SockaddrInet4{Port: port, Addr: [4]byte(ip.addr[12:])}, nil
	}
	sa := &syscall.SockaddrInet6{Port: port, Addr: ip.As16()}
	if z := ip.Zone(); z != "" {
		id, err := strconv.ParseUint(z, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("IPv6 zone %q: only an interface index is supported", z)
		}
		sa.ZoneId = uint32(id)
	}
	return sa, nil
}

// sockaddrString is sa as "host:port", an IPv4-mapped peer as IPv4.
func sockaddrString(sa syscall.Sockaddr) string {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return string(appendIPv4(nil, sa.Addr[:])) + ":" + strconv.Itoa(sa.Port)
	case *syscall.SockaddrInet6:
		ip := IP{addr: sa.Addr}
		if sa.ZoneId != 0 {
			ip.zone = strconv.FormatUint(uint64(sa.ZoneId), 10)
		}
		return joinHostPort(ip.Unmap().String(), strconv.Itoa(sa.Port))
	}
	return "?"
}

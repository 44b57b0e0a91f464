package liveplane

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"strings"
	"time"

	"aovlis/internal/wire"
)

// ErrBadHandshake reports a server that answered the upgrade request with
// something other than 101. The *wire.Response returned alongside it
// carries the status and (bounded) body for diagnosis — the ingest
// endpoint uses plain HTTP statuses (404, 409, 429) to refuse upgrades.
var ErrBadHandshake = fmt.Errorf("live: websocket handshake refused")

// Dial opens a client WebSocket connection to rawurl (http:// or ws://
// scheme; TLS is out of scope for the in-repo fleet). header adds request
// headers — the resume protocol's Last-Seq rides here. On a non-101
// answer the response is returned with a drained body and the error is
// ErrBadHandshake.
func Dial(rawurl string, header wire.Header) (*Conn, *wire.Response, error) {
	return DialTimeout(rawurl, header, 10*time.Second)
}

// DialTimeout is Dial with an explicit TCP connect + handshake deadline.
func DialTimeout(rawurl string, header wire.Header, timeout time.Duration) (*Conn, *wire.Response, error) {
	u, err := url.Parse(rawurl)
	if err != nil {
		return nil, nil, fmt.Errorf("live: dial %q: %w", rawurl, err)
	}
	switch u.Scheme {
	case "http", "ws":
	default:
		return nil, nil, fmt.Errorf("live: dial %q: unsupported scheme %q (plaintext only)", rawurl, u.Scheme)
	}
	host := wire.HostPort(u)
	nc, err := wire.Dial(context.Background(), host, timeout)
	if err != nil {
		return nil, nil, fmt.Errorf("live: dial %s: %w", host, err)
	}
	nc.SetDeadline(time.Now().Add(timeout))

	// The key is a nonce that proves the server speaks WebSocket (RFC 6455
	// §4.1), not a secret, so it needs no CSPRNG.
	var keyRaw [16]byte
	binary.LittleEndian.PutUint64(keyRaw[:8], rand.Uint64())
	binary.LittleEndian.PutUint64(keyRaw[8:], rand.Uint64())
	key := base64.StdEncoding.EncodeToString(keyRaw[:])

	path := u.RequestURI()
	if path == "" {
		path = "/"
	}
	var req strings.Builder
	req.WriteString("GET " + path + " HTTP/1.1\r\n")
	req.WriteString("Host: " + u.Host + "\r\n")
	req.WriteString("Upgrade: websocket\r\n")
	req.WriteString("Connection: Upgrade\r\n")
	req.WriteString("Sec-WebSocket-Key: " + key + "\r\n")
	req.WriteString("Sec-WebSocket-Version: 13\r\n")
	for k, vs := range header {
		for _, v := range vs {
			req.WriteString(k + ": " + v + "\r\n")
		}
	}
	req.WriteString("\r\n")
	if _, err := io.WriteString(nc, req.String()); err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("live: writing handshake: %w", err)
	}

	br := bufio.NewReader(nc)
	resp, err := wire.ReadResponseHead(br, wire.MethodGet)
	if err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("live: reading handshake response: %w", err)
	}
	if resp.StatusCode != wire.StatusSwitchingProtocols {
		// Drain a bounded body so the caller can report the refusal, then
		// detach it from the dead connection.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<10))
		resp.Body.Close()
		resp.Body = io.NopCloser(strings.NewReader(string(body)))
		nc.Close()
		return nil, resp, fmt.Errorf("%w: status %d: %s", ErrBadHandshake, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != AcceptKey(key) {
		nc.Close()
		return nil, resp, fmt.Errorf("live: handshake accept mismatch (got %q)", got)
	}
	nc.SetDeadline(time.Time{})
	return NewConn(nc, br, true, 0), resp, nil
}

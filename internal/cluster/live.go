package cluster

// The router's live plane: /live/{channel} WebSocket tunnels and the
// /watch SSE fan-in. The tunnel is a raw byte splice — the router resolves
// the channel's owner with the same bounded-load placement the NDJSON
// proxy uses, forwards a handwritten RFC 6455 upgrade (carrying the
// client's Sec-WebSocket-Key and Last-Seq), relays whatever the owner
// answers (101 or a refusal like 409 ahead-of-floor) verbatim, and then
// copies bytes both ways until either side hangs up. Because the router
// never parses frames, the daemon's resume contract survives the hop
// untouched: the X-Aovlis-Resume floor, the per-connection sequence
// numbers, and the WAL-backed exactly-once semantics are end to end
// between client and owner.
//
// A live tunnel pins the channel to the owner that accepted it but holds
// no in-flight registration on the ownership entry — a long-lived stream
// holding inflight would park every migration forever. The trade: a
// rebalance or failover that moves the channel does not drain the tunnel;
// the old connection keeps working until it breaks (or the old owner
// dies), and the client's reconnect lands on the new owner, which holds
// the channel at its exported floor. Until the router terminates /live
// (ROADMAP item 16) two cases lose verdicts the client holds: those the old
// owner applies between export and detach, and a failover's, which replays
// only to the wseq relayed on NDJSON streams (a tunnel is spliced unread).

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/url"
	"strings"
	"sync"
	"time"

	"aovlis/internal/wire"
)

// liveDialTimeout bounds the TCP connect to a channel's owner; the tunnel
// itself has no deadline (live streams are long-lived by design).
const liveDialTimeout = 10 * time.Second

// handleLive tunnels GET /live/{channel} to the channel's owner.
func (r *Router) handleLive(w wire.ResponseWriter, req *wire.Request) {
	id := strings.TrimPrefix(req.URL.Path, "/live/")
	if id == "" || strings.ContainsRune(id, '/') {
		wire.Error(w, "want /live/{channel}", wire.StatusNotFound)
		return
	}
	if req.Method != wire.MethodGet {
		wire.Error(w, "live wants GET", wire.StatusMethodNotAllowed)
		return
	}
	e, err := r.tbl.ensure(id, r.place)
	if err != nil {
		wire.Error(w, err.Error(), wire.StatusUnavailable)
		return
	}
	owner, _, _ := e.state()
	if !owner.Alive() {
		wire.Error(w, fmt.Sprintf("channel %q owner %s is down", id, owner.Spec.Name), wire.StatusUnavailable)
		return
	}
	u, err := url.Parse(owner.Spec.URL)
	if err != nil || u.Host == "" {
		wire.Error(w, fmt.Sprintf("cluster: bad node URL %q", owner.Spec.URL), wire.StatusInternalError)
		return
	}
	target := wire.HostPort(u)
	up, err := wire.Dial(req.Context(), target, liveDialTimeout)
	if err != nil {
		wire.Error(w, fmt.Sprintf("dialing owner %s: %v", owner.Spec.Name, err), wire.StatusBadGateway)
		return
	}

	// Handwritten upgrade to the owner: request line plus exactly the
	// headers the handshake needs. The client's Sec-WebSocket-Key travels
	// through, so the owner's Sec-WebSocket-Accept is valid for the client
	// without the router recomputing anything.
	var hs bytes.Buffer
	fmt.Fprintf(&hs, "GET /live/%s HTTP/1.1\r\nHost: %s\r\n", url.PathEscape(id), target)
	hs.WriteString("Upgrade: websocket\r\nConnection: Upgrade\r\n")
	for _, h := range []string{"Sec-WebSocket-Key", "Sec-WebSocket-Version", wire.LastSeqHeader} {
		if v := req.Header.Get(h); v != "" {
			fmt.Fprintf(&hs, "%s: %s\r\n", h, v)
		}
	}
	hs.WriteString("\r\n")
	if _, err := up.Write(hs.Bytes()); err != nil {
		up.Close()
		wire.Error(w, fmt.Sprintf("owner %s refused upgrade write: %v", owner.Spec.Name, err), wire.StatusBadGateway)
		return
	}

	conn, brw, err := w.Hijack()
	if err != nil {
		up.Close()
		wire.Error(w, err.Error(), wire.StatusInternalError)
		return
	}
	// Frames the client pipelined behind its handshake are sitting in the
	// server's read buffer; flush them upstream before the raw splice.
	if n := brw.Reader.Buffered(); n > 0 {
		head, _ := brw.Reader.Peek(n)
		if _, err := up.Write(head); err != nil {
			up.Close()
			conn.Close()
			return
		}
	}

	errc := make(chan error, 2)
	go func() { _, err := io.Copy(up, conn); errc <- err }()
	go func() { _, err := io.Copy(conn, up); errc <- err }()
	<-errc
	// Either side ended; closing both unblocks the surviving copier.
	up.Close()
	conn.Close()
	<-errc
}

// handleWatch fans the alive nodes' /watch SSE streams into one merged
// stream. Event ids are namespaced "{node}-{id}" — node-local counters
// merged from many nodes are not a resumable sequence, so the router's
// /watch does not honour Last-Event-ID; a reconnecting dashboard gets
// each node's ring replay instead. The ?channel= filter passes through to
// every node (only the owner has events for it, the rest stay silent).
func (r *Router) handleWatch(w wire.ResponseWriter, req *wire.Request) {
	if req.Method != wire.MethodGet {
		wire.Error(w, "watch wants GET", wire.StatusMethodNotAllowed)
		return
	}
	ctx := req.Context()
	blocks := make(chan []byte, 64)
	var wg sync.WaitGroup
	fanned := 0
	for _, n := range r.nodes {
		if !n.Alive() {
			continue
		}
		fanned++
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			r.relayWatch(ctx, n, req.URL.RawQuery, blocks)
		}(n)
	}
	if fanned == 0 {
		wire.Error(w, "no alive nodes", wire.StatusUnavailable)
		return
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	fmt.Fprintf(w, ": live fan-in over %d nodes\n\n", fanned)
	w.Flush()
	for {
		select {
		case <-ctx.Done():
			return
		case b := <-blocks:
			if _, err := w.Write(b); err != nil {
				return
			}
			w.Flush()
		case <-done:
			// Every upstream ended (nodes down or hub shutdown): drain the
			// residue, then end so the client knows to reconnect.
			for {
				select {
				case b := <-blocks:
					if _, err := w.Write(b); err != nil {
						return
					}
					w.Flush()
				default:
					fmt.Fprintf(w, ": all upstreams closed, reconnect\n\n")
					w.Flush()
					return
				}
			}
		}
	}
}

// relayWatch subscribes to one node's /watch and forwards its event
// blocks, rewriting id lines into the node's namespace. Node-local SSE
// comments (keepalives, shutdown notes) are not forwarded — the fan-in
// writes its own.
func (r *Router) relayWatch(ctx context.Context, n *Node, rawQuery string, blocks chan<- []byte) {
	path := "/watch"
	if rawQuery != "" {
		path += "?" + rawQuery
	}
	resp, err := n.send(ctx, wire.MethodGet, path, nil, nil)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != wire.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<10)
	var block bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if block.Len() > 0 {
				block.WriteByte('\n')
				out := make([]byte, block.Len())
				copy(out, block.Bytes())
				block.Reset()
				select {
				case blocks <- out:
				case <-ctx.Done():
					return
				}
			}
			continue
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "id: "); ok {
			fmt.Fprintf(&block, "id: %s-%s\n", n.Spec.Name, rest)
			continue
		}
		block.WriteString(line)
		block.WriteByte('\n')
	}
}

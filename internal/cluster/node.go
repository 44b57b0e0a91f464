package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"aovlis/internal/wal"
	"aovlis/internal/wire"
)

// NodeSpec describes one aovlisd process in the fleet as configured on the
// router command line.
type NodeSpec struct {
	// Name is the stable identity the ring hashes — it must survive process
	// restarts (placement follows the name, not the address).
	Name string
	// URL is the node's base address, e.g. http://127.0.0.1:7601.
	URL string
	// SnapshotDir, when non-empty, is the node's -snapshot-dir as seen from
	// the ROUTER's filesystem. Failover warm-restores the node's channels
	// from the manifest committed there; without it a failed node's
	// channels restart cold on their new owners.
	SnapshotDir string
	// WALDir, when non-empty, is the node's -wal-dir as seen from the
	// ROUTER's filesystem. Failover then replays the dead node's journal
	// tail — every acknowledged observation above the checkpointed floor —
	// onto the new owner before ownership flips, upgrading the failed-over
	// channels from at-least-last-checkpoint to bit-equal replay.
	WALDir string
}

// ParseNodeSpecs parses the -nodes flag syntax:
// "name=url[=snapshotdir[=waldir]],name=url[=snapshotdir[=waldir]],...".
func ParseNodeSpecs(s string) ([]NodeSpec, error) {
	var specs []NodeSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.SplitN(part, "=", 4)
		if len(fields) < 2 || fields[0] == "" || fields[1] == "" {
			return nil, fmt.Errorf("cluster: bad node spec %q (want name=url[=snapshotdir[=waldir]])", part)
		}
		spec := NodeSpec{Name: fields[0], URL: strings.TrimSuffix(fields[1], "/")}
		if len(fields) >= 3 {
			spec.SnapshotDir = fields[2]
		}
		if len(fields) == 4 {
			spec.WALDir = fields[3]
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: no node specs in %q", s)
	}
	return specs, nil
}

// Node is the router's live view of one aovlisd process: its spec plus
// health state maintained by the prober and an owned-channel gauge
// maintained by placement.
type Node struct {
	Spec NodeSpec
	// adminWait bounds each admin call (snapshot export, import, detach,
	// journal replay). They run under the router's topology lock, and the
	// health monitor runs failover inline, so a peer that accepts the
	// connection and never answers must cost one budget, not the router.
	adminWait time.Duration

	// alive is flipped by the health monitor (and by failover). A dead
	// node takes no new placements and its channels move to survivors.
	alive atomic.Bool
	// consecFails counts consecutive probe failures; FailAfter of them
	// declare the node dead.
	consecFails atomic.Int32
	// owned counts channels currently placed on this node (the ring's
	// bounded-load input).
	owned atomic.Int64
	// lastSnapshotAge mirrors the node's /healthz last_snapshot_age_seconds
	// (-1 when unknown/never), for operators reading /cluster/nodes.
	lastSnapshotAge atomic.Int64
	// health is the connection probes ride.
	health prober
}

func newNode(spec NodeSpec) *Node {
	n := &Node{Spec: spec, adminWait: defaultFailoverWait}
	n.alive.Store(true)
	n.lastSnapshotAge.Store(-1)
	return n
}

// Alive reports whether the node is currently considered healthy.
func (n *Node) Alive() bool { return n.alive.Load() }

// Owned reports how many channels are currently placed on the node.
func (n *Node) Owned() int64 { return n.owned.Load() }

// observeURL returns the node's observe endpoint for a channel. Every path
// the router sends a node carries the channel id escaped: the id it routes
// on arrived decoded, and pasted as it is, "a%41" would reach the node as
// "aA" and "a?b" would end the path at the "?".
func (n *Node) observeURL(id string) string {
	return n.Spec.URL + "/channels/" + url.PathEscape(id) + "/observe"
}

// healthResponse is the subset of the node /healthz payload the router
// reads.
type healthResponse struct {
	Status          string `json:"status"`
	NodeID          string `json:"node_id"`
	LastSnapshotAge *int   `json:"last_snapshot_age_seconds"`
}

var healthKeys = []string{"status", "node_id", "last_snapshot_age_seconds"}

// read decodes a /healthz body as json.Unmarshal decodes it into h.
func (h *healthResponse) read(body []byte) error {
	var r wire.JSONReader
	if err := r.Reset(body); err != nil {
		return err
	}
	if r.Object() {
		for r.More() {
			switch r.Key(healthKeys...) {
			case 0:
				r.String(&h.Status)
			case 1:
				r.String(&h.NodeID)
			case 2:
				if r.Null() {
					h.LastSnapshotAge = nil
					continue
				}
				if h.LastSnapshotAge == nil {
					h.LastSnapshotAge = new(int)
				}
				wire.ReadInt(&r, h.LastSnapshotAge)
			default:
				r.Skip()
			}
		}
	}
	return r.Err()
}

// probe performs one health check with the given timeout. A nil error
// means the node answered 200 with status "ok"; the snapshot-age gauge is
// refreshed as a side effect. When the node reports a node_id that
// disagrees with the configured name, the probe fails — routing segments
// to an imposter process (stale port reuse) would silently split channel
// state.
func (n *Node) probe(timeout time.Duration) error {
	code, body, err := n.health.get(n.Spec.URL, time.Now().Add(timeout))
	if err != nil {
		return fmt.Errorf("cluster: node %s: /healthz: %w", n.Spec.Name, err)
	}
	if code != wire.StatusOK {
		return fmt.Errorf("cluster: node %s: /healthz status %d", n.Spec.Name, code)
	}
	var h healthResponse
	if err := h.read(body); err != nil {
		return fmt.Errorf("cluster: node %s: bad /healthz payload: %w", n.Spec.Name, err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("cluster: node %s: health status %q", n.Spec.Name, h.Status)
	}
	if h.NodeID != "" && h.NodeID != n.Spec.Name {
		return fmt.Errorf("cluster: node %s: /healthz reports node_id %q", n.Spec.Name, h.NodeID)
	}
	if h.LastSnapshotAge != nil {
		n.lastSnapshotAge.Store(int64(*h.LastSnapshotAge))
	} else {
		n.lastSnapshotAge.Store(-1)
	}
	return nil
}

// prober is a node's health-probe client: one connection kept across
// probes, the GET /healthz head written on it, and the reader and buffer
// each answer is read with (TestProbeSteadyStateAllocs). Only the health
// monitor uses it, and Router.Close once the monitor has stopped.
type prober struct {
	conn wire.Conn // nil until the first probe, and after a failed one
	head []byte
	br   *bufio.Reader
	body []byte
}

// maxHealthBody bounds a /healthz answer; a probe reads no further.
const maxHealthBody = 1 << 20

// get asks the node at base for /healthz by deadline and returns the
// answer's status and body, valid until the next call. A kept connection
// found closed before the first byte of an answer (the node closed it
// while idle, or restarted) is redialed once; any failure, a timeout or a
// bad answer included, closes the connection, so the next probe dials.
func (p *prober) get(base string, deadline time.Time) (code int, body []byte, err error) {
	kept := p.conn != nil
	if !kept {
		if err := p.dial(base, deadline); err != nil {
			return 0, nil, err
		}
	}
	code, body, keep, err := p.exchange(deadline)
	if err != nil && kept && (errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)) {
		p.close()
		if err := p.dial(base, deadline); err != nil {
			return 0, nil, err
		}
		code, body, keep, err = p.exchange(deadline)
	}
	if err != nil || !keep {
		p.close()
	}
	return code, body, err
}

// dial connects to base's host and builds the request head.
func (p *prober) dial(base string, deadline time.Time) error {
	u, err := url.Parse(base + "/healthz")
	if err != nil {
		return err
	}
	if u.Scheme != "http" {
		return fmt.Errorf("unsupported scheme %q (plaintext only)", u.Scheme)
	}
	c, err := wire.Dial(context.Background(), wire.HostPort(u), max(time.Until(deadline), 1))
	if err != nil {
		return err
	}
	p.conn, p.head = c, []byte("GET "+u.RequestURI()+" HTTP/1.1\r\nHost: "+u.Host+"\r\n\r\n")
	if p.br == nil {
		p.br = bufio.NewReaderSize(c, 4<<10)
	} else {
		p.br.Reset(c)
	}
	return nil
}

// exchange writes the request and reads the answer under deadline. A write
// error, or a read error before the answer's first byte, is returned as
// it is, for get to tell a closed connection from a failed probe.
func (p *prober) exchange(deadline time.Time) (code int, body []byte, keep bool, err error) {
	if err := p.conn.SetDeadline(deadline); err != nil {
		return 0, nil, false, err
	}
	if _, err := p.conn.Write(p.head); err != nil {
		return 0, nil, false, err
	}
	if _, err := p.br.Peek(1); err != nil {
		return 0, nil, false, err
	}
	return p.answer()
}

// errBadAnswer is a /healthz answer the probe cannot read.
var errBadAnswer = errors.New("malformed response")

// answer reads one response off the connection: an HTTP/1.x status line,
// then headers, of which it reads Content-Length and Connection, then the
// declared body. A body framed any other way, or larger than
// maxHealthBody, is a bad answer. keep is false when the node closes the
// connection after it.
func (p *prober) answer() (code int, body []byte, keep bool, err error) {
	defer func() {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the answer had begun
		}
	}()
	line, err := p.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return 0, nil, false, errBadAnswer
	}
	if code, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, false, errBadAnswer
	}
	keep, n := line[7] == '1', -1
	for {
		if line, err = p.br.ReadSlice('\n'); err != nil {
			return 0, nil, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, false, errBadAnswer
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if n, err = strconv.Atoi(string(v)); err != nil || n < 0 || n > maxHealthBody {
				return 0, nil, false, errBadAnswer
			}
		case bytes.EqualFold(k, []byte("Connection")):
			keep = keep && !bytes.EqualFold(v, []byte("close"))
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			return 0, nil, false, errBadAnswer
		}
	}
	if n < 0 {
		return 0, nil, false, errBadAnswer
	}
	p.body = slices.Grow(p.body[:0], n)[:n]
	if _, err := io.ReadFull(p.br, p.body); err != nil {
		return 0, nil, false, err
	}
	return code, p.body, keep, nil
}

// close drops the kept connection, if any.
func (p *prober) close() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

// send makes one request to the node on a connection of its own (wire.Do);
// ctx bounds it through the last byte of the response body.
func (n *Node) send(ctx context.Context, method, path string, body io.Reader) (*wire.Response, error) {
	req, err := wire.NewRequest(method, n.Spec.URL+path, body)
	if err != nil {
		return nil, err
	}
	return wire.Do(ctx, nil, req)
}

// within is send under a deadline d from now, which closing the response
// body releases.
func (n *Node) within(d time.Duration, method, path string, body io.Reader) (*wire.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	resp, err := n.send(ctx, method, path, body)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = cancelOnClose{resp.Body, cancel}
	return resp, nil
}

// cancelOnClose ends a request's context when its response body is closed.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// exportSnapshot opens the channel's export stream (GET snapshot). The
// caller owns the returned body. A 404 is surfaced as errNoChannelState so
// migration can treat "nothing to move" as success.
func (n *Node) exportSnapshot(id string) (io.ReadCloser, error) {
	resp, err := n.within(n.adminWait, wire.MethodGet, "/channels/"+url.PathEscape(id)+"/snapshot", nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: exporting %q from %s: %w", id, n.Spec.Name, err)
	}
	switch resp.StatusCode {
	case wire.StatusOK:
		return resp.Body, nil
	case wire.StatusNotFound:
		resp.Body.Close()
		return nil, errNoChannelState
	default:
		msg := readErrorBody(resp.Body)
		return nil, fmt.Errorf("cluster: exporting %q from %s: status %d: %s", id, n.Spec.Name, resp.StatusCode, msg)
	}
}

// putSnapshot imports a channel snapshot stream (PUT snapshot).
func (n *Node) putSnapshot(id string, body io.Reader) error {
	resp, err := n.within(n.adminWait, wire.MethodPut, "/channels/"+url.PathEscape(id)+"/snapshot", body)
	if err != nil {
		return fmt.Errorf("cluster: importing %q into %s: %w", id, n.Spec.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wire.StatusCreated {
		msg := readErrorBody(resp.Body)
		return fmt.Errorf("cluster: importing %q into %s: status %d: %s", id, n.Spec.Name, resp.StatusCode, msg)
	}
	return nil
}

// replayObservations re-applies journaled observations onto this node's
// channel, in order, through the regular observe endpoint — the receive
// half of failover journal replay. The request is written concurrently
// with the response read (the node pipelines decisions), the whole
// exchange runs under one adminWait deadline, and every record must come
// back as a scored decision: a rejected or errored line fails the replay,
// because a partially applied journal tail would silently break the
// bit-equal contract the replay exists to restore.
// Returns the count of applied records and the highest wseq the node
// assigned them (the NEW owner's journal numbering — it reseeds the relay
// tracker so a subsequent failover of this node replays them again).
func (n *Node) replayObservations(id string, recs []wal.Record) (int, uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), n.adminWait)
	defer cancel()
	s, err := wire.OpenStream(ctx, nil, n.observeURL(id))
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: replaying journal of %q into %s: %w", id, n.Spec.Name, err)
	}
	defer s.Abort() // also ends the writer, should the reader give up first
	writeErr := make(chan error, 1)
	go func() {
		var line []byte
		for _, rec := range recs {
			// wire.AppendObservation renders float64s in shortest round-trip
			// form, so the re-parsed features are bit-identical to the
			// journaled ones — the replay scores exactly what the dead node
			// scored.
			line = wire.AppendObservation(line[:0], rec.Action, rec.Audience)
			if err := s.WriteLine(line); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- s.CloseSend()
	}()
	applied, maxW := 0, uint64(0)
	for {
		line, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return applied, maxW, fmt.Errorf("cluster: replaying journal of %q into %s: %w", id, n.Spec.Name, err)
		}
		var d wire.Decision
		if err := wire.DecodeDecision(line, &d); err != nil {
			return applied, maxW, fmt.Errorf("cluster: bad replay decision from %s: %w", n.Spec.Name, err)
		}
		if !d.Verdict() {
			return applied, maxW, fmt.Errorf("cluster: node %s did not score replayed segment %d of %q: %s", n.Spec.Name, d.Seq, id, line)
		}
		applied++
		maxW = max(maxW, d.WSeq)
	}
	if werr := <-writeErr; werr != nil {
		return applied, maxW, fmt.Errorf("cluster: writing replay stream of %q to %s: %w", id, n.Spec.Name, werr)
	}
	if applied != len(recs) {
		return applied, maxW, fmt.Errorf("cluster: node %s answered %d of %d replayed records of %q", n.Spec.Name, applied, len(recs), id)
	}
	return applied, maxW, nil
}

// deleteChannel detaches a channel from the node. 404 counts as success
// (the desired end state holds).
func (n *Node) deleteChannel(id string) error {
	resp, err := n.within(n.adminWait, wire.MethodDelete, "/channels/"+url.PathEscape(id), nil)
	if err != nil {
		return fmt.Errorf("cluster: detaching %q from %s: %w", id, n.Spec.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wire.StatusOK && resp.StatusCode != wire.StatusNotFound {
		msg := readErrorBody(resp.Body)
		return fmt.Errorf("cluster: detaching %q from %s: status %d: %s", id, n.Spec.Name, resp.StatusCode, msg)
	}
	return nil
}

// errNoChannelState marks a migration source that has no state for the
// channel (never streamed, or already detached) — the move degenerates to
// an ownership flip.
var errNoChannelState = fmt.Errorf("cluster: channel has no exportable state")

// readErrorBody captures a bounded error message then closes the body.
func readErrorBody(body io.ReadCloser) string {
	defer body.Close()
	b, _ := io.ReadAll(io.LimitReader(body, 4<<10))
	return strings.TrimSpace(string(b))
}

// readJSONLimited starts r on a bounded JSON payload (a node's channel
// list should never stream megabytes): the first MiB of body, which must
// be one value with only whitespace around it, as json.Unmarshal takes it
// (a node answers one value and a newline). A body whose read failed fails with
// the read error, unless what was read is a complete value.
func readJSONLimited(body io.Reader, r *wire.JSONReader) error {
	b, rerr := io.ReadAll(io.LimitReader(body, 1<<20))
	err := r.Reset(b)
	if err != nil && rerr != nil {
		return rerr
	}
	return err
}

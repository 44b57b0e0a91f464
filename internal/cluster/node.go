package cluster

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
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

// observeURL returns the node's observe endpoint for a channel.
func (n *Node) observeURL(id string) string {
	return n.Spec.URL + "/channels/" + id + "/observe"
}

// healthResponse is the subset of the node /healthz payload the router
// reads.
type healthResponse struct {
	Status          string `json:"status"`
	NodeID          string `json:"node_id"`
	LastSnapshotAge *int   `json:"last_snapshot_age_seconds"`
}

var healthKeys = []string{"status", "node_id", "last_snapshot_age_seconds"}

// read decodes a /healthz body as a json.Decoder decodes it into h.
func (h *healthResponse) read(body io.Reader) error {
	var r wire.JSONReader
	if err := readJSONLimited(body, &r); err != nil {
		return err
	}
	if r.Object("", "cluster.healthResponse") {
		for r.More() {
			switch r.Key(healthKeys...) {
			case 0:
				r.String(&h.Status, "healthResponse.status")
			case 1:
				r.String(&h.NodeID, "healthResponse.node_id")
			case 2:
				if r.Null() {
					h.LastSnapshotAge = nil
					continue
				}
				if h.LastSnapshotAge == nil {
					h.LastSnapshotAge = new(int)
				}
				wire.ReadInt(&r, h.LastSnapshotAge, "healthResponse.last_snapshot_age_seconds")
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
	resp, err := n.within(timeout, wire.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wire.StatusOK {
		return fmt.Errorf("cluster: node %s: /healthz status %d", n.Spec.Name, resp.StatusCode)
	}
	var h healthResponse
	if err := h.read(resp.Body); err != nil {
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
	resp, err := n.within(n.adminWait, wire.MethodGet, "/channels/"+id+"/snapshot", nil)
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
	resp, err := n.within(n.adminWait, wire.MethodPut, "/channels/"+id+"/snapshot", body)
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
// exchange runs under one adminWait deadline, and every record
// must come back as a scored decision: a rejected, dropped or errored
// line fails the replay, because a partially applied journal tail would
// silently break the bit-equal contract the replay exists to restore.
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
	resp, err := n.within(n.adminWait, wire.MethodDelete, "/channels/"+id, nil)
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

// readJSONLimited starts r on a bounded JSON payload (health probes should
// never stream megabytes): the value at the front of the first MiB of
// body, as a json.Decoder reads it off the stream. A body that fails
// before the value is complete fails with its read error.
func readJSONLimited(body io.Reader, r *wire.JSONReader) error {
	b, rerr := io.ReadAll(io.LimitReader(body, 1<<20))
	err := r.ResetPrefix(b)
	if rerr != nil && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		return rerr
	}
	return err
}

package node

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"aovlis/internal/ledger"
	"aovlis/internal/serve"
	"aovlis/internal/stream/liveplane"
	"aovlis/internal/wire"
)

// Handler is the node's HTTP surface (the routes are listed in
// cmd/aovlisd's package comment).
func (n *Node) Handler() wire.Handler {
	mux := &wire.Mux{}
	mux.HandleFunc("/healthz", n.handleHealth)
	mux.HandleFunc("/channels", n.handleList)
	mux.HandleFunc("/channels/", n.handleChannel)
	mux.HandleFunc("/snapshot", n.handleSnapshot)
	// Live plane (ARCHITECTURE.md §15): WebSocket ingest with Last-Seq
	// resume, and the SSE verdict dashboard.
	mux.Handle("/live/", &liveplane.IngestHandler{Pool: n.pool, Hub: n.hub, Ensure: n.ensure})
	mux.HandleFunc("/watch", n.hub.ServeWatch)
	mux.HandleFunc("/ledger/root", n.handleLedgerRoot)
	mux.HandleFunc("/ledger/proof/", n.handleLedgerProof)
	mux.HandleFunc("/metrics", n.handleMetrics)
	if n.cfg.Pprof {
		// Profiling endpoints: the perf methodology in BENCH.md captures
		// CPU, heap, allocation and execution-trace profiles against a live
		// daemon. Opt-in because profiles leak process internals and a
		// repeated /profile capture degrades detection latency.
		mux.HandleFunc("/debug/pprof/", handlePprof)
	}
	return mux
}

// handleMetrics serves the pool's registry in Prometheus text exposition
// format. The registry is live — scraping reads the pool's atomics in
// place, so the endpoint costs one buffer write per instrument.
func (n *Node) handleMetrics(w wire.ResponseWriter, r *wire.Request) {
	if r.Method != wire.MethodGet {
		wire.Error(w, "metrics wants GET", wire.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	n.pool.Metrics().WritePrometheus(w)
}

// handleChannel routes /channels/{id}/observe, /stats and /snapshot, and
// DELETE /channels/{id}.
func (n *Node) handleChannel(w wire.ResponseWriter, r *wire.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/channels/")
	id, verb, ok := strings.Cut(rest, "/")
	if !ok || id == "" {
		if id != "" && r.Method == wire.MethodDelete {
			if err := n.detach(id); err != nil {
				wire.Error(w, err.Error(), statusForPoolErr(err))
				return
			}
			fmt.Fprintf(w, "channel %q detached\n", id)
			return
		}
		wire.Error(w, "want /channels/{id}/observe, /channels/{id}/stats or DELETE /channels/{id}", wire.StatusNotFound)
		return
	}
	switch verb {
	case "observe":
		if r.Method != wire.MethodPost {
			wire.Error(w, "observe wants POST", wire.StatusMethodNotAllowed)
			return
		}
		n.handleObserve(w, r, id)
	case "stats":
		if r.Method != wire.MethodGet {
			wire.Error(w, "stats wants GET", wire.StatusMethodNotAllowed)
			return
		}
		st, err := n.pool.Stats(id)
		if err != nil {
			wire.Error(w, err.Error(), wire.StatusNotFound)
			return
		}
		wire.WriteJSON(w, st.WriteJSON)
	case "snapshot":
		n.handleChannelSnapshot(w, r, id)
	default:
		wire.Error(w, fmt.Sprintf("unknown channel action %q", verb), wire.StatusNotFound)
	}
}

// handleObserve streams decisions for an NDJSON observation stream: the
// NDJSON framing of the segment pump (serve.Pump). Each line is scored in
// order through the channel's shard, up to the pipelining depth of them in
// flight at once; a decision's seq is its line index in this stream. A
// line that is not scored says why: "rejected" when admission control
// refused it mid-stream (nothing lost, back off and resend), "error"
// otherwise. A full queue never loses a line: the pump waits for space.
func (n *Node) handleObserve(w wire.ResponseWriter, r *wire.Request, id string) {
	// The handler interleaves request-body reads with streamed response
	// writes, which wire.Server allows on every response. A pre-stream
	// refusal leaves the request body unread, so it closes the connection:
	// an observe body is open-ended, and the server would otherwise read it
	// on to keep the connection.
	w.Header().Set("Connection", "close")
	if !n.pool.AdmitStream(w, id, n.ensure) {
		return
	}
	w.Header().Del("Connection")
	w.Header().Set("Content-Type", "application/x-ndjson")
	// The feeder's wait for a buffer selects on the request context, which
	// the server cancels when the handler returns, so an aborted stream
	// never strands the goroutine.
	feed := wire.Feed(r.Context().Done(), wire.ScanLines(r.Body), 2)
	out := wire.NewLineWriter(w)
	pump := serve.Pump{Pool: n.pool, Channel: id, In: feed, Out: out}
	seq, err := pump.Run()
	// A scanner failure (e.g. a line over the buffer cap) would otherwise
	// look like a cleanly completed stream; surface it as a final line.
	if err == nil && feed.Err() != nil {
		line, _ := wire.AppendDecision(nil, &wire.Decision{Channel: id, Seq: seq,
			Error: fmt.Sprintf("request stream aborted: %v", feed.Err())})
		out.WriteLine(line)
	}
}

// handleChannelSnapshot is the channel-migration endpoint pair: GET streams
// the channel's quiesced runtime snapshot (export), PUT attaches a channel
// restored from the uploaded snapshot (import). Together they move a live
// channel between nodes without losing its window, threshold adaptation
// or pending update samples.
func (n *Node) handleChannelSnapshot(w wire.ResponseWriter, r *wire.Request, id string) {
	switch r.Method {
	case wire.MethodGet:
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := n.pool.ExportChannel(id, w); err != nil {
			// Headers may already be out; a mid-stream failure surfaces as a
			// truncated body, which the importer's envelope check rejects.
			wire.Error(w, err.Error(), statusForPoolErr(err))
		}
	case wire.MethodPut:
		if err := n.attach(id, &maxBytesReader{r: r.Body, n: maxSnapshotBytes}); err != nil {
			wire.Error(w, err.Error(), statusForPoolErr(err))
			return
		}
		w.WriteHeader(wire.StatusCreated)
		fmt.Fprintf(w, "channel %q attached from snapshot\n", id)
	default:
		wire.Error(w, "snapshot wants GET (export) or PUT (import)", wire.StatusMethodNotAllowed)
	}
}

// maxSnapshotBytes caps an uploaded channel snapshot. A served detector
// snapshot is ~176 KB; the cap only has to stop a peer from feeding the
// decoder without end.
const maxSnapshotBytes = 64 << 20

// errTooLarge is an upload past its cap; it is answered 413.
var errTooLarge = errors.New("request body too large")

// maxBytesReader fails a body read once n bytes have been read: the body
// is larger than its cap.
type maxBytesReader struct {
	r io.Reader
	n int64
}

func (m *maxBytesReader) Read(p []byte) (int, error) {
	if m.n < 0 {
		return 0, errTooLarge
	}
	if int64(len(p)) > m.n+1 {
		p = p[:m.n+1]
	}
	k, err := m.r.Read(p)
	if m.n -= int64(k); m.n < 0 {
		return k + int(m.n), errTooLarge
	}
	return k, err
}

// statusForPoolErr maps pool errors onto HTTP statuses.
func statusForPoolErr(err error) int {
	switch {
	case errors.Is(err, errTooLarge):
		return wire.StatusRequestTooLarge
	case errors.Is(err, serve.ErrChannelIDMismatch):
		// A snapshot whose manifest id disagrees with the URL id is a
		// malformed request, not a state conflict: reject before anything
		// attaches.
		return wire.StatusBadRequest
	case errors.Is(err, serve.ErrUnknownChannel):
		return wire.StatusNotFound
	case errors.Is(err, serve.ErrChannelExists):
		return wire.StatusConflict
	case errors.Is(err, serve.ErrNotSnapshottable), errors.Is(err, errForeignConfig):
		return wire.StatusUnprocessable
	case errors.Is(err, serve.ErrRejected):
		// Admission refused the request and nothing was lost, so the
		// client should retry.
		return wire.StatusTooManyRequests
	case errors.Is(err, serve.ErrClosed), errors.Is(err, errChannelLimit):
		return wire.StatusUnavailable
	default:
		return wire.StatusBadRequest
	}
}

// handleSnapshot checkpoints every channel on demand (POST /snapshot) and
// returns the commit report.
func (n *Node) handleSnapshot(w wire.ResponseWriter, r *wire.Request) {
	if r.Method != wire.MethodPost {
		wire.Error(w, "snapshot wants POST", wire.StatusMethodNotAllowed)
		return
	}
	if n.cfg.SnapshotDir == "" {
		wire.Error(w, "snapshots disabled: start aovlisd with -snapshot-dir", wire.StatusPreconditionFailed)
		return
	}
	rep, err := n.checkpoint()
	if err != nil {
		wire.Error(w, err.Error(), wire.StatusInternalError)
		return
	}
	wire.WriteJSON(w, rep.WriteJSON)
}

// handleLedgerRoot publishes the verdict ledger's current head: batch and
// entry counts plus the chained Merkle root. Operators record the chained
// hash out-of-band and later hand it to `aovlisctl verify -expect-chained`
// — a ledger directory rewritten after the fact can then never verify.
func (n *Node) handleLedgerRoot(w wire.ResponseWriter, r *wire.Request) {
	if n.ledgerFor(w, r, "ledger root wants GET") {
		wire.WriteJSON(w, n.ledger.Root().WriteJSON)
	}
}

// handleLedgerProof serves the Merkle inclusion proof for one committed
// verdict by ledger sequence. The proof is self-contained JSON — verify it
// offline with ledger.VerifyProof / aovlisctl, no trust in this node
// required beyond the out-of-band root.
func (n *Node) handleLedgerProof(w wire.ResponseWriter, r *wire.Request) {
	if !n.ledgerFor(w, r, "ledger proof wants GET") {
		return
	}
	seq, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/ledger/proof/"), 10, 64)
	if err != nil {
		wire.Error(w, "want /ledger/proof/{seq}", wire.StatusBadRequest)
		return
	}
	p, err := n.ledger.Proof(seq)
	if errors.Is(err, ledger.ErrNotCommitted) {
		wire.Error(w, err.Error(), wire.StatusNotFound)
		return
	}
	if err != nil {
		wire.Error(w, err.Error(), wire.StatusInternalError)
		return
	}
	wire.WriteJSON(w, p.WriteJSON)
}

// ledgerFor reports whether a ledger route may be served, answering 405
// (with wantGET) or 412 itself when it may not.
func (n *Node) ledgerFor(w wire.ResponseWriter, r *wire.Request, wantGET string) bool {
	if r.Method != wire.MethodGet {
		wire.Error(w, wantGET, wire.StatusMethodNotAllowed)
		return false
	}
	if n.ledger == nil {
		wire.Error(w, "verdict ledger disabled: start aovlisd with -ledger-dir", wire.StatusPreconditionFailed)
		return false
	}
	return true
}

// handleList reports every channel's counters.
func (n *Node) handleList(w wire.ResponseWriter, r *wire.Request) {
	if r.Method != wire.MethodGet {
		wire.Error(w, "channels wants GET", wire.StatusMethodNotAllowed)
		return
	}
	all := n.pool.AllStats()
	wire.WriteJSON(w, func(j *wire.JSON) { writeChannelList(j, all) })
}

// writeChannelList writes /channels: every channel's stats, in an array.
func writeChannelList(j *wire.JSON, all []serve.ChannelStats) {
	j.Array()
	for _, st := range all {
		st.WriteJSON(j)
	}
	j.EndArray()
}

// handleHealth is the liveness endpoint.
func (n *Node) handleHealth(w wire.ResponseWriter, r *wire.Request) {
	h := health{uptime: int(time.Since(n.started).Seconds()), pool: n.pool.PoolStats(),
		nodeID: n.cfg.NodeID, snapshotDir: n.cfg.SnapshotDir}
	if ns := n.lastSnapshot.Load(); ns > 0 && h.snapshotDir != "" {
		h.age, h.aged = int(time.Since(time.Unix(0, ns)).Seconds()), true
	}
	wire.WriteJSON(w, h.writeJSON)
}

// health is the /healthz document: a JSON object of "status" ("ok"),
// "uptime_seconds" and "pool", plus "node_id" and "snapshot_dir" when set
// and "last_snapshot_age_seconds" once a snapshot has committed (aged).
type health struct {
	uptime      int
	pool        serve.PoolStats
	nodeID      string
	snapshotDir string
	age         int
	aged        bool
}

// writeJSON writes h's members in encoding/json's map order: sorted.
func (h health) writeJSON(j *wire.JSON) {
	j.Object()
	if h.aged {
		j.Key("last_snapshot_age_seconds").Int(int64(h.age))
	}
	if h.nodeID != "" {
		j.Key("node_id").String(h.nodeID)
	}
	h.pool.WriteJSON(j.Key("pool"))
	if h.snapshotDir != "" {
		j.Key("snapshot_dir").String(h.snapshotDir)
	}
	j.Key("status").String("ok")
	j.Key("uptime_seconds").Int(int64(h.uptime))
	j.EndObject()
}

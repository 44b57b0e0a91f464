package node

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"aovlis/internal/ledger"
	"aovlis/internal/serve"
	"aovlis/internal/stream/live"
	"aovlis/internal/wire"
)

// Handler is the node's HTTP surface (the routes are listed in
// cmd/aovlisd's package comment).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", n.handleHealth)
	mux.HandleFunc("/channels", n.handleList)
	mux.HandleFunc("/channels/", n.handleChannel)
	mux.HandleFunc("/snapshot", n.handleSnapshot)
	// Live plane (ARCHITECTURE.md §15): WebSocket ingest with Last-Seq
	// resume, and the SSE verdict dashboard. The ingest handler shares the
	// NDJSON handler's pipelining depth so both planes feed the shard
	// micro-batcher the same backlog.
	mux.Handle("/live/", &live.IngestHandler{
		Pool: n.pool, Hub: n.hub, Ensure: n.ensure, Window: n.cfg.Pool.Batch})
	mux.HandleFunc("/watch", n.hub.ServeWatch)
	mux.HandleFunc("/ledger/root", n.handleLedgerRoot)
	mux.HandleFunc("/ledger/proof/", n.handleLedgerProof)
	if n.cfg.Metrics {
		mux.HandleFunc("/metrics", n.handleMetrics)
	}
	if n.cfg.Pprof {
		// Profiling endpoints: the perf methodology in BENCH.md captures
		// CPU, heap, allocation and execution-trace profiles against a live
		// daemon. Opt-in because profiles leak process internals and a
		// repeated /profile capture degrades detection latency.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics serves the pool's registry in Prometheus text exposition
// format. The registry is live — scraping reads the pool's atomics in
// place, so the endpoint costs one buffer write per instrument.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "metrics wants GET", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	n.pool.Metrics().WritePrometheus(w)
}

// handleChannel routes /channels/{id}/observe, /stats and /snapshot, and
// DELETE /channels/{id}.
func (n *Node) handleChannel(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/channels/")
	id, verb, ok := strings.Cut(rest, "/")
	if !ok || id == "" {
		if id != "" && r.Method == http.MethodDelete {
			if err := n.detach(id); err != nil {
				http.Error(w, err.Error(), statusForPoolErr(err))
				return
			}
			fmt.Fprintf(w, "channel %q detached\n", id)
			return
		}
		http.Error(w, "want /channels/{id}/observe, /channels/{id}/stats or DELETE /channels/{id}", http.StatusNotFound)
		return
	}
	switch verb {
	case "observe":
		if r.Method != http.MethodPost {
			http.Error(w, "observe wants POST", http.StatusMethodNotAllowed)
			return
		}
		n.handleObserve(w, r, id)
	case "stats":
		if r.Method != http.MethodGet {
			http.Error(w, "stats wants GET", http.StatusMethodNotAllowed)
			return
		}
		st, err := n.pool.Stats(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	case "snapshot":
		n.handleChannelSnapshot(w, r, id)
	default:
		http.Error(w, fmt.Sprintf("unknown channel action %q", verb), http.StatusNotFound)
	}
}

// handleObserve streams decisions for an NDJSON observation stream: the
// NDJSON framing of the segment pump (serve.Pump). Each line is scored in
// order through the channel's shard, up to the pipelining depth of them in
// flight at once; a decision's seq is its line index in this stream. A
// line that is not scored says why: "rejected" when admission control
// refused it mid-stream (nothing lost, back off and resend), "dropped"
// when a full queue under the drop policy lost it.
func (n *Node) handleObserve(w http.ResponseWriter, r *http.Request, id string) {
	// The handler interleaves request-body reads with streamed response
	// writes. Go's HTTP/1 server is half-duplex by default — it discards
	// the unread body once the response starts — so full duplex must be
	// requested explicitly (HTTP/2 interleaves natively; the error there
	// is ignorable). This must happen before ANY early return that writes
	// a response: without it the server blocks post-handler draining the
	// unread request body, and a router (aovlisr) holds its forward pipe
	// open indefinitely — a pre-stream 429 would deadlock instead of
	// reaching the client.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil && r.ProtoMajor == 1 {
		http.Error(w, fmt.Sprintf("streaming unsupported: %v", err), http.StatusInternalServerError)
		return
	}
	// A pre-stream refusal leaves the request body unread with full duplex
	// on, so it closes the connection: an observe body is open-ended, and
	// the server would otherwise read it on to keep the connection.
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
	pump := serve.Pump{Pool: n.pool, Channel: id, Window: n.cfg.Pool.Batch, In: feed, Out: out}
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
func (n *Node) handleChannelSnapshot(w http.ResponseWriter, r *http.Request, id string) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := n.pool.ExportChannel(id, w); err != nil {
			// Headers may already be out; a mid-stream failure surfaces as a
			// truncated body, which the importer's envelope check rejects.
			http.Error(w, err.Error(), statusForPoolErr(err))
		}
	case http.MethodPut:
		if err := n.attach(id, http.MaxBytesReader(w, r.Body, maxSnapshotBytes)); err != nil {
			http.Error(w, err.Error(), statusForPoolErr(err))
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, "channel %q attached from snapshot\n", id)
	default:
		http.Error(w, "snapshot wants GET (export) or PUT (import)", http.StatusMethodNotAllowed)
	}
}

// maxSnapshotBytes caps an uploaded channel snapshot. A served detector
// snapshot is ~176 KB; the cap only has to stop a peer from feeding the
// decoder without end.
const maxSnapshotBytes = 64 << 20

// statusForPoolErr maps pool errors onto HTTP statuses.
func statusForPoolErr(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, serve.ErrChannelIDMismatch):
		// A snapshot whose manifest id disagrees with the URL id is a
		// malformed request, not a state conflict: reject before anything
		// attaches.
		return http.StatusBadRequest
	case errors.Is(err, serve.ErrUnknownChannel):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrChannelExists):
		return http.StatusConflict
	case errors.Is(err, serve.ErrNotSnapshottable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, serve.ErrRejected):
		// Before ErrOverloaded, which it wraps: admission refused the
		// request and nothing was lost, so the client should retry.
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrClosed), errors.Is(err, errChannelLimit):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// handleSnapshot checkpoints every channel on demand (POST /snapshot) and
// returns the commit report.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "snapshot wants POST", http.StatusMethodNotAllowed)
		return
	}
	if n.cfg.SnapshotDir == "" {
		http.Error(w, "snapshots disabled: start aovlisd with -snapshot-dir", http.StatusPreconditionFailed)
		return
	}
	rep, err := n.checkpoint()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, rep)
}

// handleLedgerRoot publishes the verdict ledger's current head: batch and
// entry counts plus the chained Merkle root. Operators record the chained
// hash out-of-band and later hand it to `aovlisctl verify -expect-chained`
// — a ledger directory rewritten after the fact can then never verify.
func (n *Node) handleLedgerRoot(w http.ResponseWriter, r *http.Request) {
	if n.ledgerFor(w, r, "ledger root wants GET") {
		writeJSON(w, n.ledger.Root())
	}
}

// handleLedgerProof serves the Merkle inclusion proof for one committed
// verdict by ledger sequence. The proof is self-contained JSON — verify it
// offline with ledger.VerifyProof / aovlisctl, no trust in this node
// required beyond the out-of-band root.
func (n *Node) handleLedgerProof(w http.ResponseWriter, r *http.Request) {
	if !n.ledgerFor(w, r, "ledger proof wants GET") {
		return
	}
	seq, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/ledger/proof/"), 10, 64)
	if err != nil {
		http.Error(w, "want /ledger/proof/{seq}", http.StatusBadRequest)
		return
	}
	p, err := n.ledger.Proof(seq)
	if errors.Is(err, ledger.ErrNotCommitted) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, p)
}

// ledgerFor reports whether a ledger route may be served, answering 405
// (with wantGET) or 412 itself when it may not.
func (n *Node) ledgerFor(w http.ResponseWriter, r *http.Request, wantGET string) bool {
	if r.Method != http.MethodGet {
		http.Error(w, wantGET, http.StatusMethodNotAllowed)
		return false
	}
	if n.ledger == nil {
		http.Error(w, "verdict ledger disabled: start aovlisd with -ledger-dir", http.StatusPreconditionFailed)
		return false
	}
	return true
}

// handleList reports every channel's counters.
func (n *Node) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "channels wants GET", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, n.pool.AllStats())
}

// handleHealth is the liveness endpoint.
func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := map[string]interface{}{
		"status":         "ok",
		"uptime_seconds": int(time.Since(n.started).Seconds()),
		"pool":           n.pool.PoolStats(),
	}
	if n.cfg.NodeID != "" {
		resp["node_id"] = n.cfg.NodeID
	}
	if n.cfg.SnapshotDir != "" {
		resp["snapshot_dir"] = n.cfg.SnapshotDir
		if ns := n.lastSnapshot.Load(); ns > 0 {
			resp["last_snapshot_age_seconds"] = int(time.Since(time.Unix(0, ns)).Seconds())
		}
	}
	writeJSON(w, resp)
}

// writeJSON answers v as indented JSON, or 500 when v cannot be encoded:
// the body is encoded whole before the status goes out.
func writeJSON(w http.ResponseWriter, v interface{}) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

package liveplane

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"aovlis/internal/serve"
	"aovlis/internal/wire"
)

// Observation and Decision are the segment path's wire messages.
type (
	Observation = wire.Observation
	Decision    = wire.Decision
)

// IngestHandler serves /live/{channel}: it upgrades the connection,
// replays ring decisions above the client's Last-Seq, then pumps
// observations into the pool's zero-alloc SubmitInto path with the pool's
// pipelining window (serve.Pump), streaming decisions back strictly in
// message order.
type IngestHandler struct {
	Pool *serve.DetectorPool
	Hub  *Hub
	// Ensure creates the channel on first use and returns nil when it is
	// already attached.
	Ensure func(id string) error
}

// ServeHTTP implements the endpoint.
func (h *IngestHandler) ServeHTTP(w wire.ResponseWriter, r *wire.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/live/")
	if id == "" || strings.Contains(id, "/") {
		wire.Error(w, "want /live/{channel}", wire.StatusNotFound)
		return
	}
	var lastSeq uint64
	if v := r.Header.Get(wire.LastSeqHeader); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			wire.Error(w, "bad Last-Seq header", wire.StatusBadRequest)
			return
		}
		lastSeq = n
	}
	// Refusals go out before the upgrade: a plain status is cheaper for both
	// sides than an upgrade followed by a close.
	if !h.Pool.AdmitStream(w, id, h.Ensure) {
		return
	}
	sess, err := h.Hub.Acquire(id)
	if err != nil {
		status := wire.StatusUnavailable
		if errors.Is(err, ErrChannelBusy) {
			status = wire.StatusConflict
		}
		wire.Error(w, err.Error(), status)
		return
	}
	// The accepted floor is the channel's applied sequence: every verdict
	// the hub has ringed is at or below it, and it survives a restart that
	// emptied the ring when the pool journals. The client must not resend
	// at or below it — those segments are applied.
	floor := h.Pool.AppliedSeq(id)
	if lastSeq > floor {
		// The client claims decisions this server never issued — a channel
		// that restarted or was re-attached fresh. Refuse instead of
		// silently splicing two incompatible sequence spaces.
		sess.Release()
		w.Header().Set(wire.ResumeHeader, strconv.FormatUint(floor, 10))
		wire.Error(w, fmt.Sprintf("Last-Seq %d ahead of server floor %d; reset the stream", lastSeq, floor),
			wire.StatusConflict)
		return
	}
	conn, err := Upgrade(w, r, &Options{
		Header: wire.Header{wire.ResumeHeader: []string{strconv.FormatUint(floor, 10)}},
	})
	if err != nil {
		sess.Release()
		return
	}
	sess.Bind(conn)
	defer sess.Release()
	defer conn.Close()

	// Replay the decisions the previous connection lost in flight.
	if err := sess.Replay(lastSeq, func(_ uint64, line []byte) error {
		return conn.WriteMessage(OpText, line)
	}); err != nil {
		return
	}

	// The reader: closing quit unblocks its wait for a buffer, closing the
	// connection unblocks a parked ReadMessage, and the range waits for it
	// to be gone before the session is released.
	quit := make(chan struct{})
	feed := wire.Feed(quit, func() ([]byte, error) {
		_, msg, err := conn.ReadMessage()
		return msg, err
	}, 2)
	defer func() {
		close(quit)
		conn.Close()
		for range feed.C {
		}
	}()

	pump := serve.Pump{Pool: h.Pool, Channel: id, In: feed, Out: wsOut{conn}, Seal: sess.seal}
	if _, err := pump.Run(); err == nil {
		// Clean end of stream: the client closed (or broke) the connection;
		// finish the close handshake if it is still up.
		conn.WriteClose(CloseNormal, "")
	}
}

// seal is the live seq policy, the live plane's serve.Pump Seal: a
// verdict's Seq is the channel's sequence (its WSeq), and a line without a
// verdict gets 0: it is not ringed and the client may resend it. Every
// verdict is ringed before its line is written, so a reconnect can replay
// it.
func (s *Session) seal(dst []byte, d *wire.Decision) ([]byte, error) {
	d.Seq = 0
	if d.Verdict() {
		d.Seq = d.WSeq
	}
	dst, err := wire.AppendDecision(dst, d)
	if err == nil && d.Verdict() {
		err = s.Append(d)
	}
	return dst, err
}

// wsOut frames each decision line as one text message.
type wsOut struct{ conn *Conn }

func (o wsOut) WriteLine(line []byte) error {
	return o.conn.WriteMessage(OpText, line[:len(line)-1])
}

// Flush is a no-op: WriteMessage flushes per frame.
func (wsOut) Flush() {}

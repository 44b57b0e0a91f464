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

// ResumeHeader carries the channel's accepted floor on the 101 response;
// LastSeqHeader carries the client's replay cursor on the request.
const (
	ResumeHeader  = "X-Aovlis-Resume"
	LastSeqHeader = wire.LastSeqHeader
)

// IngestHandler serves /live/{channel}: it upgrades the connection,
// replays ring decisions above the client's Last-Seq, then pumps
// observations into the pool's zero-alloc SubmitInto path with a
// pipelining window, streaming decisions back strictly in message order.
type IngestHandler struct {
	Pool *serve.DetectorPool
	Hub  *Hub
	// Ensure creates the channel on first use (nil → the channel must
	// already be attached).
	Ensure func(id string) error
	// Window is the submission pipeline depth (≤ 0 → 1): how many
	// observations may be in flight before reads pause — the live analogue
	// of the observe handler's obsWindow.
	Window int
}

// ServeHTTP implements the endpoint.
func (h *IngestHandler) ServeHTTP(w wire.ResponseWriter, r *wire.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/live/")
	if id == "" || strings.Contains(id, "/") {
		wire.Error(w, "want /live/{channel}", wire.StatusNotFound)
		return
	}
	var lastSeq uint64
	if v := r.Header.Get(LastSeqHeader); v != "" {
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
	// The accepted floor: everything the hub has ringed, raised to the WAL
	// applied floor after a restart emptied the ring. The client must not
	// resend at or below it — those segments are journaled and applied.
	floor := sess.Last()
	if a := h.Pool.AppliedSeq(id); a > floor {
		floor = a
	}
	if lastSeq > floor {
		// The client claims decisions this server never issued — a channel
		// that restarted without a journal. Refuse instead of silently
		// splicing two incompatible sequence spaces.
		sess.Release()
		w.Header().Set(ResumeHeader, strconv.FormatUint(floor, 10))
		wire.Error(w, fmt.Sprintf("Last-Seq %d ahead of server floor %d; reset the stream", lastSeq, floor),
			wire.StatusConflict)
		return
	}
	conn, err := Upgrade(w, r, &Options{
		Header: wire.Header{ResumeHeader: []string{strconv.FormatUint(floor, 10)}},
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

	// The live seq policy: Seq is the channel's accepted-decision sequence
	// — the journal seq when the pool journals, a counter continuing from
	// the resume floor otherwise — and 0 on lines without a verdict, which
	// are not ringed and which the client may resend. Every verdict is
	// ringed before its line is written, so a reconnect can replay it.
	last := floor
	pump := serve.Pump{Pool: h.Pool, Channel: id, Window: h.Window, In: feed, Out: wsOut{conn},
		Seal: func(dst []byte, d *wire.Decision) ([]byte, error) {
			switch {
			case !d.Verdict():
				d.Seq = 0
			case d.WSeq != 0:
				d.Seq = d.WSeq
			default:
				last++
				d.Seq = last
			}
			dst, err := wire.AppendDecision(dst, d)
			if err == nil && d.Verdict() {
				err = sess.Append(d)
			}
			return dst, err
		}}
	if _, err := pump.Run(); err == nil {
		// Clean end of stream: the client closed (or broke) the connection;
		// finish the close handshake if it is still up.
		conn.WriteClose(CloseNormal, "")
	}
}

// wsOut frames each decision line as one text message.
type wsOut struct{ conn *Conn }

func (o wsOut) WriteLine(line []byte) error {
	return o.conn.WriteMessage(OpText, line[:len(line)-1])
}

// Flush is a no-op: WriteMessage flushes per frame.
func (wsOut) Flush() {}

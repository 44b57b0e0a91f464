package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aovlis/internal/stream/live"
)

// conn is one channel's connection to a server. The protocol binds one
// connection to one channel. send/flush are used by the channel's writer,
// recv by its reader; the two run concurrently.
type conn interface {
	// send queues one encoded observation.
	send(line []byte) error
	// flush puts everything queued on the wire.
	flush() error
	// recv returns the next decision line, valid until the next call.
	recv() ([]byte, error)
	close()
}

// ndjsonConn is a full-duplex POST /channels/{id}/observe: observations
// stream up the request body while decisions stream down the response.
type ndjsonConn struct {
	pw   *io.PipeWriter
	bw   *bufio.Writer
	resp chan ndjsonResp
	br   *bufio.Reader

	mu     sync.Mutex // guards body and closed: close may come from any goroutine
	body   io.ReadCloser
	closed bool
}

type ndjsonResp struct {
	resp *http.Response
	err  error
}

func dialNDJSON(client *http.Client, url string) (*ndjsonConn, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	c := &ndjsonConn{pw: pw, bw: bufio.NewWriterSize(pw, 64<<10), resp: make(chan ndjsonResp, 1)}
	// The server sends its response header with the first flushed decision,
	// so Do returns only after the first observation went up.
	go func() {
		resp, err := client.Do(req)
		c.resp <- ndjsonResp{resp, err}
	}()
	return c, nil
}

func (c *ndjsonConn) send(line []byte) error {
	if _, err := c.bw.Write(line); err != nil {
		return err
	}
	return c.bw.WriteByte('\n')
}

func (c *ndjsonConn) flush() error { return c.bw.Flush() }

func (c *ndjsonConn) recv() ([]byte, error) {
	if c.br == nil {
		r := <-c.resp
		if r.err != nil {
			return nil, r.err
		}
		if r.resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(r.resp.Body, 4<<10))
			r.resp.Body.Close()
			return nil, fmt.Errorf("observe status %d: %s", r.resp.StatusCode, b)
		}
		c.mu.Lock()
		c.body = r.resp.Body
		if c.closed {
			c.body.Close()
		}
		c.mu.Unlock()
		c.br = bufio.NewReaderSize(r.resp.Body, 64<<10)
	}
	return c.br.ReadSlice('\n')
}

func (c *ndjsonConn) close() {
	c.pw.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.body != nil {
		c.body.Close()
	}
}

// wsConn is a /live/{channel} WebSocket: one message per observation, one
// per decision.
type wsConn struct{ c *live.Conn }

func dialWS(url string) (*wsConn, error) {
	c, _, err := live.Dial(url, nil)
	if err != nil {
		return nil, err
	}
	return &wsConn{c}, nil
}

func (w *wsConn) send(line []byte) error { return w.c.WriteMessage(live.OpText, line) }
func (w *wsConn) flush() error           { return nil }
func (w *wsConn) recv() ([]byte, error) {
	_, msg, err := w.c.ReadMessage()
	return msg, err
}
func (w *wsConn) close() {
	w.c.WriteClose(live.CloseNormal, "")
	w.c.Close()
}

// channelRun drives one channel's whole stream over one connection: a
// reader goroutine parses and stamps every decision, and the phases write.
type channelRun struct {
	id    int
	c     conn
	lines [][]byte // distinct encoded observations
	seq   []int32  // k-th streamed segment → distinct observation
	epoch time.Time

	// dec[k] is the parsed decision for segment k; recvAt[k] the instant,
	// in ns since epoch, its line had been parsed. due[k] and sentAt[k] are
	// the scheduled and actual send instants of paced segments.
	dec    []live.Decision
	recvAt []int64
	due    []int64
	sentAt []int64

	// got counts parsed decisions; progress wakes a waiter after each.
	got      atomic.Int64
	progress chan struct{}
	// readErr is set before failed is closed.
	readErr error
	failed  chan struct{}
}

func newChannelRun(id int, c conn, in *inputs, epoch time.Time) *channelRun {
	n := len(in.seq[id])
	r := &channelRun{
		id: id, c: c, lines: in.lines[id], seq: in.seq[id], epoch: epoch,
		dec: make([]live.Decision, n), recvAt: make([]int64, n),
		due: make([]int64, n), sentAt: make([]int64, n),
		progress: make(chan struct{}, 1),
		failed:   make(chan struct{}),
	}
	go r.read()
	return r
}

// read is the channel's reader: decisions arrive in request order, so the
// k-th line answers the k-th segment.
func (r *channelRun) read() {
	for k := range r.dec {
		raw, err := r.c.recv()
		if err == nil {
			err = json.Unmarshal(raw, &r.dec[k])
		}
		if err != nil {
			r.readErr = fmt.Errorf("channel %d decision %d: %w", r.id, k, err)
			close(r.failed)
			return
		}
		r.recvAt[k] = int64(time.Since(r.epoch))
		r.got.Add(1)
		select {
		case r.progress <- struct{}{}:
		default:
		}
	}
}

// await blocks until the first n decisions have been parsed.
func (r *channelRun) await(n int) error {
	for int(r.got.Load()) < n {
		select {
		case <-r.progress:
		case <-r.failed:
			return r.readErr
		}
	}
	return nil
}

// closedLoop sends segments [from, to) keeping at most clientWindow of them
// unacknowledged. A full window is flushed, and refilled once half of it has
// been acknowledged: every flush but the last carries at least half a window,
// so the size of the writes does not hang on how the writer and the reader
// of one channel happen to interleave.
func (r *channelRun) closedLoop(from, to int) error {
	for k := from; k < to; k++ {
		if k-int(r.got.Load()) >= clientWindow {
			if err := r.c.flush(); err != nil {
				return err
			}
			if err := r.await(k - clientWindow/2); err != nil {
				return err
			}
		}
		if err := r.c.send(r.lines[r.seq[k]]); err != nil {
			return err
		}
	}
	return r.c.flush()
}

// openLoop sends segments [from, to) on a fixed schedule, rate per second
// starting at t0 + offset, whatever the server does: a segment that cannot
// be sent on time is sent as soon as possible and still timed from its
// scheduled instant.
func (r *channelRun) openLoop(from, to int, t0 time.Time, offset time.Duration, rate float64) error {
	start := int64(t0.Sub(r.epoch) + offset)
	for k := from; k < to; k++ {
		r.due[k] = start + int64(float64(k-from)/rate*float64(time.Second))
	}
	for k := from; k < to; {
		now := int64(time.Since(r.epoch))
		if wait := r.due[k] - now; wait > 0 {
			if err := r.c.flush(); err != nil {
				return err
			}
			sleepPrecisely(time.Duration(wait))
			continue
		}
		r.sentAt[k] = now
		if err := r.c.send(r.lines[r.seq[k]]); err != nil {
			return err
		}
		k++
	}
	return r.c.flush()
}

// eachChannel runs fn for every channel concurrently and returns the first
// error.
func eachChannel(runs []*channelRun, fn func(r *channelRun) error) error {
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(i int, r *channelRun) {
			defer wg.Done()
			errs[i] = fn(r)
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sleepPrecisely blocks the calling thread in nanosleep(2). time.Sleep parks
// the goroutine on the runtime's timer heap, and an otherwise idle Go process
// waits for its next timer in epoll_wait, whose timeout counts whole
// milliseconds: eight channels pacing that way ran 0.55 ms late at the median
// and 1.0 ms at p90 on the box this was sized on, nanosleep 0.09 and 0.13 ms.
// The open loop times a segment from its scheduled instant, so that lateness
// was a third to a half of the latency it reported.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early return (EINTR) is the caller's loop's to handle
}

package cluster

import (
	"bufio"
	"context"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/node"
	"aovlis/internal/serve"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// healthNode is a wire.Server answering /healthz as a node named name does,
// on a fixed address so a test can stop it and start another on the same
// port. It counts the connections it accepted and those still open, and
// numbers its answers in last_snapshot_age_seconds; slow delays the next
// answer.
type healthNode struct {
	addr     string
	srv      *wire.Server
	done     chan struct{}
	accepted atomic.Int32
	open     atomic.Int32
	served   atomic.Int64
	slow     atomic.Int64
	l        *countListener
}

func startHealthNode(t *testing.T, name, addr string) *healthNode {
	t.Helper()
	l, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	h := &healthNode{addr: l.Addr(), done: make(chan struct{})}
	h.l = &countListener{Listener: l, h: h}
	h.srv = &wire.Server{Handler: wire.HandlerFunc(func(w wire.ResponseWriter, r *wire.Request) {
		k := h.served.Add(1)
		time.Sleep(time.Duration(h.slow.Swap(0)))
		wire.WriteJSON(w, func(j *wire.JSON) {
			j.Object().Key("last_snapshot_age_seconds").Int(k)
			j.Key("node_id").String(name).Key("status").String("ok").EndObject()
		})
	})}
	go func() {
		defer close(h.done)
		h.srv.Serve(h.l)
	}()
	t.Cleanup(h.stop)
	return h
}

func (h *healthNode) spec(name string) NodeSpec {
	return NodeSpec{Name: name, URL: "http://" + h.addr}
}

// stop shuts the server down as a node's shutdown does: it closes the
// listener and every idle connection.
func (h *healthNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h.srv.Shutdown(ctx)
	<-h.done
}

type countListener struct {
	wire.Listener
	h     *healthNode
	mu    sync.Mutex
	conns []*countedConn
}

// closeAll closes, on the node's side, every connection it accepted.
func (l *countListener) closeAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

func (l *countListener) Accept() (wire.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.h.accepted.Add(1)
	l.h.open.Add(1)
	cc := &countedConn{Conn: c, open: &l.h.open}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

type countedConn struct {
	wire.Conn
	open   *atomic.Int32
	closed atomic.Bool
}

func (c *countedConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.open.Add(-1)
	}
	return c.Conn.Close()
}

// probeRouter is a Router over specs whose monitor is not started: the
// test drives each probe with check.
func probeRouter(t *testing.T, specs ...NodeSpec) *Router {
	t.Helper()
	r, err := New(Config{Nodes: specs, FailAfter: 3, ProbeTimeout: 2 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// checkFails probes n once and fails unless it then has fails consecutive
// failures and is alive as want.
func checkFails(t *testing.T, r *Router, n *Node, fails int32, alive bool) {
	t.Helper()
	r.check(n)
	if got := n.consecFails.Load(); got != fails || n.Alive() != alive {
		t.Fatalf("after a probe: %d consecutive failures, alive %v; want %d, %v", got, n.Alive(), fails, alive)
	}
}

// TestProbeKeepsOneConnection: probes ride one connection, and a node that
// shuts down is declared dead after exactly FailAfter probes, each of which
// counts one failure. Restarted on the same address, it revives on the next
// probe, and a restart between two probes costs no failure at all.
func TestProbeKeepsOneConnection(t *testing.T) {
	h := startHealthNode(t, "a", "127.0.0.1:0")
	r := probeRouter(t, h.spec("a"))
	n := r.byName["a"]
	for i := 0; i < 5; i++ {
		checkFails(t, r, n, 0, true)
	}
	if got := h.accepted.Load(); got != 1 {
		t.Fatalf("5 probes dialed %d connections, want 1", got)
	}

	h.stop()
	for i := int32(1); i <= 3; i++ {
		checkFails(t, r, n, i, i < 3)
	}
	h = startHealthNode(t, "a", h.addr)
	checkFails(t, r, n, 0, true)

	h.stop()
	h = startHealthNode(t, "a", h.addr)
	checkFails(t, r, n, 0, true)
	checkFails(t, r, n, 0, true)
	if got := h.accepted.Load(); got != 1 {
		t.Fatalf("two probes of a restarted node dialed %d connections, want 1", got)
	}
}

// TestProbeRedialsAnIdleCloseFreely: a kept connection the node closed
// while it was idle is redialed within the probe, which then succeeds.
func TestProbeRedialsAnIdleCloseFreely(t *testing.T) {
	h := startHealthNode(t, "a", "127.0.0.1:0")
	r := probeRouter(t, h.spec("a"))
	n := r.byName["a"]
	checkFails(t, r, n, 0, true)
	for i := 0; i < 3; i++ {
		h.l.closeAll()
		checkFails(t, r, n, 0, true)
	}
	if got := h.accepted.Load(); got != 4 {
		t.Fatalf("%d connections accepted, want 4: one, then one a close", got)
	}
}

// TestProbeTimeoutCountsAndResyncs: a probe whose answer is late counts one
// failure, and the next probe reads its own answer, not the late one.
func TestProbeTimeoutCountsAndResyncs(t *testing.T) {
	h := startHealthNode(t, "a", "127.0.0.1:0")
	r := probeRouter(t, h.spec("a"))
	n := r.byName["a"]
	checkFails(t, r, n, 0, true)
	h.slow.Store(int64(400 * time.Millisecond))
	r.cfg.ProbeTimeout = 100 * time.Millisecond
	checkFails(t, r, n, 1, true)
	r.cfg.ProbeTimeout = 2 * time.Second
	checkFails(t, r, n, 0, true)
	if got := n.lastSnapshotAge.Load(); got != 3 {
		t.Fatalf("the third probe read answer %d, want 3, its own", got)
	}
}

// TestProbeAnswerFraming: a probe reads a Content-Length answer and whether
// the node keeps the connection after it; any other framing, a malformed
// head or an answer cut short is refused.
func TestProbeAnswerFraming(t *testing.T) {
	const head = "HTTP/1.1 200 OK\r\n"
	for _, c := range []struct {
		in   string
		code int
		body string
		keep bool
		err  error
	}{
		{in: head + "Content-Length: 2\r\n\r\nok", code: 200, body: "ok", keep: true},
		{in: "HTTP/1.1 500 Internal Server Error\r\ncontent-length:  3 \r\nX: y\r\n\r\nbad", code: 500, body: "bad", keep: true},
		{in: "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", code: 200, body: "ok"},
		{in: head + "Connection: close\r\nContent-Length: 0\r\n\r\n", code: 200},
		{in: head + "Transfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n", err: errBadAnswer},
		{in: head + "\r\nok", err: errBadAnswer},
		{in: head + "Content-Length: 2097152\r\n\r\n", err: errBadAnswer},
		{in: head + "Content-Length: -1\r\n\r\n", err: errBadAnswer},
		{in: head + "no colon\r\n\r\n", err: errBadAnswer},
		{in: "HTTP/1.1 2x0 OK\r\n\r\n", err: errBadAnswer},
		{in: "SSH-2.0-OpenSSH_9.6\r\n", err: errBadAnswer},
		{in: head + "Content-Length: 10\r\n\r\nok", err: io.ErrUnexpectedEOF},
		{in: head + "Content-Length: 2\r\n", err: io.ErrUnexpectedEOF},
	} {
		p := prober{br: bufio.NewReader(strings.NewReader(c.in))}
		code, body, keep, err := p.answer()
		if err != c.err || code != c.code || string(body) != c.body || keep != c.keep {
			t.Errorf("%q: %d %q keep %v, %v; want %d %q keep %v, %v", c.in, code, body, keep, err, c.code, c.body, c.keep, c.err)
		}
	}
}

// TestProbeRefusesAForeignNodeOnTheSamePort: a process that took over a
// node's address but answers another node_id fails every probe, on the
// redialed connection too.
func TestProbeRefusesAForeignNodeOnTheSamePort(t *testing.T) {
	h := startHealthNode(t, "a", "127.0.0.1:0")
	r := probeRouter(t, h.spec("a"))
	n := r.byName["a"]
	checkFails(t, r, n, 0, true)
	h.stop()
	startHealthNode(t, "imposter", h.addr)
	checkFails(t, r, n, 1, true)
	if err := n.probe(time.Second); err == nil || !strings.Contains(err.Error(), `node_id "imposter"`) {
		t.Fatalf("probe of an imposter: %v, want a node_id refusal", err)
	}
}

// TestRouterCloseLeavesNoProbeConnection: once the router is closed, no
// connection of its probes stays open on the node.
func TestRouterCloseLeavesNoProbeConnection(t *testing.T) {
	h := startHealthNode(t, "a", "127.0.0.1:0")
	r, err := New(Config{Nodes: []NodeSpec{h.spec("a")}, ProbeEvery: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	waitCond(t, 5*time.Second, "the monitor never probed", func() bool { return h.open.Load() == 1 })
	r.Close()
	waitCond(t, 5*time.Second, "the node still holds the router's probe connection", func() bool { return h.open.Load() == 0 })
	if got := h.accepted.Load(); got != 1 {
		t.Fatalf("the monitor dialed %d connections, want 1", got)
	}
}

// smallDetector trains the small detector the real-node tests serve.
func smallDetector(t *testing.T) *aovlis.Detector {
	t.Helper()
	cfg := aovlis.DefaultConfig(8, 4)
	cfg.HiddenI, cfg.HiddenA, cfg.SeqLen, cfg.Epochs, cfg.Seed = 6, 4, 3, 1, 5
	acts, auds := make([][]float64, 48), make([][]float64, 48)
	for i := range acts {
		acts[i] = make([]float64, 8)
		acts[i][(i/3)%8] = 1
		auds[i] = []float64{0.3, 0.31, 0.29, 0.3}
	}
	det, err := aovlis.Train(acts, auds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestProbeSteadyStateAllocs: a warm probe of a real node (node.Open,
// served by wire.Server, in this process) allocates at most 3 KiB in 40
// objects, router and node together. Dialing each probe cost 16.2 KB in
// 116.
func TestProbeSteadyStateAllocs(t *testing.T) {
	const probes = 500
	nd, err := node.Open(smallDetector(t), node.Config{MaxChannels: 4, NodeID: "real", Logf: t.Logf,
		Pool: serve.Config{Shards: 1, QueueDepth: 16}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	n := newNode(NodeSpec{Name: "real", URL: wiretest.NewServer(t, nd.Handler()).URL})
	defer n.health.close()
	probe := func() {
		if err := n.probe(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		probe()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < probes; i++ {
		probe()
	}
	runtime.ReadMemStats(&after)
	objs := float64(after.Mallocs-before.Mallocs) / probes
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / probes
	t.Logf("a warm probe: %.1f allocations, %.0f B", objs, bytes)
	if objs > 40 || bytes > 3<<10 {
		t.Fatalf("a warm probe allocates %.1f objects and %.0f B, want at most 40 and 3 KiB", objs, bytes)
	}
}

// accepts counts the allocations made in proxyStream.accept, the line
// buffers a routed stream makes, over the process's life so far. It wants
// runtime.MemProfileRate = 1 from before the first of them.
func accepts() int64 {
	runtime.GC()
	runtime.GC() // the profile publishes at the end of a cycle
	var recs []runtime.MemProfileRecord
	for n := 64; ; n *= 2 {
		recs = make([]runtime.MemProfileRecord, n)
		if got, ok := runtime.MemProfile(recs, true); ok {
			recs = recs[:got]
			break
		}
	}
	var total int64
	for _, rec := range recs {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, ".(*proxyStream).accept") {
				total += rec.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestRoutedStreamBuffersOnlyLinesInFlight: a stream through a 32-slot
// window whose client keeps at most k lines outstanding, over six windows
// of traffic, makes at most k line buffers (plus the client feed's depth),
// not one per slot.
func TestRoutedStreamBuffersOnlyLinesInFlight(t *testing.T) {
	const window, k, lines = 32, 4, 6 * 32
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	_, _, srv := newTestCluster(t, 1, func(cfg *Config) { cfg.Window = window })
	s, err := wire.OpenStream(context.Background(), nil, srv.URL+"/channels/inflight/observe")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	before := accepts()
	line := []byte(obsLine(0.5) + "\n")
	sent, answered := 0, 0
	for answered < lines {
		for sent < lines && sent-answered < k {
			if err := s.WriteLine(line); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if sent == lines {
			if err := s.CloseSend(); err != nil {
				t.Fatal(err)
			}
		}
		if d, err := s.Next(); err != nil || !strings.Contains(string(d), `"score"`) {
			t.Fatalf("decision %d: %q, %v", answered, d, err)
		}
		answered++
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
	if made := accepts() - before; made > k+2 {
		t.Fatalf("%d lines, at most %d in flight, made %d line buffers; want at most %d", lines, k, made, k+2)
	} else {
		t.Logf("%d lines, at most %d in flight: %d line buffers made", lines, k, made)
	}
}

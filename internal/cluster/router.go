package cluster

import (
	"fmt"
	"io"
	"log"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aovlis/internal/wire"
)

// Config parameterises a Router.
type Config struct {
	// Nodes is the fleet (at least one). The ring places channels over it
	// with DefaultReplicas points per node and DefaultLoadFactor's bound.
	Nodes []NodeSpec
	// Window is the per-stream pipelining depth: how many forwarded
	// segments may be unacknowledged before the proxy stops reading the
	// client (0 → 32). It also bounds how many segments one stream can
	// queue at the router across a failover.
	Window int
	// ProbeEvery is the health-probe period (0 → 500ms); ProbeTimeout the
	// per-probe timeout (0 → 2s).
	ProbeEvery   time.Duration
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive probe failures declare a node dead
	// (0 → 3).
	FailAfter int
	// FailoverWait bounds how long a stream with a broken upstream keeps
	// its segments queued waiting for a new owner before converting them
	// to error lines (0 → 15s). It should exceed
	// ProbeEvery·FailAfter + restore time. Each admin call to a node
	// (snapshot export, import, detach, journal replay) gets the same budget.
	FailoverWait time.Duration
	// RetryEvery is the reconnect pacing inside that wait (0 → 50ms).
	RetryEvery time.Duration
	// Logf receives router event logs (nil → log.Printf).
	Logf func(format string, args ...interface{})
}

const defaultFailoverWait = 15 * time.Second

func (c *Config) fill() {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.FailoverWait <= 0 {
		c.FailoverWait = defaultFailoverWait
	}
	if c.RetryEvery <= 0 {
		c.RetryEvery = 50 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Router is the scale-out serving tier front end: it owns the ring, the
// per-channel ownership table, the node health monitor, and the proxy hot
// path. One Router serves many concurrent observe streams.
type Router struct {
	cfg    Config
	nodes  []*Node // sorted by name
	byName map[string]*Node
	ring   atomic.Pointer[Ring] // over currently-alive nodes
	tbl    *table
	m      *routerMetrics

	// dial opens each observe upstream's connection (nil: a plain TCP
	// dial); tests replace it to shape the router's sockets.
	dial wire.Dialer

	// topoMu serialises topology transitions: ring rebuilds, rebalances
	// and failovers. The proxy hot path never takes it.
	topoMu sync.Mutex

	started  time.Time
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Router over the configured fleet. Call Start to begin
// health probing, and Close to stop it.
func New(cfg Config) (*Router, error) {
	cfg.fill()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one node")
	}
	r := &Router{
		cfg:     cfg,
		byName:  make(map[string]*Node, len(cfg.Nodes)),
		tbl:     newTable(),
		started: time.Now(),
		stop:    make(chan struct{}),
	}
	for _, spec := range cfg.Nodes {
		if _, dup := r.byName[spec.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", spec.Name)
		}
		n := newNode(spec)
		n.adminWait = cfg.FailoverWait
		r.byName[spec.Name] = n
		r.nodes = append(r.nodes, n)
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].Spec.Name < r.nodes[j].Spec.Name })
	if err := r.rebuildRing(); err != nil {
		return nil, err
	}
	r.m = newRouterMetrics(r)
	return r, nil
}

// rebuildRing republishes the ring over the currently-alive node set.
// Callers hold topoMu (or are inside New).
func (r *Router) rebuildRing() error {
	names := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n.Alive() {
			names = append(names, n.Spec.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("cluster: no alive nodes")
	}
	ring, err := NewRing(names, DefaultReplicas, DefaultLoadFactor)
	if err != nil {
		return err
	}
	r.ring.Store(ring)
	return nil
}

// place chooses the bounded-load owner for a newly-seen channel from the
// current ring and live per-node loads. Runs under the table writer lock.
func (r *Router) place(id string) (*Node, error) {
	ring := r.ring.Load()
	names := ring.Nodes()
	load := make([]int, len(names))
	placed := 0
	for i, name := range names {
		c := int(r.byName[name].Owned())
		load[i] = c
		placed += c
	}
	name, err := ring.Place(id, load, placed)
	if err != nil {
		return nil, err
	}
	return r.byName[name], nil
}

// Start launches the health monitor.
func (r *Router) Start() {
	r.wg.Add(1)
	go r.monitor()
}

// Close stops the health monitor, waits for it, and closes the
// connections its probes kept.
func (r *Router) Close() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.wg.Wait()
		for _, n := range r.nodes {
			n.health.close()
		}
	})
}

// monitor probes every node each ProbeEvery.
func (r *Router) monitor() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		for _, n := range r.nodes {
			r.check(n)
		}
	}
}

// check probes n once: FailAfter consecutive failures trigger failover, a
// successful probe of a dead node revives it (new placements only —
// existing channels move back on the next rebalance).
func (r *Router) check(n *Node) {
	err := n.probe(r.cfg.ProbeTimeout)
	if err == nil {
		n.consecFails.Store(0)
		if !n.Alive() {
			r.reviveNode(n)
		}
		return
	}
	fails := n.consecFails.Add(1)
	if n.Alive() && int(fails) >= r.cfg.FailAfter {
		r.cfg.Logf("cluster: node %s failed %d probes (%v), failing over", n.Spec.Name, fails, err)
		if ferr := r.FailNode(n.Spec.Name); ferr != nil {
			r.cfg.Logf("cluster: failover of %s: %v", n.Spec.Name, ferr)
		}
	}
}

// reviveNode returns a recovered node to the placement ring.
func (r *Router) reviveNode(n *Node) {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	if n.Alive() {
		return
	}
	n.alive.Store(true)
	if err := r.rebuildRing(); err != nil {
		r.cfg.Logf("cluster: ring rebuild after revive of %s: %v", n.Spec.Name, err)
	}
	r.cfg.Logf("cluster: node %s revived (rejoin ring; run /cluster/rebalance to move channels back)", n.Spec.Name)
}

// Handler returns the router's HTTP surface: the proxied channel endpoints
// plus the cluster admin API.
func (r *Router) Handler() wire.Handler {
	mux := &wire.Mux{}
	mux.HandleFunc("/healthz", r.handleHealth)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/cluster/nodes", r.handleNodes)
	mux.HandleFunc("/cluster/place", r.handlePlace)
	mux.HandleFunc("/cluster/rebalance", r.handleRebalance)
	mux.HandleFunc("/channels", r.handleChannels)
	mux.HandleFunc("/channels/", r.handleChannel)
	mux.HandleFunc("/live/", r.handleLive)
	mux.HandleFunc("/watch", r.handleWatch)
	return mux
}

func (r *Router) handleMetrics(w wire.ResponseWriter, req *wire.Request) {
	if req.Method != wire.MethodGet {
		wire.Error(w, "metrics wants GET", wire.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.m.reg.WritePrometheus(w)
}

func (r *Router) handleHealth(w wire.ResponseWriter, req *wire.Request) {
	alive := 0
	for _, n := range r.nodes {
		if n.Alive() {
			alive++
		}
	}
	channels, uptime := len(r.tbl.snapshot()), int(time.Since(r.started).Seconds())
	wire.WriteJSON(w, func(j *wire.JSON) {
		j.Object()
		j.Key("channels").Int(int64(channels))
		j.Key("nodes").Int(int64(len(r.nodes)))
		j.Key("nodes_alive").Int(int64(alive))
		j.Key("role").String("router")
		j.Key("status").String("ok")
		j.Key("uptime_seconds").Int(int64(uptime))
		j.EndObject()
	})
}

// nodeStatus is one row of GET /cluster/nodes.
type nodeStatus struct {
	Name             string `json:"name"`
	URL              string `json:"url"`
	Alive            bool   `json:"alive"`
	Channels         int64  `json:"channels"`
	ConsecutiveFails int32  `json:"consecutive_fails"`
	// LastSnapshotAgeSeconds mirrors the node's own /healthz gauge; nil
	// when the node has never reported one.
	LastSnapshotAgeSeconds *int64 `json:"last_snapshot_age_seconds,omitempty"`
	SnapshotDir            string `json:"snapshot_dir,omitempty"`
}

func (r *Router) handleNodes(w wire.ResponseWriter, req *wire.Request) {
	if req.Method != wire.MethodGet {
		wire.Error(w, "nodes wants GET", wire.StatusMethodNotAllowed)
		return
	}
	out := make([]nodeStatus, 0, len(r.nodes))
	for _, n := range r.nodes {
		st := nodeStatus{
			Name:             n.Spec.Name,
			URL:              n.Spec.URL,
			Alive:            n.Alive(),
			Channels:         n.Owned(),
			ConsecutiveFails: n.consecFails.Load(),
			SnapshotDir:      n.Spec.SnapshotDir,
		}
		if age := n.lastSnapshotAge.Load(); age >= 0 {
			st.LastSnapshotAgeSeconds = &age
		}
		out = append(out, st)
	}
	wire.WriteJSON(w, func(j *wire.JSON) {
		j.Array()
		for _, st := range out {
			st.writeJSON(j)
		}
		j.EndArray()
	})
}

func (st nodeStatus) writeJSON(j *wire.JSON) {
	j.Object()
	j.Key("name").String(st.Name)
	j.Key("url").String(st.URL)
	j.Key("alive").Bool(st.Alive)
	j.Key("channels").Int(st.Channels)
	j.Key("consecutive_fails").Int(int64(st.ConsecutiveFails))
	if st.LastSnapshotAgeSeconds != nil {
		j.Key("last_snapshot_age_seconds").Int(*st.LastSnapshotAgeSeconds)
	}
	if st.SnapshotDir != "" {
		j.Key("snapshot_dir").String(st.SnapshotDir)
	}
	j.EndObject()
}

// placement is the GET /cluster/place response.
type placement struct {
	Channel string `json:"channel"`
	Node    string `json:"node"`
	URL     string `json:"url"`
	// Placed is true when the channel has a live routing entry; false
	// means Node is the prediction for a channel not yet seen.
	Placed bool   `json:"placed"`
	Epoch  uint64 `json:"epoch,omitempty"`
}

func (p placement) writeJSON(j *wire.JSON) {
	j.Object()
	j.Key("channel").String(p.Channel)
	j.Key("node").String(p.Node)
	j.Key("url").String(p.URL)
	j.Key("placed").Bool(p.Placed)
	if p.Epoch != 0 {
		j.Key("epoch").Uint(p.Epoch)
	}
	j.EndObject()
}

func (r *Router) handlePlace(w wire.ResponseWriter, req *wire.Request) {
	if req.Method != wire.MethodGet {
		wire.Error(w, "place wants GET", wire.StatusMethodNotAllowed)
		return
	}
	id := req.URL.Query().Get("channel")
	if id == "" {
		wire.Error(w, "place wants ?channel={id}", wire.StatusBadRequest)
		return
	}
	if e := r.tbl.get(id); e != nil {
		owner, epoch, _ := e.state()
		wire.WriteJSON(w, placement{Channel: id, Node: owner.Spec.Name, URL: owner.Spec.URL, Placed: true, Epoch: epoch}.writeJSON)
		return
	}
	// Prediction path: same bounded-load rule a real placement would use,
	// without creating an entry.
	r.tbl.mu.Lock()
	n, err := r.place(id)
	r.tbl.mu.Unlock()
	if err != nil {
		wire.Error(w, err.Error(), wire.StatusUnavailable)
		return
	}
	wire.WriteJSON(w, placement{Channel: id, Node: n.Spec.Name, URL: n.Spec.URL, Placed: false}.writeJSON)
}

func (r *Router) handleRebalance(w wire.ResponseWriter, req *wire.Request) {
	if req.Method != wire.MethodPost {
		wire.Error(w, "rebalance wants POST", wire.StatusMethodNotAllowed)
		return
	}
	rep, err := r.Rebalance()
	if err != nil {
		wire.Error(w, err.Error(), wire.StatusUnavailable)
		return
	}
	wire.WriteJSON(w, rep.writeJSON)
}

// handleChannels answers GET /channels as a node does, for the alive
// fleet: one array of every channel's stats, sorted by channel id. A
// channel two nodes list (a stale copy after a failover) appears once, as
// the later node in -nodes order reports it.
func (r *Router) handleChannels(w wire.ResponseWriter, req *wire.Request) {
	if req.Method != wire.MethodGet {
		wire.Error(w, "channels wants GET", wire.StatusMethodNotAllowed)
		return
	}
	byID := make(map[string][]byte)
	for _, n := range r.nodes {
		if !n.Alive() {
			continue
		}
		resp, err := n.send(req.Context(), wire.MethodGet, "/channels", nil, nil)
		if err != nil {
			continue
		}
		one, err := readChannelList(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, st := range one {
			byID[channelOf(st)] = st
		}
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	merged := make(channelList, len(ids))
	for i, id := range ids {
		merged[i] = byID[id]
	}
	wire.WriteJSON(w, merged.writeJSON)
}

// channelList is the raw JSON of each channel's stats, as a
// []json.RawMessage holds them.
type channelList [][]byte

// writeJSON writes l as encoding/json writes the slice: each element
// compacted and re-indented in place.
func (l channelList) writeJSON(j *wire.JSON) {
	j.Array()
	for _, st := range l {
		j.Raw(st)
	}
	j.EndArray()
}

// readChannelList reads a node's /channels body as a json.Decoder reads a
// []json.RawMessage: each element as its raw bytes.
func readChannelList(body io.Reader) (channelList, error) {
	var r wire.JSONReader
	if err := readJSONLimited(body, &r); err != nil {
		return nil, err
	}
	var one [][]byte
	wire.ReadSlice(&r, &one, func(st *[]byte) { *st = r.Raw() })
	return one, r.Err()
}

// channelOf is the "channel" member of one channel's stats, or "" when it
// has none.
func channelOf(st []byte) string {
	var r wire.JSONReader
	var id string
	if r.Reset(st) == nil && r.Object() {
		for r.More() {
			if r.Key("channel") == 0 {
				r.String(&id)
			} else {
				r.Skip()
			}
		}
	}
	return id
}

// handleChannel routes /channels/{id}/observe (proxied stream) and
// /channels/{id}/stats (passthrough to the owner).
func (r *Router) handleChannel(w wire.ResponseWriter, req *wire.Request) {
	rest := req.URL.Path[len("/channels/"):]
	id, verb, ok := cutSlash(rest)
	if !ok || id == "" {
		wire.Error(w, "want /channels/{id}/observe or /channels/{id}/stats", wire.StatusNotFound)
		return
	}
	switch verb {
	case "observe":
		if req.Method != wire.MethodPost {
			wire.Error(w, "observe wants POST", wire.StatusMethodNotAllowed)
			return
		}
		r.handleObserve(w, req, id)
	case "stats":
		if req.Method != wire.MethodGet {
			wire.Error(w, "stats wants GET", wire.StatusMethodNotAllowed)
			return
		}
		e := r.tbl.get(id)
		if e == nil {
			wire.Error(w, fmt.Sprintf("channel %q not routed", id), wire.StatusNotFound)
			return
		}
		owner, _, _ := e.state()
		resp, err := owner.send(req.Context(), wire.MethodGet, "/channels/"+url.PathEscape(id)+"/stats", nil, nil)
		if err != nil {
			wire.Error(w, err.Error(), wire.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	default:
		wire.Error(w, fmt.Sprintf("unknown channel action %q", verb), wire.StatusNotFound)
	}
}

// cutSlash splits "id/verb" without importing strings on the hot path.
func cutSlash(s string) (id, verb string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// stubNode is an in-process aovlisd stand-in for router tests: it speaks
// the channel API (observe/stats/snapshot/detach/healthz) with a trivial
// "model" — each channel is a monotone counter, and every decision's
// score encodes (node seed, lifetime position), so a test can read back
// exactly which node scored a segment and whether state travelled with a
// migration. The multi-process soak pins the router against the real
// daemon; these stubs pin the router's own logic with controllable
// failure modes (reject, die) that the real daemon cannot produce on cue.
type stubNode struct {
	name string
	seed float64
	srv  *wiretest.Server

	reject     atomic.Bool  // 429 + Retry-After on new observe streams
	retryAfter atomic.Int32 // Retry-After seconds advertised with the 429 (0: omit the header)
	sick       atomic.Bool  // /healthz answers 500
	fail500    atomic.Bool  // observe answers 500 (broken-node, not overload)
	putStatus  atomic.Int32 // when set, snapshot imports are refused with this status
	puts       atomic.Int32 // snapshot imports received
	padPath    atomic.Int32 // bytes of padding in every decision's path (large-acknowledgement tests)
	seqFrom    atomic.Int32 // the seq each observe response numbers its first line with

	// watch is the fixed event list the stub's /watch replays (live_test
	// populates it); watchEnd makes the handler return after the replay
	// instead of holding the stream open, and watchQuery records the last
	// raw query so tests can pin filter passthrough.
	watchEnd   atomic.Bool
	watchQuery atomic.Value // string

	mu       sync.Mutex
	channels map[string]*stubChannel
	watch    []string
	onPut    func(id string) // called with each snapshot import's channel, before it is read
}

type stubChannel struct {
	observed int
}

// stubState is the stub's "snapshot" wire format: JSON, opaque to the
// router, carrying the counter that proves state continuity.
type stubState struct {
	ID       string `json:"id"`
	Observed int    `json:"observed"`
}

func newStubNode(t *testing.T, name string, seed float64) *stubNode {
	t.Helper()
	return newStubNodeOn(t, name, seed, nil)
}

// newStubNodeOn is newStubNode with the server's listener passed through
// wrap first (nil: as it is), for tests that shape the node's connections.
func newStubNodeOn(t *testing.T, name string, seed float64, wrap func(wire.Listener) wire.Listener) *stubNode {
	t.Helper()
	s := &stubNode{name: name, seed: seed, channels: map[string]*stubChannel{}}
	s.retryAfter.Store(7)
	s.srv = wiretest.NewServerOn(t, s.handler(), wrap)
	return s
}

func (s *stubNode) spec() NodeSpec {
	return NodeSpec{Name: s.name, URL: s.srv.URL}
}

func (s *stubNode) observedCount(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.channels[id]; c != nil {
		return c.observed
	}
	return -1
}

func (s *stubNode) hasChannel(id string) bool { return s.observedCount(id) >= 0 }

func (s *stubNode) handler() wire.Handler {
	mux := &wire.Mux{}
	mux.HandleFunc("/healthz", func(w wire.ResponseWriter, r *wire.Request) {
		if s.sick.Load() {
			wire.Error(w, "sick", http.StatusInternalServerError)
			return
		}
		age := 3
		json.NewEncoder(w).Encode(map[string]interface{}{
			"status": "ok", "node_id": s.name, "last_snapshot_age_seconds": age,
		})
	})
	// /channels answers as a node does: an array of channel stats, sorted
	// by channel.
	mux.HandleFunc("/channels", func(w wire.ResponseWriter, r *wire.Request) {
		type stats struct {
			Channel  string `json:"channel"`
			Observed int    `json:"observed"`
		}
		s.mu.Lock()
		out := make([]stats, 0, len(s.channels))
		for id, c := range s.channels {
			out = append(out, stats{Channel: id, Observed: c.observed})
		}
		s.mu.Unlock()
		sort.Slice(out, func(i, j int) bool { return out[i].Channel < out[j].Channel })
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/channels/", s.handleChannel)
	mux.HandleFunc("/live/", s.handleLive)
	mux.HandleFunc("/watch", s.handleWatch)
	return mux
}

func (s *stubNode) handleChannel(w wire.ResponseWriter, r *wire.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/channels/")
	id, verb, ok := strings.Cut(rest, "/")
	if !ok {
		if id != "" && r.Method == http.MethodDelete {
			s.mu.Lock()
			_, exists := s.channels[id]
			delete(s.channels, id)
			s.mu.Unlock()
			if !exists {
				wire.Error(w, "unknown channel", http.StatusNotFound)
				return
			}
			fmt.Fprintln(w, "detached")
			return
		}
		wire.Error(w, "404 page not found", http.StatusNotFound)
		return
	}
	switch verb {
	case "observe":
		s.handleObserve(w, r, id)
	case "stats":
		s.mu.Lock()
		c := s.channels[id]
		s.mu.Unlock()
		if c == nil {
			wire.Error(w, "unknown channel", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(stubState{ID: id, Observed: c.observed})
	case "snapshot":
		s.handleSnapshot(w, r, id)
	default:
		wire.Error(w, "404 page not found", http.StatusNotFound)
	}
}

func (s *stubNode) handleObserve(w wire.ResponseWriter, r *wire.Request, id string) {
	if s.fail500.Load() {
		wire.Error(w, "stub exploded", http.StatusInternalServerError)
		return
	}
	if s.reject.Load() {
		if ra := s.retryAfter.Load(); ra > 0 {
			w.Header().Set("Retry-After", fmt.Sprint(ra))
		}
		wire.Error(w, "stub overloaded", http.StatusTooManyRequests)
		return
	}
	s.mu.Lock()
	if s.channels[id] == nil {
		s.channels[id] = &stubChannel{}
	}
	s.mu.Unlock()
	enc := json.NewEncoder(w)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	seq := uint64(s.seqFrom.Load())
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		d := wire.Decision{Channel: id, Seq: seq, Exact: true}
		var obs struct {
			Action []float64 `json:"action"`
		}
		if err := json.Unmarshal([]byte(line), &obs); err != nil || len(obs.Action) == 0 {
			d.Error = "bad observation line"
		} else {
			s.mu.Lock()
			c := s.channels[id]
			c.observed++
			// Score encodes (node, lifetime position): tests decode it to
			// prove which node scored a segment and that migrations carried
			// the counter.
			d.Score = s.seed*1000 + float64(c.observed)
			s.mu.Unlock()
			d.Path = strings.Repeat("p", int(s.padPath.Load()))
		}
		enc.Encode(d)
		w.Flush()
		seq++
	}
}

func (s *stubNode) handleSnapshot(w wire.ResponseWriter, r *wire.Request, id string) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		c := s.channels[id]
		s.mu.Unlock()
		if c == nil {
			wire.Error(w, "unknown channel", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(stubState{ID: id, Observed: c.observed})
	case http.MethodPut:
		s.puts.Add(1)
		s.mu.Lock()
		onPut := s.onPut
		s.mu.Unlock()
		if onPut != nil {
			onPut(id)
		}
		if code := int(s.putStatus.Load()); code != 0 {
			wire.Error(w, "import refused", code)
			return
		}
		var st stubState
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&st); err != nil {
			wire.Error(w, "bad snapshot: "+err.Error(), http.StatusBadRequest)
			return
		}
		// Mirror the daemon's id-mismatch guard (satellite 2): a stream
		// exported for another channel is a 400.
		if st.ID != "" && st.ID != id {
			wire.Error(w, fmt.Sprintf("snapshot exports %q, attaching as %q", st.ID, id), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		_, exists := s.channels[id]
		if !exists {
			s.channels[id] = &stubChannel{observed: st.Observed}
		}
		s.mu.Unlock()
		if exists {
			wire.Error(w, "channel exists", http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		wire.Error(w, "snapshot wants GET or PUT", http.StatusMethodNotAllowed)
	}
}

// scoreNode decodes which stub seed produced a decision score.
func scoreNode(score float64) int { return int(score) / 1000 }

// scorePos decodes the lifetime position encoded in a decision score.
func scorePos(score float64) int { return int(score) % 1000 }

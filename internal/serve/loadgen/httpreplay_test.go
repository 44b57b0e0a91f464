package loadgen

// In-package tests for the HTTP replayer. The cluster and router suites
// drive HTTPReplay against real servers end to end; these pin the client
// loop itself — windowed pipelining, decision classification, 429 backoff
// with resend, and terminal failure — against a scriptable observe stub.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// observeStub is a minimal aovlisd observe endpoint: one decision per
// line, classified by a per-seq script, with optional whole-stream 429s
// on the first N opens of each channel.
type observeStub struct {
	classify func(seq int) (rejected bool, errMsg string)
	reject   int // 429 the first N opens per channel
	status   int // non-zero: answer every observe with this status

	mu    sync.Mutex
	opens map[string]int
}

func (s *observeStub) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/channels/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/channels/"), "/observe")
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil && r.ProtoMajor == 1 {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if s.status != 0 {
			http.Error(w, "scripted failure", s.status)
			return
		}
		s.mu.Lock()
		if s.opens == nil {
			s.opens = map[string]int{}
		}
		s.opens[id]++
		nth := s.opens[id]
		s.mu.Unlock()
		if nth <= s.reject {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		sc := bufio.NewScanner(r.Body)
		seq := 0
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			d := map[string]interface{}{"channel": id, "seq": seq, "score": 0.5}
			if s.classify != nil {
				rejected, errMsg := s.classify(seq)
				d["rejected"] = rejected
				if errMsg != "" {
					d["error"] = errMsg
				}
			}
			enc.Encode(d)
			if flusher != nil {
				flusher.Flush()
			}
			seq++
		}
	})
	return mux
}

func stubServer(t *testing.T, s *observeStub) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)
	return srv
}

func replaySchedule(t *testing.T, channels int, dur time.Duration) *Schedule {
	t.Helper()
	sched, err := New(Config{
		Shape: Steady, Seed: 7, Duration: dur,
		BaseRate: 300, Channels: channels, ActionDim: 2, AudienceDim: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Arrivals) < 10 {
		t.Fatalf("degenerate schedule: %d arrivals", len(sched.Arrivals))
	}
	return sched
}

func TestHTTPReplayCleanRun(t *testing.T) {
	srv := stubServer(t, &observeStub{})
	sched := replaySchedule(t, 3, 150*time.Millisecond)

	h := HTTPReplay{BaseURL: srv.URL, Window: 4}
	res, err := h.Run(sched)
	if err != nil {
		t.Fatalf("clean run failed: %v (%+v)", err, res)
	}
	if res.Sent != len(sched.Arrivals) {
		t.Fatalf("sent %d of %d offered", res.Sent, len(sched.Arrivals))
	}
	if res.Decisions != res.Sent || res.Verdicts != res.Sent {
		t.Fatalf("lost or degraded segments on a clean run: %+v", res)
	}
	if res.Rejected != 0 || res.Errors != 0 || res.Retried != 0 {
		t.Fatalf("phantom degradations: %+v", res)
	}
	if res.SegsPerSec() <= 0 {
		t.Fatalf("throughput not measured: %+v", res)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v", res.P50, res.P99)
	}
}

func TestHTTPReplayClassifiesDecisions(t *testing.T) {
	srv := stubServer(t, &observeStub{
		classify: func(seq int) (bool, string) {
			switch seq % 5 {
			case 2:
				return true, ""
			case 3:
				return false, "scripted error"
			}
			return false, ""
		},
	})
	sched := replaySchedule(t, 2, 150*time.Millisecond)

	h := HTTPReplay{BaseURL: srv.URL, Window: 8}
	res, err := h.Run(sched)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Decisions != res.Sent {
		t.Fatalf("decision count mismatch: %+v", res)
	}
	if res.Verdicts == 0 || res.Rejected == 0 || res.Errors == 0 {
		t.Fatalf("classification missed a class: %+v", res)
	}
	if got := res.Decisions - res.Rejected - res.Errors; res.Verdicts != got {
		t.Fatalf("Verdicts %d, want %d", res.Verdicts, got)
	}
}

// TestHTTPReplayBackoffRecovers: each channel's first open is a 429 with
// Retry-After; with Backoff the replayer sleeps the hint, reopens, resends
// the unacknowledged window, and still delivers every offered segment.
func TestHTTPReplayBackoffRecovers(t *testing.T) {
	srv := stubServer(t, &observeStub{reject: 1})
	sched := replaySchedule(t, 2, 100*time.Millisecond)

	h := HTTPReplay{BaseURL: srv.URL, Backoff: true, MaxRetries: 3, Window: 4}
	res, err := h.Run(sched)
	if err != nil {
		t.Fatalf("run failed despite backoff budget: %v (%+v)", err, res)
	}
	if res.Retried == 0 || res.Backoff < time.Second {
		t.Fatalf("429 backoff never honored: %+v", res)
	}
	if res.Decisions != res.Sent || res.Verdicts != res.Sent {
		t.Fatalf("segments lost across backoff resend: %+v", res)
	}
}

// TestHTTPReplay429WithoutBackoffFails: the admission-reject relay is an
// error unless the caller opted into the backoff loop.
func TestHTTPReplay429WithoutBackoffFails(t *testing.T) {
	srv := stubServer(t, &observeStub{reject: 1000})
	sched := replaySchedule(t, 1, 100*time.Millisecond)

	h := HTTPReplay{BaseURL: srv.URL, Window: 4}
	_, err := h.Run(sched)
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("run = %v, want a 429 stream error", err)
	}
}

// TestHTTPReplayServerErrorFails: a non-429 failure status is terminal
// even with Backoff (retries exhaust against the same answer).
func TestHTTPReplayServerErrorFails(t *testing.T) {
	srv := stubServer(t, &observeStub{status: http.StatusInternalServerError})
	sched := replaySchedule(t, 1, 100*time.Millisecond)

	h := HTTPReplay{BaseURL: srv.URL, Backoff: true, MaxRetries: 2, Window: 4}
	res, err := h.Run(sched)
	if err == nil || !strings.Contains(err.Error(), "status 500") {
		t.Fatalf("run = %v, want a status-500 error", err)
	}
	if res.Retried == 0 {
		t.Fatalf("backoff never attempted recovery before giving up: %+v", res)
	}
}

func TestHTTPResultSegsPerSec(t *testing.T) {
	if got := (HTTPResult{}).SegsPerSec(); got != 0 {
		t.Fatalf("zero-elapsed throughput = %g, want 0", got)
	}
	r := HTTPResult{Decisions: 100, Elapsed: 2 * time.Second}
	if got := r.SegsPerSec(); got != 50 {
		t.Fatalf("SegsPerSec = %g, want 50", got)
	}
}

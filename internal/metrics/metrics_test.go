package metrics

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	g := r.Gauge("depth", "queue depth")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	live := int64(0)
	r.GaugeFunc("live", "live value", func() int64 { return live })
	live = 42
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP events_total events\n# TYPE events_total counter\nevents_total 5\n",
		"# TYPE depth gauge\ndepth 4\n",
		"live 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 5.605; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramBoundaryValues pins le semantics: a value equal to a bound
// lands in that bound's bucket (le is ≤).
func TestHistogramBoundaryValues(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{`h_bucket{le="1"} 1`, `h_bucket{le="2"} 2`, `h_bucket{le="+Inf"} 3`} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramMonotonicUnderRace scrapes while writers hammer the
// histogram and asserts cumulative le buckets never decrease within any
// single scrape — the invariant the exposition format promises.
func TestHistogramMonotonicUnderRace(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "x", ExpBuckets(1e-6, 4, 8))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v)
				v = math.Mod(v*1.7+1e-7, 0.2)
			}
		}(float64(w+1) * 1e-5)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		assertBucketsMonotonic(t, buf.String(), "x_seconds")
	}
	close(stop)
	wg.Wait()
}

// assertBucketsMonotonic parses one scrape and checks the named
// histogram's cumulative buckets are non-decreasing in le order and end at
// _count.
func assertBucketsMonotonic(t *testing.T, scrape, name string) {
	t.Helper()
	var prev uint64
	var inf uint64
	seen := 0
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, name+"_bucket") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad bucket line %q", line)
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket value in %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket %q decreased below previous cumulative %d:\n%s", line, prev, scrape)
		}
		prev = v
		seen++
		if strings.Contains(line, `le="+Inf"`) {
			inf = v
		}
	}
	if seen == 0 {
		t.Fatalf("no %s_bucket lines in scrape:\n%s", name, scrape)
	}
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, name+"_count") {
			fields := strings.Fields(line)
			c, _ := strconv.ParseUint(fields[1], 10, 64)
			if c != inf {
				t.Fatalf("_count %d != +Inf bucket %d", c, inf)
			}
		}
	}
}

func TestLabels(t *testing.T) {
	if got := Labels(nil); got != "" {
		t.Fatalf("Labels(nil) = %q", got)
	}
	got := Labels(map[string]string{"b": `x"y`, "a": "z\n"})
	want := `{a="z\n",b="x\"y"}`
	if got != want {
		t.Fatalf("Labels = %q, want %q", got, want)
	}

	r := NewRegistry()
	h := r.HistogramWith("stage_seconds", Labels(map[string]string{"stage": "queue"}), "per-stage", []float64{1})
	h.Observe(0.5)
	c := r.CounterWith("stage_total", `{stage="score"}`, "per-stage count")
	c.Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`stage_seconds_bucket{stage="queue",le="1"} 1`,
		`stage_seconds_bucket{stage="queue",le="+Inf"} 1`,
		`stage_seconds_count{stage="queue"} 1`,
		`stage_total{stage="score"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "")
}

func TestBadHistogramBoundsPanics(t *testing.T) {
	r := NewRegistry()
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v accepted", bounds)
				}
			}()
			r.Histogram("bad", "", bounds)
		}()
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
}

// TestRecordSteadyStateAllocs is the hot-path alloc gate: recording into
// every instrument kind must not allocate.
func TestRecordSteadyStateAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", ExpBuckets(1e-6, 2, 20))
	v := 1e-5
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(v)
		v *= 1.1
		if v > 1 {
			v = 1e-5
		}
	}); n != 0 {
		t.Fatalf("recording allocates %v allocs/op, want 0", n)
	}
}

// Package metrics is a dependency-free, atomic-only metrics registry with
// Prometheus text exposition (ISSUE 7). It exists because the serving hot
// path cannot afford a general-purpose metrics client: every instrument
// here is a fixed set of atomic words allocated at registration time, so
// recording an observation is a handful of atomic adds — no locks, no maps,
// no allocation — and is safe from any goroutine.
//
// The registry knows three instrument kinds:
//
//   - Counter: a monotonically increasing uint64 (events since start).
//   - Gauge: a settable int64, optionally backed by a read function so the
//     scrape reports a live value (e.g. a queue length).
//   - Histogram: a fixed-bucket distribution with cumulative le buckets,
//     _sum and _count, in the Prometheus exposition convention. Bucket
//     bounds are frozen at registration; Observe is a binary search over
//     them plus two atomic adds.
//
// Scrapes (WritePrometheus) read every atomic individually, so a scrape
// concurrent with writers is eventually consistent across instruments but
// each exposed series is internally coherent: cumulative histogram buckets
// are computed from one consistent read of the per-bucket counts, so
// le-monotonicity holds within every scrape, and counters can only grow
// between scrapes.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. When constructed
// with CounterFunc the stored value is ignored and the read function is
// consulted at scrape time instead; the source must be monotone.
type Counter struct {
	v  atomic.Uint64
	fn func() uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n events.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. When constructed with
// RegisterGaugeFunc the stored value is ignored and the read function is
// consulted at scrape time instead.
type Gauge struct {
	v  atomic.Int64
	fn func() int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency/size distribution. Buckets hold
// per-bucket (not cumulative) counts; the +Inf bucket is counts[len(bounds)].
// The sum is an atomic float64 maintained by CAS on its bit pattern — the
// standard lock-free float accumulator.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value. It performs no allocation and takes no lock:
// a binary search over the frozen bounds, one counter increment and one
// CAS-loop float add.
func (h *Histogram) Observe(v float64) {
	// sort.SearchFloat64s is the same binary search but takes the bounds
	// slice as an interface-free argument; inline the search to keep the
	// hot path free of convention surprises.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	for {
		old := h.sumBits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n ascending bucket bounds starting at start and
// multiplying by factor — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registered series.
type metric struct {
	name, help string
	labels     string // pre-rendered {k="v",…} suffix, may be empty
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
}

// Registry holds a fixed set of instruments. Registration (typically at
// construction of the instrumented component) takes a lock; recording and
// scraping do not. Registering the same name+labels twice panics — series
// identity bugs should fail at startup, not alias silently.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	seen    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

// register adds a series after uniqueness and name checks.
func (r *Registry) register(m *metric) {
	if m.name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := m.name + m.labels
	if r.seen[key] {
		panic(fmt.Sprintf("metrics: duplicate registration of %s%s", m.name, m.labels))
	}
	r.seen[key] = true
	r.metrics = append(r.metrics, m)
}

// Labels renders a label set into the canonical sorted {k="v",…} suffix
// used by the Register* variants that take one. Values are escaped per the
// exposition format.
func Labels(kv map[string]string) string {
	if len(kv) == 0 {
		return ""
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += k + `="` + escapeLabel(kv[k]) + `"`
	}
	return s + "}"
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, counter: c})
	return c
}

// CounterWith registers a counter with a pre-rendered label suffix (use
// Labels). Series sharing a name must be registered with the same help.
func (r *Registry) CounterWith(name, labels, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, labels: labels, counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be monotone non-decreasing (e.g. an atomic event count
// owned by the instrumented component).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&metric{name: name, help: help, counter: &Counter{fn: fn}})
}

// Gauge registers and returns a new gauge series.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, gauge: &Gauge{fn: fn}})
}

// GaugeFuncWith is GaugeFunc with a pre-rendered label suffix.
func (r *Registry) GaugeFuncWith(name, labels, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, labels: labels, gauge: &Gauge{fn: fn}})
}

// Histogram registers a histogram with the given ascending bucket upper
// bounds (+Inf is implicit and must not be included).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramWith(name, "", help, bounds)
}

// HistogramWith is Histogram with a pre-rendered label suffix.
func (r *Registry) HistogramWith(name, labels, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one finite bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram bounds must be strictly ascending, got %v", bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	r.register(&metric{name: name, help: help, labels: labels, hist: h})
	return h
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4). Series are emitted in registration
// order; HELP/TYPE headers are emitted once per metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()

	headerDone := make(map[string]bool, len(ms))
	var buf []byte
	for _, m := range ms {
		buf = buf[:0]
		if !headerDone[m.name] {
			headerDone[m.name] = true
			buf = append(buf, "# HELP "...)
			buf = append(buf, m.name...)
			buf = append(buf, ' ')
			buf = append(buf, m.help...)
			buf = append(buf, "\n# TYPE "...)
			buf = append(buf, m.name...)
			switch {
			case m.counter != nil:
				buf = append(buf, " counter\n"...)
			case m.hist != nil:
				buf = append(buf, " histogram\n"...)
			default:
				buf = append(buf, " gauge\n"...)
			}
		}
		switch {
		case m.counter != nil:
			buf = append(buf, m.name...)
			buf = append(buf, m.labels...)
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, m.counter.Value(), 10)
			buf = append(buf, '\n')
		case m.gauge != nil:
			buf = append(buf, m.name...)
			buf = append(buf, m.labels...)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, m.gauge.Value(), 10)
			buf = append(buf, '\n')
		case m.hist != nil:
			buf = appendHistogram(buf, m)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendHistogram renders one histogram's cumulative buckets, sum and
// count. The per-bucket counts are read once into a local slice before the
// cumulative sums are formed, so le-monotonicity holds within the scrape
// even while writers race.
func appendHistogram(buf []byte, m *metric) []byte {
	h := m.hist
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	// Label suffix with the le label appended: {a="b"} → {a="b",le="x"}.
	leOpen := `{le="`
	if m.labels != "" {
		leOpen = m.labels[:len(m.labels)-1] + `,le="`
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += counts[i]
		buf = append(buf, m.name...)
		buf = append(buf, "_bucket"...)
		buf = append(buf, leOpen...)
		buf = strconv.AppendFloat(buf, bound, 'g', -1, 64)
		buf = append(buf, `"} `...)
		buf = strconv.AppendUint(buf, cum, 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, m.name...)
	buf = append(buf, "_bucket"...)
	buf = append(buf, leOpen...)
	buf = append(buf, `+Inf"} `...)
	buf = strconv.AppendUint(buf, total, 10)
	buf = append(buf, '\n')

	buf = append(buf, m.name...)
	buf = append(buf, "_sum"...)
	buf = append(buf, m.labels...)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, h.Sum(), 'g', -1, 64)
	buf = append(buf, '\n')

	buf = append(buf, m.name...)
	buf = append(buf, "_count"...)
	buf = append(buf, m.labels...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, total, 10)
	buf = append(buf, '\n')
	return buf
}

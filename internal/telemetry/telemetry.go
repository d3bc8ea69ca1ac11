// Package telemetry is the observability substrate for the Legion
// reproduction: a metrics registry (counters, gauges, histograms with
// preset latency buckets) plus lightweight trace spans (span.go) whose
// IDs propagate through ORB call metadata, so one placement request can
// be followed Scheduler → Collection query → Enactor reserve/enact →
// Host startObject across runtimes.
//
// The paper's RMI is a pipeline of replaceable service objects with
// feedback loops; this package is the measurement substrate those loops
// read. Its one internal import is vclock: a span is timed on the clock
// of the runtime that opens it, and its duration is the reading a
// stage's latency histogram observes, so under a virtual clock spans and
// _seconds histograms are virtual time and replay with the run.
// Everything here is cheap on the hot path: counters and gauges are
// single atomics, histograms are a preallocated bucket array of atomics,
// and metric handles are cached by the caller so steady-state
// observation does no map lookups.
//
// Each orb.Runtime carries a Registry (telemetry.Default unless
// overridden), so a multi-runtime test can give every site its own
// registry and assert exact counts, while a process-wide daemon or
// bench run aggregates into Default and dumps it in one place.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets are the preset histogram bucket upper bounds, in
// seconds, used for every latency histogram in the tree: roughly
// exponential from 50µs (an in-process ORB dispatch) to 10s (a retry
// budget exhausting against a dead host).
var LatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are preset bucket upper bounds for count-valued
// distributions (query result-set sizes, batch sizes).
var SizeBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}

// Counter is a monotonically increasing value. The zero value is not
// usable; obtain counters from a Registry so they appear in dumps.
type Counter struct {
	v   atomic.Int64
	nop bool
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0; negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if c == nil || c.nop || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (occupancy, queue depth).
type Gauge struct {
	v   atomic.Int64
	nop bool
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil || g.nop {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil || g.nop {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Observations are assigned
// to the first bucket whose upper bound is >= the value (cumulative
// counts are reconstructed at dump time); values above the last bound
// land in the implicit +Inf overflow bucket.
type Histogram struct {
	nop     bool
	bounds  []float64 // sorted upper bounds
	counts  []atomic.Int64
	over    atomic.Int64 // +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.nop {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the average observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Buckets returns the bucket upper bounds and the per-bucket
// (non-cumulative) counts; the final count is the +Inf overflow bucket,
// so len(counts) == len(bounds)+1.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts)+1)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	counts[len(h.counts)] = h.over.Load()
	return bounds, counts
}

// Registry holds named metrics. Metric identity is name plus an
// optional ordered label list ("k", "v", ...): the same (name, labels)
// always returns the same handle, so callers may either cache handles
// (hot paths) or re-look them up (cold paths).
type Registry struct {
	disabled bool

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    *SpanLog
}

// NewRegistry creates an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    NewSpanLog(defaultSpanCap),
	}
}

// NewDisabled creates a registry whose metrics and spans are no-ops —
// the uninstrumented baseline for overhead measurements. Handles are
// still minted (and deduplicated) so wiring code is identical.
func NewDisabled() *Registry {
	r := NewRegistry()
	r.disabled = true
	r.spans.disabled = true
	return r
}

// Default is the process-wide registry; runtimes use it unless given
// their own via orb.Runtime.SetMetrics / core.Options.Metrics.
var Default = NewRegistry()

// keyBufLen is the stack buffer a lookup builds its key in; a longer
// identity spills to the heap and still finds its series.
const keyBufLen = 128

// appendKey appends the canonical metric identity, e.g.
// `orb_client_seconds{method="make_reservation"}`, to b. Lookups index
// the maps with string(kb) written in the index expression itself, the
// form the compiler converts without allocating, so a hit allocates
// nothing; the string is made only to mint.
func appendKey(b []byte, name string, labels []string) []byte {
	b = append(b, name...)
	if len(labels) == 0 {
		return b
	}
	b = append(b, '{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, '=', '"')
		b = append(b, labels[i+1]...)
		b = append(b, '"')
	}
	return append(b, '}')
}

// Counter returns (minting if needed) the counter for name+labels.
// Labels are alternating key, value strings.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	var buf [keyBufLen]byte
	kb := appendKey(buf[:0], name, labels)
	r.mu.RLock()
	c, ok := r.counters[string(kb)]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[string(kb)]; ok {
		return c
	}
	c = &Counter{nop: r.disabled}
	r.counters[string(kb)] = c
	return c
}

// Gauge returns (minting if needed) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	var buf [keyBufLen]byte
	kb := appendKey(buf[:0], name, labels)
	r.mu.RLock()
	g, ok := r.gauges[string(kb)]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[string(kb)]; ok {
		return g
	}
	g = &Gauge{nop: r.disabled}
	r.gauges[string(kb)] = g
	return g
}

// Histogram returns (minting if needed) the histogram for name+labels.
// The bucket bounds are fixed at first mint; later calls with different
// bounds return the existing histogram unchanged.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	var buf [keyBufLen]byte
	kb := appendKey(buf[:0], name, labels)
	r.mu.RLock()
	h, ok := r.hists[string(kb)]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[string(kb)]; ok {
		return h
	}
	h = newHistogram(bounds)
	h.nop = r.disabled
	r.hists[string(kb)] = h
	return h
}

// Spans returns the registry's span log.
func (r *Registry) Spans() *SpanLog { return r.spans }

// CounterValue reads a counter by identity without minting it; 0 if
// absent. Convenient for tests and dumps.
func (r *Registry) CounterValue(name string, labels ...string) int64 {
	var buf [keyBufLen]byte
	kb := appendKey(buf[:0], name, labels)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counters[string(kb)].Value()
}

// GaugeValue reads a gauge by identity without minting it; 0 if absent.
func (r *Registry) GaugeValue(name string, labels ...string) int64 {
	var buf [keyBufLen]byte
	kb := appendKey(buf[:0], name, labels)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gauges[string(kb)].Value()
}

// WriteText dumps every metric in a stable, Prometheus-flavoured text
// form: counters and gauges one line each, histograms as cumulative
// _bucket lines plus _sum and _count.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.RLock()
	counters := make(map[string]int64, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c.Value()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g.Value()
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.RUnlock()

	for _, k := range sortedKeys(counters) {
		fmt.Fprintf(w, "%s %d\n", k, counters[k])
	}
	for _, k := range sortedKeys(gauges) {
		fmt.Fprintf(w, "%s %d\n", k, gauges[k])
	}
	hkeys := make([]string, 0, len(hists))
	for k := range hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		h := hists[k]
		name, labels := splitKey(k)
		bounds, counts := h.Buckets()
		cum := int64(0)
		for i, ub := range bounds {
			cum += counts[i]
			fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, labels, ub, cum)
		}
		cum += counts[len(counts)-1]
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
		fmt.Fprintf(w, "%s_sum%s %g\n", name, bracketed(labels), h.Sum())
		fmt.Fprintf(w, "%s_count%s %d\n", name, bracketed(labels), h.Count())
	}
}

// splitKey separates `name{a="b"}` into "name" and `a="b",` (trailing
// comma so it can prefix the le label), or (key, "") without labels.
func splitKey(k string) (name, labels string) {
	i := strings.IndexByte(k, '{')
	if i < 0 {
		return k, ""
	}
	return k[:i], k[i+1:len(k)-1] + ","
}

func bracketed(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + strings.TrimSuffix(labels, ",") + "}"
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Handler returns an HTTP handler serving the registry as text — the
// expvar-style endpoint legiond mounts at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// SpanHandler returns an HTTP handler dumping the span log, newest
// last, one span per line — mounted at /spans by legiond.
func (r *Registry) SpanHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, s := range r.spans.Snapshot() {
			fmt.Fprintln(w, s.String())
		}
	})
}

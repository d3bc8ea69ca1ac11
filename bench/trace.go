package main

import (
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"legion/internal/loid"
	"legion/internal/orb"
)

// The traced run records spans from outside the program: the harness
// wraps each stage it drives, and the existing public hook
// orb.Runtime.SetTracer yields one span per ORB method call. Spans of
// one operation (a placement, an echo call, a Collection call) share a
// trace number; a span's parent is the innermost span enclosing it, and
// its self time is its duration minus the part its children cover.
// Spans stay in memory; the first keepTraces operations' spans are
// written to trace-<workload>.json when the run ends.

const keepTraces = 500

// span is one timed interval at a layer boundary.
type span struct {
	Trace  int64  `json:"trace"`
	Parent int    `json:"parent"` // position within the trace, -1 for its root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Err    bool   `json:"err,omitempty"`
}

// spanTotals sums the spans of one name.
type spanTotals struct {
	Count  int64 `json:"count"`
	SelfNS int64 `json:"self_ns"`
	DurNS  int64 `json:"duration_ns"`
}

type recorder struct {
	epoch time.Time

	mu sync.Mutex
	// calls and errs count ORB calls by span name, whether or not spans
	// are being kept (under the virtual clock only the counts mean
	// anything).
	calls, errs map[string]int64
	open        []span // the operation in progress
	ops         int64  // operations flushed
	rootNS      int64  // their root spans' total duration
	totals      map[string]*spanTotals
	kept        []span
}

func newRecorder() *recorder {
	return &recorder{
		epoch: time.Now(),
		calls: map[string]int64{}, errs: map[string]int64{},
		totals: map[string]*spanTotals{},
	}
}

// tracer returns the hook to install with orb.Runtime.SetTracer. The
// hook fires when a call returns, with the call's duration on the
// runtime's clock; keepSpans is false under a virtual clock, where that
// duration is not host time.
func (r *recorder) tracer(keepSpans bool) orb.CallTracer {
	return func(_ string, target loid.LOID, method string, d time.Duration, err error) {
		end := time.Since(r.epoch)
		name := target.Class + "." + method
		r.mu.Lock()
		r.calls[name]++
		if err != nil {
			r.errs[name]++
		}
		if keepSpans {
			r.open = append(r.open, span{Name: name, Start: int64(end - d), End: int64(end), Err: err != nil})
		}
		r.mu.Unlock()
	}
}

// span opens a harness-side span; the returned function closes it. A
// nil recorder records nothing, so one code path serves the traced and
// the untraced pass.
func (r *recorder) span(name string) (end func(err error)) {
	if r == nil {
		return func(error) {}
	}
	start := time.Since(r.epoch)
	return func(err error) {
		s := span{Name: name, Start: int64(start), End: int64(time.Since(r.epoch)), Err: err != nil}
		r.mu.Lock()
		r.open = append(r.open, s)
		r.mu.Unlock()
	}
}

// operation runs one whole operation inside a root span of the given
// name and flushes it. On a nil recorder it just runs the call.
func (r *recorder) operation(name string, call func() error) error {
	end := r.span(name)
	err := call()
	end(err)
	r.flush()
	return err
}

// flush ends the operation in progress: it links its spans into a tree,
// computes self times and folds them into the totals. The serial client
// calls it between operations, outside every span.
func (r *recorder) flush() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.open
	r.open = r.open[:0:0]
	if len(spans) == 0 {
		return
	}
	// Enclosing spans first: earlier start, then later end.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []int
	for i := range spans {
		s := &spans[i]
		s.Trace, s.Parent, s.Self = r.ops, -1, s.End-s.Start
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1] // ends before s does: not an enclosing span
		}
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	// Self time: subtract the union of each span's children. Children
	// of one parent appear in start order, so one cursor per parent
	// merges overlapping siblings (the Enactor fans calls out).
	covered := make([]int64, len(spans)) // per parent: end of the covered prefix
	for i := range spans {
		covered[i] = spans[i].Start
	}
	for i := range spans {
		p := spans[i].Parent
		if p < 0 {
			r.rootNS += spans[i].End - spans[i].Start
			continue
		}
		from := max(spans[i].Start, covered[p])
		if to := spans[i].End; to > from {
			spans[p].Self -= to - from
			covered[p] = to
		}
	}
	for _, s := range spans {
		t := r.totals[s.Name]
		if t == nil {
			t = &spanTotals{}
			r.totals[s.Name] = t
		}
		t.Count++
		t.SelfNS += s.Self
		t.DurNS += s.End - s.Start
	}
	if r.ops < keepTraces {
		r.kept = append(r.kept, spans...)
	}
	r.ops++
}

// spanMetrics maps span names to the per-layer metric that reports
// their mean self time per call, in microseconds.
var spanMetrics = []struct{ span, metric string }{
	{"scheduler.generate", "scheduler.generate_self_us"},
	{"Enactor.make_reservations", "enactor.make_reservations_self_us"},
	{"Enactor.enact_schedule", "enactor.enact_schedule_self_us"},
	{"Enactor.cancel_reservations", "enactor.cancel_reservations_self_us"},
	{"Host.make_reservation", "host.make_reservation_us"},
	{"Host.startObject", "host.start_object_us"},
	{"Host.killObject", "host.kill_object_us"},
	{"Host.cancel_reservation", "host.cancel_reservation_us"},
	{"WorkerClass.create_instance", "classobj.create_instance_self_us"},
	{"WorkerClass.destroy_instance", "classobj.destroy_instance_self_us"},
	{"Vault.", "vault.op_us"}, // a prefix: every Vault method
	{"Collection.QueryCollection", "collection.full_query_us"},
	{kindFull, "collection.full_query_us"},
	{kindSelective, "collection.selective_query_us"},
	{kindUpdate, "collection.update_us"},
	{kindBatch, "collection.batch_apply_us_per_entry"},
	// orb_echo's only span: the client's side of one loopback call.
	{"Echo.echo", "orb.tcp_rtt_us"},
}

// layerTimes turns the span totals into the span-derived per-layer
// metrics: for each, the mean self time of one span (one batch entry,
// for ApplyBatch). It also returns the self time per operation that no
// layer metric accounts for — the harness's own glue and any call not
// in spanMetrics.
func (r *recorder) layerTimes() (values map[string]float64, unattributedUS float64) {
	type sum struct{ self, count int64 }
	sums := map[string]*sum{}
	var attributed int64
	for name, t := range r.totals {
		for _, m := range spanMetrics {
			if name == m.span || (strings.HasSuffix(m.span, ".") && strings.HasPrefix(name, m.span)) {
				s := sums[m.metric]
				if s == nil {
					s = &sum{}
					sums[m.metric] = s
				}
				s.self += t.SelfNS
				s.count += t.Count
				attributed += t.SelfNS
				break
			}
		}
	}
	values = map[string]float64{}
	for metric, s := range sums {
		values[metric] = ratio(float64(s.self)/1e3, float64(s.count))
	}
	values["collection.batch_apply_us_per_entry"] /= batchEntries
	return values, ratio(float64(r.rootNS-attributed)/1e3, float64(r.ops))
}

// negotiationSelfUS is the self time per operation of the layers below
// the Scheduler — Enactor, Host, class object, Vault — which is what a
// placement costs on any clock.
func (r *recorder) negotiationSelfUS() float64 {
	var self int64
	for name, t := range r.totals {
		for _, prefix := range []string{"Enactor.", "Host.", "WorkerClass.", "Vault."} {
			if strings.HasPrefix(name, prefix) {
				self += t.SelfNS
			}
		}
	}
	return ratio(float64(self)/1e3, float64(r.ops))
}

// callsWithPrefix sums the ORB calls (or, from errs, the failed ones)
// whose span name starts with prefix.
func callsWithPrefix(counts map[string]int64, prefix string) float64 {
	var n int64
	for name, c := range counts {
		if strings.HasPrefix(name, prefix) {
			n += c
		}
	}
	return float64(n)
}

// write stores the kept spans and the per-name totals.
func (r *recorder) write(cfg config, workload string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return writeJSON(filepath.Join(cfg.outDir, "trace-"+workload+".json"), struct {
		Workload   string                 `json:"workload"`
		Operations int64                  `json:"operations"`
		Calls      map[string]int64       `json:"orb_calls"`
		Totals     map[string]*spanTotals `json:"span_totals"`
		Spans      []span                 `json:"spans"`
	}{workload, r.ops, r.calls, r.totals, r.kept})
}

package telemetry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// defaultSpanCap bounds the span ring buffer; old spans are overwritten.
const defaultSpanCap = 4096

// SpanContext is the wire-propagatable identity of an active span: the
// trace it belongs to and the span itself. The ORB copies it into call
// metadata (orb/tcp.go request.TraceID/SpanID) so the receiving runtime
// parents its spans under the caller's.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// Span is one in-flight timed operation. Created by SpanLog.Start,
// completed by Finish; a nil *Span is a valid no-op (the disabled path).
//
// A Span is also a context: the one it was started in, plus itself.
// Start returns it as the child context, so opening a span allocates
// the Span and nothing else. It forwards Deadline, Done, Err and every
// other Value key to parent, and answers Value(spanCtxKey{}) with
// itself, which SpanFromContext reads without boxing anything.
type Span struct {
	parent   context.Context // the context Start was given
	log      *SpanLog
	name     string
	trace    uint64
	id       uint64
	parentID uint64
	runtime  string
	start    time.Time
}

// Deadline implements context.Context by forwarding to the parent.
func (s *Span) Deadline() (time.Time, bool) { return s.parent.Deadline() }

// Done implements context.Context by forwarding to the parent.
func (s *Span) Done() <-chan struct{} { return s.parent.Done() }

// Err implements context.Context by forwarding to the parent.
func (s *Span) Err() error { return s.parent.Err() }

// Value implements context.Context: the span itself under spanCtxKey,
// the parent's value for every other key.
func (s *Span) Value(key any) any {
	if _, ok := key.(spanCtxKey); ok {
		return s
	}
	return s.parent.Value(key)
}

// Context returns the span's propagatable identity; zero for nil spans.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.trace, SpanID: s.id}
}

// Finish records the span into its log with the outcome err (nil for
// success). Safe on a nil receiver; must be called at most once.
func (s *Span) Finish(err error) {
	if s == nil {
		return
	}
	fs := FinishedSpan{
		TraceID:  s.trace,
		SpanID:   s.id,
		ParentID: s.parentID,
		Name:     s.name,
		Runtime:  s.runtime,
		Start:    s.start,
		Duration: time.Since(s.start),
	}
	if err != nil {
		fs.Err = err.Error()
	}
	s.log.add(fs)
}

// FinishedSpan is a completed span as stored in the log.
type FinishedSpan struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	Name     string
	Runtime  string // domain of the runtime that recorded it, if known
	Start    time.Time
	Duration time.Duration
	Err      string
}

// String renders one span for logs and the /spans endpoint.
func (s FinishedSpan) String() string {
	errPart := ""
	if s.Err != "" {
		errPart = " err=" + s.Err
	}
	rtPart := ""
	if s.Runtime != "" {
		rtPart = " rt=" + s.Runtime
	}
	return fmt.Sprintf("trace=%016x span=%016x parent=%016x %s%s dur=%s%s",
		s.TraceID, s.SpanID, s.ParentID, s.Name, rtPart, s.Duration, errPart)
}

// SpanLog is a fixed-capacity ring of finished spans plus the factory
// for new ones. Safe for concurrent use.
type SpanLog struct {
	disabled bool
	runtime  string // stamped onto spans; set via SetRuntime

	mu    sync.Mutex
	ring  []FinishedSpan
	next  int
	total int64
}

// NewSpanLog creates a log retaining the most recent cap spans
// (cap <= 0 uses the default).
func NewSpanLog(cap int) *SpanLog {
	if cap <= 0 {
		cap = defaultSpanCap
	}
	return &SpanLog{ring: make([]FinishedSpan, 0, cap)}
}

// SetRuntime stamps subsequently recorded spans with the runtime's
// domain name, so a merged multi-runtime dump stays attributable.
func (l *SpanLog) SetRuntime(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runtime = name
}

// ids mints process-unique span/trace IDs. Starting at 1 keeps 0 free
// as "no span".
var ids atomic.Uint64

func nextID() uint64 { return ids.Add(1) }

type spanCtxKey struct{}

// SpanFromContext returns the active span context, if any — either a
// local parent, the *Span Start returned, or a remote parent installed
// by the ORB server from call metadata.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	switch v := ctx.Value(spanCtxKey{}).(type) {
	case *Span:
		return v.Context(), true
	case SpanContext:
		return v, v.Valid()
	}
	return SpanContext{}, false
}

// WithRemoteParent installs a span context received from the wire, so
// spans started while handling the call parent under the caller's span.
func WithRemoteParent(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// Start begins a span named name, parented under any span context
// already carried by ctx (same trace); otherwise it opens a new trace.
// The returned ctx is the new span itself, for children to parent
// under. On a disabled log it returns (ctx, nil) — and nil spans no-op.
func (l *SpanLog) Start(ctx context.Context, name string) (context.Context, *Span) {
	if l == nil {
		return ctx, nil
	}
	l.mu.Lock()
	rt := l.runtime
	l.mu.Unlock()
	return l.StartIn(ctx, name, rt)
}

// StartIn is Start with an explicit runtime stamp — used by call sites
// sharing one log (e.g. the Default registry) across several runtimes.
func (l *SpanLog) StartIn(ctx context.Context, name, runtime string) (context.Context, *Span) {
	if l == nil || l.disabled {
		return ctx, nil
	}
	s := &Span{parent: ctx, log: l, name: name, id: nextID(), start: time.Now(), runtime: runtime}
	if parent, ok := SpanFromContext(ctx); ok {
		s.trace = parent.TraceID
		s.parentID = parent.SpanID
	} else {
		s.trace = nextID()
	}
	return s, s
}

func (l *SpanLog) add(fs FinishedSpan) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, fs)
		return
	}
	l.ring[l.next] = fs
	l.next = (l.next + 1) % cap(l.ring)
}

// Total reports how many spans have ever been recorded (including ones
// the ring has since overwritten).
func (l *SpanLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns retained spans, oldest first.
func (l *SpanLog) Snapshot() []FinishedSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]FinishedSpan, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// ByTrace returns retained spans of one trace, oldest first.
func (l *SpanLog) ByTrace(traceID uint64) []FinishedSpan {
	var out []FinishedSpan
	for _, s := range l.Snapshot() {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// ByName returns retained spans with the given name, oldest first.
func (l *SpanLog) ByName(name string) []FinishedSpan {
	var out []FinishedSpan
	for _, s := range l.Snapshot() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

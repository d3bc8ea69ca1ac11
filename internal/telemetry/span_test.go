package telemetry

import (
	"context"
	"sync"
	"testing"
	"time"

	"legion/internal/vclock"
)

// withValueSpan is how Start derived the child context before a span
// was one, kept as the oracle: a context.WithValue layer carrying the
// span's identity over the context it started in.
func withValueSpan(parent context.Context, s *Span) context.Context {
	return context.WithValue(parent, spanCtxKey{}, s.Context())
}

// TestSpanIsItsContext: the context Start returns answers Deadline,
// Done, Err, unrelated Value keys and SpanFromContext exactly as the
// WithValue wrapping did, over every kind of parent a call path hands it.
func TestSpanIsItsContext(t *testing.T) {
	type otherKey struct{}
	bg := context.Background()
	log := NewSpanLog(64)
	nop := func() {}
	parents := []struct {
		name string
		make func() (context.Context, context.CancelFunc)
	}{
		{"background", func() (context.Context, context.CancelFunc) { return bg, nop }},
		{"live cancel", func() (context.Context, context.CancelFunc) { return context.WithCancel(bg) }},
		{"cancelled", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(bg)
			cancel()
			return ctx, cancel
		}},
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithDeadline(bg, time.Now().Add(time.Hour))
		}},
		{"expired", func() (context.Context, context.CancelFunc) {
			return context.WithDeadline(bg, time.Now().Add(-time.Second))
		}},
		{"value", func() (context.Context, context.CancelFunc) {
			return context.WithValue(bg, otherKey{}, "v"), nop
		}},
		{"remote parent", func() (context.Context, context.CancelFunc) {
			return WithRemoteParent(context.WithValue(bg, otherKey{}, "r"), SpanContext{TraceID: 7, SpanID: 9}), nop
		}},
		{"span", func() (context.Context, context.CancelFunc) {
			ctx, s := log.Start(context.WithValue(bg, otherKey{}, "s"), vclock.Wall, "outer", "rt")
			return ctx, func() { s.Finish(nil) }
		}},
		{"virtual deadline", func() (context.Context, context.CancelFunc) {
			v := vclock.NewVirtual()
			ctx := v.WithDeadline(bg, v.Now().Add(time.Hour))
			return ctx, func() { vclock.End(ctx) }
		}},
	}
	for _, p := range parents {
		t.Run(p.name, func(t *testing.T) {
			parent, cancel := p.make()
			defer cancel()
			ctx, s := log.Start(parent, vclock.Wall, "op", "rt")
			defer s.Finish(nil)
			if ctx != context.Context(s) {
				t.Fatal("Start's context is not its span")
			}
			old := withValueSpan(parent, s)

			gotD, gotOK := ctx.Deadline()
			wantD, wantOK := old.Deadline()
			if gotOK != wantOK || !gotD.Equal(wantD) {
				t.Errorf("Deadline = %v, %v; want %v, %v", gotD, gotOK, wantD, wantOK)
			}
			if ctx.Done() != old.Done() {
				t.Error("Done is not the parent's channel")
			}
			if ctx.Err() != old.Err() {
				t.Errorf("Err = %v, want %v", ctx.Err(), old.Err())
			}
			if got, want := ctx.Value(otherKey{}), old.Value(otherKey{}); got != want {
				t.Errorf("Value(otherKey) = %v, want %v", got, want)
			}
			got, gotOK := SpanFromContext(ctx)
			want, wantOK := SpanFromContext(old)
			if got != want || gotOK != wantOK {
				t.Errorf("SpanFromContext = %v, %v; want %v, %v", got, gotOK, want, wantOK)
			}
			if parentSC, ok := SpanFromContext(parent); ok && (got.TraceID != parentSC.TraceID || s.parentID != parentSC.SpanID) {
				t.Errorf("span %v is not parented under %v", got, parentSC)
			}
		})
	}
}

// TestSpanCancellationReachesDescendants: stdlib contexts derived under
// a span — a WithCancel child, an AfterFunc, a child span's own
// WithCancel — are cancelled with the span's parent, from several
// goroutines at once.
func TestSpanCancellationReachesDescendants(t *testing.T) {
	log := NewSpanLog(64)
	parent, cancel := context.WithCancel(context.Background())
	ctx, s := log.Start(parent, vclock.Wall, "op", "rt")
	defer s.Finish(nil)

	const workers = 8
	var ready, done sync.WaitGroup
	ready.Add(workers)
	done.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer done.Done()
			cctx, child := log.Start(ctx, vclock.Wall, "child", "rt")
			defer child.Finish(nil)
			sub, subCancel := context.WithCancel(cctx)
			defer subCancel()
			fired := make(chan struct{})
			stop := context.AfterFunc(cctx, func() { close(fired) })
			defer stop()
			ready.Done()
			for _, ch := range []<-chan struct{}{sub.Done(), fired} {
				select {
				case <-ch:
				case <-time.After(10 * time.Second):
					t.Error("descendant not cancelled with the span's parent")
					return
				}
			}
			if sub.Err() != context.Canceled || cctx.Err() != context.Canceled {
				t.Errorf("Err = %v / %v, want context.Canceled", sub.Err(), cctx.Err())
			}
		}()
	}
	ready.Wait()
	cancel()
	done.Wait()
}

// TestSpanUnderVirtualDeadlineWokenAtItsInstant: a sleeper whose context
// is a span over one of vclock.Virtual's contexts is woken by the
// deadline event at its virtual instant, as under the WithValue layer
// (vclock's TestWrappedContextSleeperWokenAtItsDeadline): the span
// forwards Done and Value, so the clock still finds its own context.
func TestSpanUnderVirtualDeadlineWokenAtItsInstant(t *testing.T) {
	type wake struct {
		err     error
		at      time.Duration
		pending int
	}
	log := NewSpanLog(64)
	bg := context.Background()
	for round := 0; round < 100; round++ {
		v := vclock.NewVirtual()
		start := v.Now()
		vctx := v.WithDeadline(bg, start.Add(10*time.Millisecond))
		ctx, s := log.Start(vctx, v, "op", "rt")
		woke := make(chan wake, 1)
		v.Go(func() {
			err := v.Sleep(ctx, time.Hour)
			woke <- wake{err, v.Since(start), v.PendingEvents()}
		})
		v.Go(func() { _ = v.Sleep(bg, 20*time.Millisecond) })
		v.Go(func() { _ = v.Sleep(bg, 30*time.Millisecond) })
		v.RunUntilIdle()
		got := <-woke
		s.Finish(nil)
		vclock.End(vctx)
		if want := (wake{context.DeadlineExceeded, 10 * time.Millisecond, 2}); got != want {
			t.Fatalf("round %d: woke with %v at %v, %d events pending; want %v at %v, %d pending",
				round, got.err, got.at, got.pending, want.err, want.at, want.pending)
		}
	}
}

// TestSpanTimedOnItsClock: a span started on a virtual clock records
// its start and duration in virtual time, and Finish returns the
// duration it recorded; a nil span, the disabled path, returns 0.
func TestSpanTimedOnItsClock(t *testing.T) {
	v := vclock.NewVirtual()
	log := NewSpanLog(8)
	start := v.Now()
	ctx, outer := log.Start(context.Background(), v, "outer", "rt")
	v.Advance(2 * time.Millisecond)
	_, inner := log.Start(ctx, v, "inner", "rt")
	v.Advance(3 * time.Millisecond)
	if got := inner.Finish(nil); got != 3*time.Millisecond {
		t.Errorf("inner Finish = %v, want 3ms", got)
	}
	if got := outer.Finish(nil); got != 5*time.Millisecond {
		t.Errorf("outer Finish = %v, want 5ms", got)
	}
	want := []struct {
		at, dur time.Duration
	}{{2 * time.Millisecond, 3 * time.Millisecond}, {0, 5 * time.Millisecond}}
	spans := log.Snapshot()
	if len(spans) != len(want) {
		t.Fatalf("%d spans recorded, want %d", len(spans), len(want))
	}
	for i, got := range spans {
		if at := got.Start.Sub(start); at != want[i].at || got.Duration != want[i].dur {
			t.Errorf("%s: started at +%v for %v, want +%v for %v", got.Name, at, got.Duration, want[i].at, want[i].dur)
		}
	}
	var disabled *Span
	if got := disabled.Finish(nil); got != 0 {
		t.Errorf("nil span Finish = %v, want 0", got)
	}
}

// TestSpanAllocBudget: opening and finishing a span is one allocation,
// the Span (3 when it also boxed its SpanContext into a WithValue
// layer), and reading the active span back is none, local or remote.
func TestSpanAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	log := NewSpanLog(64)
	bg := context.Background()
	outer, s := log.Start(bg, vclock.Wall, "outer", "rt")
	defer s.Finish(nil)
	remote := WithRemoteParent(bg, SpanContext{TraceID: 7, SpanID: 9})
	for _, c := range []struct {
		name   string
		budget float64
		fn     func()
	}{
		{"Start+Finish", 1, func() {
			_, s := log.Start(bg, vclock.Wall, "op", "rt")
			s.Finish(nil)
		}},
		{"child Start+Finish", 1, func() {
			_, s := log.Start(outer, vclock.Wall, "op", "rt")
			s.Finish(nil)
		}},
		{"SpanFromContext(span)", 0, func() {
			if _, ok := SpanFromContext(outer); !ok {
				t.Fatal("no span")
			}
		}},
		{"SpanFromContext(remote)", 0, func() {
			if _, ok := SpanFromContext(remote); !ok {
				t.Fatal("no remote span")
			}
		}},
	} {
		if got := testing.AllocsPerRun(1000, c.fn); got > c.budget {
			t.Errorf("%s: %.1f allocations, budget %v", c.name, got, c.budget)
		}
	}
}

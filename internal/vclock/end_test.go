package vclock_test

import (
	"context"
	"testing"
	"time"

	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// TestEnd holds what End does on each clock: it ends the context a
// WithDeadline returned, with Canceled, once; it ends nothing else —
// not a span or a value layer over such a context, not a stdlib context;
// and it does not rewrite an end already reached.
func TestEnd(t *testing.T) {
	bg := context.Background()
	closed := func(ctx context.Context) bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	type key struct{}
	for _, clk := range []struct {
		name string
		new  func() vclock.Clock
		// expire lets a deadline d from now pass without anybody asking
		// the context about it.
		expire func(c vclock.Clock, d time.Duration)
	}{
		{"wall", func() vclock.Clock { return vclock.Wall }, func(_ vclock.Clock, d time.Duration) { time.Sleep(4 * d) }},
		{"virtual", func() vclock.Clock { return vclock.NewVirtual() }, func(c vclock.Clock, d time.Duration) { c.(*vclock.Virtual).Advance(d) }},
	} {
		derive := func(c vclock.Clock, parent context.Context, d time.Duration) context.Context {
			return c.WithDeadline(parent, c.Now().Add(d))
		}
		t.Run(clk.name+"/End twice is a no-op", func(t *testing.T) {
			c := clk.new()
			ctx := derive(c, bg, time.Hour)
			vclock.End(ctx)
			if err := ctx.Err(); err != context.Canceled || !closed(ctx) {
				t.Fatalf("after End: Err = %v, Done closed = %v; want Canceled, true", err, closed(ctx))
			}
			vclock.End(ctx)
			if err := ctx.Err(); err != context.Canceled {
				t.Errorf("after a second End: Err = %v, want Canceled", err)
			}
			if v, ok := c.(*vclock.Virtual); ok && v.PendingEvents() != 0 {
				t.Errorf("%d events pending after End, want the deadline's withdrawn", v.PendingEvents())
			}
		})
		t.Run(clk.name+"/End on a span or a value layer leaves the context running", func(t *testing.T) {
			c := clk.new()
			ctx := derive(c, bg, time.Hour)
			defer vclock.End(ctx)
			span, s := telemetry.NewSpanLog(8).Start(ctx, c, "op", "rt")
			defer s.Finish(nil)
			vclock.End(span)
			vclock.End(context.WithValue(ctx, key{}, 1))
			if err := ctx.Err(); err != nil || closed(ctx) {
				t.Errorf("Err = %v, Done closed = %v; want a live context", err, closed(ctx))
			}
			if err := span.Err(); err != nil {
				t.Errorf("span Err = %v, want nil", err)
			}
		})
		t.Run(clk.name+"/End on a foreign context does nothing", func(t *testing.T) {
			c := clk.new()
			vclock.End(bg)
			std, cancel := context.WithCancel(bg)
			defer cancel()
			vclock.End(std)
			if err := std.Err(); err != nil {
				t.Errorf("stdlib context: Err = %v after End, want nil", err)
			}
			ctx := derive(c, bg, time.Hour)
			defer vclock.End(ctx)
			child, cancelChild := context.WithCancel(ctx)
			defer cancelChild()
			vclock.End(child)
			if child.Err() != nil || ctx.Err() != nil {
				t.Errorf("stdlib child of a clock context: Err = %v, parent Err = %v after End, want nil, nil", child.Err(), ctx.Err())
			}
		})
		t.Run(clk.name+"/End after an unobserved expiry keeps DeadlineExceeded", func(t *testing.T) {
			c := clk.new()
			const short = 5 * time.Millisecond
			ctx := derive(c, bg, short)
			clk.expire(c, short)
			vclock.End(ctx)
			if err := ctx.Err(); err != context.DeadlineExceeded || !closed(ctx) {
				t.Errorf("Err = %v, Done closed = %v; want DeadlineExceeded, true", err, closed(ctx))
			}
		})
	}
}

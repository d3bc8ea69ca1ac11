package vclock

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestWallContextAgainstStdlib runs one table of scenarios against
// context.WithTimeout and against Wall.WithDeadline, which arms nothing
// until Done() is called, ended by End where the stdlib context is
// cancelled: whatever a caller can observe — Err, Done, Deadline, what
// reaches a child and what a parent passes down — must read the same
// from both.
func TestWallContextAgainstStdlib(t *testing.T) {
	type deriver func(context.Context, time.Duration) (context.Context, context.CancelFunc)
	const (
		short = 5 * time.Millisecond
		past  = 4 * short   // sleeping this long is well past a short deadline
		guard = time.Minute // a wait that takes this long has hung
	)
	bg := context.Background()
	closed := func(ctx context.Context) bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	// waitDone blocks on Done the way a remote call's reply wait does.
	waitDone := func(t *testing.T, ctx context.Context) {
		t.Helper()
		select {
		case <-ctx.Done():
		case <-time.After(guard):
			t.Fatal("Done never closed")
		}
	}
	wantErr := func(t *testing.T, what string, ctx context.Context, want error) {
		t.Helper()
		if got := ctx.Err(); got != want {
			t.Errorf("%s: Err = %v, want %v", what, got, want)
		}
	}

	scenarios := []struct {
		name string
		run  func(t *testing.T, with deriver)
	}{
		{"live context", func(t *testing.T, with deriver) {
			before := time.Now()
			ctx, cancel := with(bg, time.Hour)
			defer cancel()
			dl, ok := ctx.Deadline()
			if !ok || dl.Before(before.Add(time.Hour)) || dl.After(time.Now().Add(time.Hour)) {
				t.Errorf("Deadline = %v, %v; want an hour from now", dl, ok)
			}
			wantErr(t, "fresh", ctx, nil)
			if closed(ctx) {
				t.Error("Done closed on a live context")
			}
		}},
		{"expiry seen by Err with nobody waiting", func(t *testing.T, with deriver) {
			ctx, cancel := with(bg, short)
			defer cancel()
			time.Sleep(past)
			wantErr(t, "after the deadline", ctx, context.DeadlineExceeded)
			if !closed(ctx) {
				t.Error("Done not closed after the deadline")
			}
		}},
		{"expiry seen by Done", func(t *testing.T, with deriver) {
			ctx, cancel := with(bg, short)
			defer cancel()
			start := time.Now()
			waitDone(t, ctx)
			if waited := time.Since(start); waited < short/2 {
				t.Errorf("Done closed after %v, before the deadline", waited)
			}
			wantErr(t, "after Done", ctx, context.DeadlineExceeded)
		}},
		{"cancel before expiry", func(t *testing.T, with deriver) {
			ctx, cancel := with(bg, short)
			cancel()
			wantErr(t, "after cancel", ctx, context.Canceled)
			if !closed(ctx) {
				t.Error("Done not closed after cancel")
			}
			time.Sleep(past)
			cancel()
			wantErr(t, "after the deadline as well", ctx, context.Canceled)
		}},
		{"cancel before expiry with a waiter", func(t *testing.T, with deriver) {
			ctx, cancel := with(bg, time.Hour)
			woken := make(chan struct{})
			go func() {
				<-ctx.Done()
				close(woken)
			}()
			cancel()
			select {
			case <-woken:
			case <-time.After(guard):
				t.Fatal("cancel did not wake the waiter")
			}
			wantErr(t, "after cancel", ctx, context.Canceled)
		}},
		{"cancel after expiry", func(t *testing.T, with deriver) {
			ctx, cancel := with(bg, short)
			time.Sleep(past)
			cancel()
			wantErr(t, "cancelled late", ctx, context.DeadlineExceeded)
		}},
		{"cancellable parent reaches a waiting child", func(t *testing.T, with deriver) {
			parent, cancelParent := context.WithCancel(bg)
			child, cancel := with(parent, time.Hour)
			defer cancel()
			if closed(child) { // the first Done(): the child now watches the parent
				t.Fatal("Done closed on a live child")
			}
			cancelParent()
			waitDone(t, child)
			wantErr(t, "child", child, context.Canceled)
		}},
		{"cancellable parent reaches a child nobody waits on", func(t *testing.T, with deriver) {
			parent, cancelParent := context.WithCancel(bg)
			child, cancel := with(parent, time.Hour)
			defer cancel()
			cancelParent()
			wantErr(t, "child", child, context.Canceled)
			if !closed(child) {
				t.Error("Done not closed although the parent has ended")
			}
		}},
		{"parent cancelled before the child is derived", func(t *testing.T, with deriver) {
			parent, cancelParent := context.WithCancel(bg)
			cancelParent()
			child, cancel := with(parent, time.Hour)
			defer cancel()
			if !closed(child) {
				t.Error("Done not closed on a child born to an ended parent")
			}
			wantErr(t, "child", child, context.Canceled)
		}},
		{"inner deadline capped by the outer", func(t *testing.T, with deriver) {
			outer, cancelOuter := with(bg, short)
			defer cancelOuter()
			inner, cancelInner := with(outer, time.Hour)
			defer cancelInner()
			od, _ := outer.Deadline()
			if id, ok := inner.Deadline(); !ok || !id.Equal(od) {
				t.Errorf("inner Deadline = %v, %v; want the outer's %v", id, ok, od)
			}
			waitDone(t, inner)
			wantErr(t, "inner", inner, context.DeadlineExceeded)
			wantErr(t, "outer", outer, context.DeadlineExceeded)
		}},
		{"outer expiry reaches an inner nobody waits on", func(t *testing.T, with deriver) {
			outer, cancelOuter := with(bg, short)
			defer cancelOuter()
			inner, cancelInner := with(outer, time.Hour)
			time.Sleep(past)
			cancelInner()
			wantErr(t, "inner", inner, context.DeadlineExceeded)
		}},
		{"outer cancel reaches a waiting inner", func(t *testing.T, with deriver) {
			outer, cancelOuter := with(bg, time.Hour)
			inner, cancelInner := with(outer, time.Hour)
			defer cancelInner()
			if closed(inner) {
				t.Fatal("Done closed on a live inner")
			}
			cancelOuter()
			waitDone(t, inner)
			wantErr(t, "inner", inner, context.Canceled)
		}},
		{"inner cancel leaves the outer alone", func(t *testing.T, with deriver) {
			outer, cancelOuter := with(bg, time.Hour)
			defer cancelOuter()
			inner, cancelInner := with(outer, time.Hour)
			if closed(inner) || closed(outer) {
				t.Fatal("Done closed on a live context")
			}
			cancelInner()
			wantErr(t, "inner", inner, context.Canceled)
			wantErr(t, "outer", outer, nil)
			if closed(outer) {
				t.Error("outer Done closed by the inner's cancel")
			}
		}},
		{"stdlib WithCancel child", func(t *testing.T, with deriver) {
			ctx, cancel := with(bg, time.Hour)
			child, cancelChild := context.WithCancel(ctx)
			defer cancelChild()
			grandchild, cancelGrandchild := context.WithCancel(child)
			cancelGrandchild() // withdraws from child, which stays linked to ctx
			wantErr(t, "grandchild", grandchild, context.Canceled)
			wantErr(t, "child", child, nil)
			cancel()
			waitDone(t, child)
			wantErr(t, "child", child, context.Canceled)
		}},
		{"stdlib WithCancel child of an expiring context", func(t *testing.T, with deriver) {
			ctx, cancel := with(bg, short)
			defer cancel()
			child, cancelChild := context.WithCancel(ctx)
			defer cancelChild()
			waitDone(t, child)
			wantErr(t, "child", child, context.DeadlineExceeded)
		}},
		{"context.AfterFunc runs at the end", func(t *testing.T, with deriver) {
			ctx, cancel := with(bg, time.Hour)
			ran := make(chan struct{})
			stop := context.AfterFunc(ctx, func() { close(ran) })
			cancel()
			select {
			case <-ran:
			case <-time.After(guard):
				t.Fatal("AfterFunc never ran")
			}
			if stop() {
				t.Error("stop reported true after the function ran")
			}
		}},
		{"context.AfterFunc runs at the deadline", func(t *testing.T, with deriver) {
			ctx, cancel := with(bg, short)
			defer cancel()
			ran := make(chan struct{})
			context.AfterFunc(ctx, func() { close(ran) })
			select {
			case <-ran:
			case <-time.After(guard):
				t.Fatal("AfterFunc never ran")
			}
			wantErr(t, "after the function ran", ctx, context.DeadlineExceeded)
		}},
		{"context.AfterFunc stopped", func(t *testing.T, with deriver) {
			ctx, cancel := with(bg, time.Hour)
			ran := make(chan struct{})
			stop := context.AfterFunc(ctx, func() { close(ran) })
			if !stop() {
				t.Error("stop reported false on a live context")
			}
			if stop() {
				t.Error("a second stop reported true")
			}
			cancel()
			select {
			case <-ran:
				t.Error("a stopped AfterFunc ran")
			case <-time.After(past):
			}
		}},
		{"context.AfterFunc on an ended context", func(t *testing.T, with deriver) {
			ctx, cancel := with(bg, time.Hour)
			cancel()
			ran := make(chan struct{})
			context.AfterFunc(ctx, func() { close(ran) })
			select {
			case <-ran:
			case <-time.After(guard):
				t.Fatal("AfterFunc never ran")
			}
		}},
		{"values pass through", func(t *testing.T, with deriver) {
			type key struct{}
			ctx, cancel := with(context.WithValue(bg, key{}, 7), time.Hour)
			defer cancel()
			if got := ctx.Value(key{}); got != 7 {
				t.Errorf("Value = %v, want 7", got)
			}
		}},
		{"Done, Err, cancel and derive racing", func(t *testing.T, with deriver) {
			for round := 0; round < 200; round++ {
				parent, cancelParent := context.WithCancel(bg)
				ctx, cancel := with(parent, time.Duration(round%3)*time.Millisecond)
				var wg sync.WaitGroup
				start := make(chan struct{})
				racer := func(f func()) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						f()
					}()
				}
				racer(func() { <-ctx.Done() })
				racer(func() {
					for ctx.Err() == nil {
					}
				})
				racer(cancel)
				racer(cancelParent)
				racer(func() {
					inner, cancelInner := with(ctx, time.Hour)
					defer cancelInner()
					<-inner.Done()
				})
				racer(func() {
					child, cancelChild := context.WithCancel(ctx)
					defer cancelChild()
					<-child.Done()
				})
				close(start)
				wg.Wait()
				first := ctx.Err()
				if first == nil || !closed(ctx) {
					t.Fatalf("round %d: Err = %v, Done closed = %v after every racer returned", round, first, closed(ctx))
				}
				cancel()
				if again := ctx.Err(); again != first {
					t.Fatalf("round %d: Err changed from %v to %v", round, first, again)
				}
			}
		}},
	}
	impls := []struct {
		name string
		with deriver
	}{
		{"stdlib", context.WithTimeout},
		{"wall", func(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
			ctx := Wall.WithDeadline(parent, Wall.Now().Add(d))
			return ctx, func() { End(ctx) }
		}},
	}
	for _, sc := range scenarios {
		for _, impl := range impls {
			t.Run(sc.name+"/"+impl.name, func(t *testing.T) {
				t.Parallel()
				sc.run(t, impl.with)
			})
		}
	}
}

// TestWithDeadlineInstant: the wall clock's constructor takes the instant
// as given (the ORB server's frame deadline arrives as one), earlier
// parent deadlines still capping it, and an instant already past yields
// a context that has ended.
func TestWithDeadlineInstant(t *testing.T) {
	at := time.Now().Add(time.Hour)
	ctx := Wall.WithDeadline(context.Background(), at)
	defer End(ctx)
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(at) {
		t.Errorf("Deadline = %v, %v; want %v", dl, ok, at)
	}
	inner := Wall.WithDeadline(ctx, at.Add(time.Hour))
	defer End(inner)
	if dl, _ := inner.Deadline(); !dl.Equal(at) {
		t.Errorf("inner Deadline = %v, want the parent's %v", dl, at)
	}
	late := Wall.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer End(late)
	if err := late.Err(); err != context.DeadlineExceeded {
		t.Errorf("Err of a deadline in the past = %v, want DeadlineExceeded", err)
	}
	select {
	case <-late.Done():
	default:
		t.Error("Done not closed on a deadline in the past")
	}
}

package vclock

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestViewAtTheParentsInstant: a derivation whose instant is not before
// its parent's deadline is a view of the parent, with its deadline and
// values and no event of its own; 1 ns earlier it is a context of its
// own. Under a view, or value layers over one, it is the parent itself;
// under value layers over a clock context it is a context of its own.
func TestViewAtTheParentsInstant(t *testing.T) {
	type key struct{}
	v := NewVirtual()
	parent := v.WithDeadline(context.WithValue(context.Background(), key{}, "v"), v.Now().Add(time.Second))
	defer End(parent)
	pd, _ := parent.Deadline()
	events := v.PendingEvents()

	for _, at := range []time.Time{pd, pd.Add(time.Hour)} {
		view := v.WithDeadline(parent, at)
		defer End(view)
		if w, ok := view.(*vview); !ok || (*vctx)(w) != parent.(*vctx) {
			t.Fatalf("at parent's deadline %+v: derived %T, want a view of the parent", at.Sub(pd), view)
		}
		if d, ok := view.Deadline(); !ok || !d.Equal(pd) {
			t.Errorf("view deadline = %v, %v; want the parent's, %v", d, ok, pd)
		}
		if got := view.Value(key{}); got != "v" {
			t.Errorf("view Value = %v, want the parent's value", got)
		}
		if view.Done() != parent.Done() {
			t.Error("view Done is not the parent's")
		}
		if n := v.PendingEvents(); n != events {
			t.Errorf("%d events pending after deriving a view, want %d", n, events)
		}
		if got := v.WithDeadline(view, pd); got != view {
			t.Errorf("under a view: derived %T, want the view itself", got)
		}
		for _, layer := range []context.Context{valueOnly{view}, context.WithValue(view, key{}, "w")} {
			if got := v.WithDeadline(layer, pd); got != layer {
				t.Errorf("under %T over a view: derived %T, want the layer itself", layer, got)
			}
		}
	}

	child := v.WithDeadline(parent, pd.Add(-time.Nanosecond))
	defer End(child)
	if c, ok := child.(*vctx); !ok || c.parent != parent.(*vctx) {
		t.Fatalf("1 ns before the parent's deadline: derived %T, want a child of the parent", child)
	}
	if n := v.PendingEvents(); n != events+1 {
		t.Errorf("%d events pending after deriving a child, want %d", n, events+1)
	}
	layered := v.WithDeadline(valueOnly{parent}, pd)
	defer End(layered)
	if c, ok := layered.(*vctx); !ok || c.parent != parent.(*vctx) {
		t.Errorf("under a value layer over the parent: derived %T, want a child of the parent", layered)
	}
}

// TestViewEndsAsAChildDoes: once its parent has ended, by its deadline
// or by End, a view reports Canceled and its Done is closed, as a child
// the end cascaded to does; a child derived under it then is born
// Canceled. A derivation from the ended parent itself is born with the
// parent's error, view or not.
func TestViewEndsAsAChildDoes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		end     func(v *Virtual, parent context.Context)
		wantErr error // the parent's
	}{
		{"deadline", func(v *Virtual, _ context.Context) { v.Advance(time.Second) }, context.DeadlineExceeded},
		{"End", func(_ *Virtual, parent context.Context) { End(parent) }, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVirtual()
			parent := v.WithDeadline(context.Background(), v.Now().Add(time.Second))
			defer End(parent)
			pd, _ := parent.Deadline()
			view := v.WithDeadline(parent, pd)
			if err := view.Err(); err != nil {
				t.Fatalf("live view: Err = %v", err)
			}
			tc.end(v, parent)
			if err := parent.Err(); err != tc.wantErr {
				t.Fatalf("parent Err = %v, want %v", err, tc.wantErr)
			}
			select {
			case <-view.Done():
			default:
				t.Error("view Done is open after its parent ended")
			}
			if err := view.Err(); err != context.Canceled {
				t.Errorf("view Err = %v, want Canceled", err)
			}
			for _, at := range []time.Time{pd.Add(-time.Nanosecond), pd} {
				ctx := v.WithDeadline(view, at)
				if err := ctx.Err(); err != context.Canceled {
					t.Errorf("derived under the ended view at %v: Err = %v, want Canceled", at.Sub(pd), err)
				}
				End(ctx)
				ctx = v.WithDeadline(parent, at)
				if err := ctx.Err(); err != tc.wantErr {
					t.Errorf("derived under the ended parent at %v: Err = %v, want %v", at.Sub(pd), err, tc.wantErr)
				}
				End(ctx)
			}
		})
	}
}

// TestWaitsUnderAViewWakeCanceled: a Sleep, a Gate.Wait and a Group.Wait
// under a view, or under a value layer over one, are woken by the
// parent's deadline at its instant with Canceled; a wait under the
// parent itself is woken with DeadlineExceeded.
func TestWaitsUnderAViewWakeCanceled(t *testing.T) {
	type key struct{}
	type wake struct {
		err error
		at  time.Duration
	}
	v := NewVirtual()
	parent := v.WithDeadline(context.Background(), v.Now().Add(time.Second))
	defer End(parent)
	view := v.WithDeadline(parent, v.Now().Add(time.Hour))
	gate, gateUnderLayer, group := v.NewGate(), v.NewGate(), v.NewGroup()
	group.Add(1)
	var mu sync.Mutex
	wakes := map[string]wake{}
	waits := map[string]func() error{
		"Sleep under the parent":         func() error { return v.Sleep(parent, time.Hour) },
		"Sleep":                          func() error { return v.Sleep(view, time.Hour) },
		"Gate.Wait":                      func() error { return gate.Wait(view) },
		"Group.Wait":                     func() error { return group.Wait(view) },
		"Sleep under a value layer":      func() error { return v.Sleep(context.WithValue(view, key{}, 1), time.Hour) },
		"Gate.Wait under a span":         func() error { return gateUnderLayer.Wait(valueOnly{view}) },
		"Group.Wait under a value layer": func() error { return group.Wait(context.WithValue(view, key{}, 1)) },
	}
	for name, wait := range waits {
		v.Go(func() {
			err := wait()
			mu.Lock()
			wakes[name] = wake{err, elapsed(v)}
			mu.Unlock()
		})
	}
	v.RunUntilIdle()
	for name := range waits {
		want := wake{context.Canceled, time.Second}
		if name == "Sleep under the parent" {
			want.err = context.DeadlineExceeded
		}
		if got, ok := wakes[name]; !ok || got != want {
			t.Errorf("%s: woke %v with %v at %v, want %v at %v", name, ok, got.err, got.at, want.err, want.at)
		}
	}
}

// TestEndOnAViewLeavesTheParent: End on a view ends nothing — not the
// view, not its parent, not the waits under either.
func TestEndOnAViewLeavesTheParent(t *testing.T) {
	bg := context.Background()
	v := NewVirtual()
	parent := v.WithDeadline(bg, v.Now().Add(time.Second))
	defer End(parent)
	view := v.WithDeadline(parent, v.Now().Add(time.Second))
	var mu sync.Mutex
	woke := map[string]error{}
	sleep := func(name string, ctx context.Context, d time.Duration) {
		v.Go(func() {
			err := v.Sleep(ctx, d)
			mu.Lock()
			woke[name] = err
			mu.Unlock()
		})
	}
	sleep("under the parent", parent, 10*time.Millisecond)
	sleep("under the view", view, 20*time.Millisecond)
	v.Go(func() {
		_ = v.Sleep(bg, 5*time.Millisecond)
		events := v.PendingEvents()
		End(view)
		End(view)
		if n := v.PendingEvents(); n != events {
			t.Errorf("End on a view withdrew events: %d pending, want %d", n, events)
		}
	})
	v.Advance(100 * time.Millisecond)
	for _, name := range []string{"under the parent", "under the view"} {
		if err, ok := woke[name]; !ok || err != nil {
			t.Errorf("sleep %s: woke %v (%v), want its own end", name, err, ok)
		}
	}
	if parent.Err() != nil || view.Err() != nil {
		t.Errorf("after End on the view: parent Err = %v, view Err = %v; want nil, nil", parent.Err(), view.Err())
	}
}

// TestCascadedDeadlineByClock pins what a context reports when its
// parent's deadline passes and its own has not: the wall clock's child
// reads the parent's DeadlineExceeded, the virtual clock's (a child of
// its own or a view) reads Canceled, as a context whose parent ended
// does. The two differ, and resilient.Classify retries the first and
// not the second: the open question of which rule both should follow is
// ROADMAP item 1.
func TestCascadedDeadlineByClock(t *testing.T) {
	bg := context.Background()
	const short = 5 * time.Millisecond

	wparent := Wall.WithDeadline(bg, Wall.Now().Add(short))
	defer End(wparent)
	wchild := Wall.WithDeadline(wparent, Wall.Now().Add(time.Hour))
	defer End(wchild)
	time.Sleep(4 * short)
	if err := wchild.Err(); err != context.DeadlineExceeded {
		t.Errorf("wall: child Err = %v, want DeadlineExceeded", err)
	}

	v := NewVirtual()
	vparent := v.WithDeadline(bg, v.Now().Add(short))
	defer End(vparent)
	view := v.WithDeadline(vparent, v.Now().Add(time.Hour))
	child := v.WithDeadline(valueOnly{vparent}, v.Now().Add(time.Hour))
	defer End(child)
	v.Advance(short)
	if err := vparent.Err(); err != context.DeadlineExceeded {
		t.Fatalf("virtual: parent Err = %v, want DeadlineExceeded", err)
	}
	if err := view.Err(); err != context.Canceled {
		t.Errorf("virtual: view Err = %v, want Canceled", err)
	}
	if err := child.Err(); err != context.Canceled {
		t.Errorf("virtual: child Err = %v, want Canceled", err)
	}
}

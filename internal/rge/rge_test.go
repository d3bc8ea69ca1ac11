package rge

import (
	"sync"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/vclock"
)

var owner = loid.LOID{Domain: "uva", Class: "Host", Instance: 1}

func TestTriggerFiresOnGuardTrue(t *testing.T) {
	ts := NewTriggerSet(owner, nil)
	if err := ts.Define("overload", `$host_load > 0.8`); err != nil {
		t.Fatal(err)
	}
	var got []Event
	ts.RegisterOutcall("overload", func(e Event) { got = append(got, e) })

	attrs := attr.NewSet(attr.Pair{Name: "host_load", Value: attr.Float(0.5)})
	if evs := ts.Evaluate(attrs); len(evs) != 0 || len(got) != 0 {
		t.Fatalf("fired below threshold: %v", evs)
	}
	attrs.Set("host_load", attr.Float(0.9))
	evs := ts.Evaluate(attrs)
	if len(evs) != 1 || len(got) != 1 {
		t.Fatalf("want 1 event, got %d/%d", len(evs), len(got))
	}
	e := got[0]
	if e.Source != owner || e.Trigger != "overload" {
		t.Errorf("event = %+v", e)
	}
	m := attr.FromPairs(e.Attrs)
	if m["host_load"].FloatVal() != 0.9 {
		t.Errorf("event snapshot load = %v", m["host_load"])
	}
}

func TestEdgeTriggeredSemantics(t *testing.T) {
	ts := NewTriggerSet(owner, nil)
	ts.Define("hot", `$load > 0.8`)
	attrs := attr.NewSet(attr.Pair{Name: "load", Value: attr.Float(0.9)})

	// First evaluation fires...
	if n := len(ts.Evaluate(attrs)); n != 1 {
		t.Fatalf("first eval fired %d", n)
	}
	// ...but staying high does not re-fire.
	for i := 0; i < 5; i++ {
		if n := len(ts.Evaluate(attrs)); n != 0 {
			t.Fatalf("level-high eval %d fired %d", i, n)
		}
	}
	// Dropping below re-arms; rising again re-fires.
	attrs.Set("load", attr.Float(0.2))
	ts.Evaluate(attrs)
	attrs.Set("load", attr.Float(0.95))
	if n := len(ts.Evaluate(attrs)); n != 1 {
		t.Fatalf("after re-arm fired %d", n)
	}
}

func TestWildcardOutcall(t *testing.T) {
	ts := NewTriggerSet(owner, nil)
	ts.Define("a", `$x > 1`)
	ts.Define("b", `$x > 2`)
	var names []string
	ts.RegisterOutcall("", func(e Event) { names = append(names, e.Trigger) })
	ts.Evaluate(attr.NewSet(attr.Pair{Name: "x", Value: attr.Int(3)}))
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("wildcard saw %v, want [a b] (deterministic order)", names)
	}
}

func TestMultipleOutcallsPerTrigger(t *testing.T) {
	ts := NewTriggerSet(owner, nil)
	ts.Define("t", `true`)
	n := 0
	ts.RegisterOutcall("t", func(Event) { n++ })
	ts.RegisterOutcall("t", func(Event) { n++ })
	ts.Evaluate(attr.NewSet())
	if n != 2 {
		t.Errorf("outcalls run %d times, want 2", n)
	}
}

func TestDefineErrors(t *testing.T) {
	ts := NewTriggerSet(owner, nil)
	if err := ts.Define("", "true"); err == nil {
		t.Error("empty name accepted")
	}
	if err := ts.Define("bad", "((("); err == nil {
		t.Error("bad guard accepted")
	}
}

func TestGuardTypeErrorNeverFires(t *testing.T) {
	ts := NewTriggerSet(owner, nil)
	ts.Define("bad", `$s and true`) // $s is a string: type error
	attrs := attr.NewSet(attr.Pair{Name: "s", Value: attr.String("x")})
	if n := len(ts.Evaluate(attrs)); n != 0 {
		t.Errorf("type-erroring guard fired %d", n)
	}
	// Fixing the attribute lets the trigger fire (it stayed armed).
	attrs.Set("s", attr.Bool(true))
	if n := len(ts.Evaluate(attrs)); n != 1 {
		t.Errorf("after fix fired %d, want 1", n)
	}
}

func TestRedefiningTriggerRearms(t *testing.T) {
	ts := NewTriggerSet(owner, nil)
	ts.Define("t", `$x > 0`)
	attrs := attr.NewSet(attr.Pair{Name: "x", Value: attr.Int(1)})
	ts.Evaluate(attrs) // fires, disarms
	ts.Define("t", `$x > 0`)
	if n := len(ts.Evaluate(attrs)); n != 1 {
		t.Errorf("redefined trigger fired %d, want 1", n)
	}
}

func TestVirtualClock(t *testing.T) {
	fixed := time.Date(1999, 4, 12, 0, 0, 0, 0, time.UTC) // IPPS '99
	ts := NewTriggerSet(owner, vclock.NewVirtualAt(fixed))
	ts.Define("t", "true")
	evs := ts.Evaluate(attr.NewSet())
	if len(evs) != 1 || !evs[0].Time.Equal(fixed) {
		t.Errorf("event time = %v, want %v", evs[0].Time, fixed)
	}
}

func TestConcurrentEvaluateAndDefine(t *testing.T) {
	ts := NewTriggerSet(owner, nil)
	ts.Define("t", `$x > 5`)
	attrs := attr.NewSet(attr.Pair{Name: "x", Value: attr.Int(0)})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			attrs.Set("x", attr.Int(int64(i%10)))
			ts.Evaluate(attrs)
		}
	}()
	for i := 0; i < 100; i++ {
		ts.Define("t2", `$x > 7`)
		ts.RegisterOutcall("t", func(Event) {})
		ts.OutcallCount("t")
	}
	close(stop)
	wg.Wait()
}

// TestOutcallCanReenterTriggerSet: an outcall may call back into the
// TriggerSet (redefining the trigger that fired, say) without
// deadlocking — firings are collected under the lock but delivered
// outside it.
func TestOutcallCanReenterTriggerSet(t *testing.T) {
	ts := NewTriggerSet(owner, nil)
	ts.Define("once", "true")
	ran := false
	ts.RegisterOutcall("once", func(e Event) {
		ts.Define("once", "true")
		ran = true
	})
	ts.Evaluate(attr.NewSet())
	if !ran {
		t.Fatal("outcall did not run")
	}
	if n := len(ts.Evaluate(attr.NewSet())); n != 1 {
		t.Errorf("trigger redefined by its outcall fired %d, want 1 (re-armed)", n)
	}
}

// TestRegisterOutcallKeyedDedupes: re-registering under the same
// (trigger, key) replaces the handler instead of stacking a duplicate —
// the Host-side half of Watch idempotency. Distinct keys and anonymous
// registrations still append.
func TestRegisterOutcallKeyedDedupes(t *testing.T) {
	ts := NewTriggerSet(owner, nil)
	if err := ts.Define("overload", `$host_load > 0.8`); err != nil {
		t.Fatal(err)
	}
	firstCalls, secondCalls := 0, 0
	ts.RegisterOutcallKeyed("overload", "monitor-1", func(Event) { firstCalls++ })
	ts.RegisterOutcallKeyed("overload", "monitor-1", func(Event) { secondCalls++ })
	if n := ts.OutcallCount("overload"); n != 1 {
		t.Fatalf("outcalls after re-registration: %d, want 1", n)
	}

	attrs := attr.NewSet(attr.Pair{Name: "host_load", Value: attr.Float(0.9)})
	ts.Evaluate(attrs)
	if firstCalls != 0 || secondCalls != 1 {
		t.Errorf("replaced handler calls: first=%d second=%d, want 0/1", firstCalls, secondCalls)
	}

	// A different key is a distinct subscriber.
	ts.RegisterOutcallKeyed("overload", "monitor-2", func(Event) {})
	if n := ts.OutcallCount("overload"); n != 2 {
		t.Errorf("outcalls with two keys: %d, want 2", n)
	}
	// Anonymous registrations always append, even repeated.
	ts.RegisterOutcall("overload", func(Event) {})
	ts.RegisterOutcall("overload", func(Event) {})
	if n := ts.OutcallCount("overload"); n != 4 {
		t.Errorf("outcalls with anonymous appends: %d, want 4", n)
	}
	// An empty key degrades to anonymous append.
	ts.RegisterOutcallKeyed("overload", "", func(Event) {})
	ts.RegisterOutcallKeyed("overload", "", func(Event) {})
	if n := ts.OutcallCount("overload"); n != 6 {
		t.Errorf("outcalls with empty keys: %d, want 6", n)
	}
}

package monitor

import (
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/vclock"
)

func TestLivenessStates(t *testing.T) {
	clk := vclock.NewVirtualAt(time.Unix(1000, 0))
	l := NewLiveness(10*time.Second, 3, clk)
	h := loid.LOID{Domain: "d", Class: "Host", Instance: 1}

	if got := l.State(h); got != LivenessUnknown {
		t.Fatalf("untracked state = %v, want unknown", got)
	}

	l.Beat(h)
	if got := l.State(h); got != LivenessUp {
		t.Fatalf("after beat = %v, want up", got)
	}

	// Heartbeat ages past the staleness window.
	clk.Advance(11 * time.Second)
	if got := l.State(h); got != LivenessStale {
		t.Fatalf("aged state = %v, want stale", got)
	}

	// A fresh beat recovers.
	l.Beat(h)
	if got := l.State(h); got != LivenessUp {
		t.Fatalf("after recovery beat = %v, want up", got)
	}

	// Failures below the threshold do not flip a recently-beaten host.
	l.Fail(h)
	l.Fail(h)
	if got := l.State(h); got != LivenessUp {
		t.Fatalf("after 2 failures = %v, want up", got)
	}
	if n := l.Fail(h); n != 3 {
		t.Fatalf("failure streak = %d, want 3", n)
	}
	if got := l.State(h); got != LivenessDown {
		t.Fatalf("after 3 failures = %v, want down", got)
	}

	// A success resets the streak entirely.
	l.Beat(h)
	if got := l.State(h); got != LivenessUp {
		t.Fatalf("after down-recovery = %v, want up", got)
	}

	// Never-beaten host with some failures is stale, not unknown.
	h2 := loid.LOID{Domain: "d", Class: "Host", Instance: 2}
	l.Fail(h2)
	if got := l.State(h2); got != LivenessStale {
		t.Fatalf("failed-before-first-beat = %v, want stale", got)
	}

	if n := len(l.entries); n != 2 {
		t.Fatalf("%d resources tracked, want 2", n)
	}
	if l.entries[h2].beaten {
		t.Fatal("never-beaten host recorded as beaten")
	}
	if e := l.entries[h]; !e.beaten || !e.lastBeat.Equal(clk.Now()) {
		t.Fatalf("last beat = %v %v", e.lastBeat, e.beaten)
	}
}

func TestLivenessStateStrings(t *testing.T) {
	want := map[LivenessState]string{
		LivenessUnknown: "unknown",
		LivenessUp:      "up",
		LivenessStale:   "stale",
		LivenessDown:    "down",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

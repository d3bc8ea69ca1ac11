package chaos

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/resilient"
	"legion/internal/sim"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// TestVirtualTraceGolden pins the engine's event order to recorded
// values: a storm that takes every path the clock has — link delay,
// flaky links and their retry backoff, a dead host, and a deadline short
// enough to expire under two in five requests while calls are parked —
// must fire the same events, with the same sequence numbers at the same
// virtual instants, as it did when the digests below were recorded. They
// were recorded first on the commit before events became values and
// waiters were pooled, and re-recorded when storms moved onto sim.Drive,
// which draws each request's placement choices from (world seed, request
// index) instead of the metasystem's shared stream; the engine was
// untouched. They were re-recorded once more when a deadline that does
// not narrow its parent's became a view of the parent: such a context
// no longer schedules a deadline event, which could never fire first,
// so every later event takes a lower sequence number; the events that
// fire, their instants and their order are unchanged, as the second
// digest shows. The seeds are fixed: a golden value belongs to its input.
// A change that moves a digest has changed when or in what order the
// clock schedules something, and says so by editing this table.
//
// The second digest, noSeq, hashes the same lines with the #seq
// column taken out: what fired, when, and in what order, but not how
// many events were scheduled before each. A change that schedules fewer
// events which never fire (a deadline that cannot end first) moves the
// first digest and must leave this one as it is.
func TestVirtualTraceGolden(t *testing.T) {
	golden := []struct {
		seed   int64
		events int
		sha256 string
		noSeq  string
	}{
		// The second digest of each row was recorded before deadlines
		// that do not narrow their parent's became views.
		{5, 2224, "789936fb0d70f15fcc9c5feecc0d8f23d52c4aca880e733375750064dd454066",
			"31393879456bba38b0a526b2ff2222b404cff460aee308353f057caa24d3e31b"},
		{42, 2226, "30661ffdbdf2749558e3ee1f6ca870eb64f9075503e068b23867ec4be56eecde",
			"0c40e8a2aa2a7f518c129c7dfa084c647b4bab043ed62a2fa67639f2dd179eee"},
		{13, 2211, "27bf7f7312eb1ab967c2b3d031fabadfc9e1a0b98c37c993207bd71b2cf86c20",
			"7e0201b45d6680d64add045e81f376e770db9462ab2a0838af518cf72f87ca9d"},
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("seed=%d", g.seed), func(t *testing.T) {
			trace, _ := goldenStorm(t, g.seed)
			sum := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(trace, "\n"))))
			if len(trace) != g.events || sum != g.sha256 {
				t.Errorf("trace: %d events, sha256 %s\n want %d events, sha256 %s",
					len(trace), sum, g.events, g.sha256)
			}
			unseq := make([]string, len(trace))
			for i, line := range trace {
				unseq[i] = withoutSeq(line)
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(unseq, "\n")))); sum != g.noSeq {
				t.Errorf("trace without #seq: sha256 %s\n want sha256 %s", sum, g.noSeq)
			}
		})
	}
}

// withoutSeq drops the "#<seq>" column from a trace line, keeping its
// offset and kind: "+000000002000us #000042 sleep" → "+000000002000us sleep".
func withoutSeq(line string) string {
	at, rest, _ := strings.Cut(line, " #")
	_, kind, _ := strings.Cut(rest, " ")
	return at + " " + kind
}

// TestVirtualSpanGolden pins the span tree of TestVirtualTraceGolden's
// storms: every span each recorded, timed on the virtual clock, as
// spanDigest hashes it. The digests were recorded when spans moved onto
// their runtime's clock; before that they read the wall clock and no two
// runs agreed. A change that moves one has changed which stages run,
// under which parent, for how long in virtual time, or with what error.
func TestVirtualSpanGolden(t *testing.T) {
	golden := []struct {
		seed   int64
		sha256 string
	}{
		{5, "f461a58b4836f03083ff8c299b20f5de3a501ecb5426cb0803a478634196e05a"},
		{42, "a501e21631657d2c4a16d51e63744cad4c0833b4a079ef88b92a263ffd594e93"},
		{13, "f40edb0eaf1acb13e906912a4c0273f2a0271c11eab4e68793595840e667979e"},
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("seed=%d", g.seed), func(t *testing.T) {
			if _, spans := goldenStorm(t, g.seed); spans != g.sha256 {
				t.Errorf("spans: sha256 %s\n want sha256 %s", spans, g.sha256)
			}
		})
	}
}

// goldenStorm runs the golden storm for seed on a fresh virtual clock
// and returns the engine's event trace and the spanDigest of what the
// world's registry recorded, both read before the world is closed:
// shutdown is part of neither.
func goldenStorm(t *testing.T, seed int64) (trace []string, spans string) {
	vc := vclock.NewVirtual()
	epoch := vc.Now()
	reg := telemetry.NewRegistry()
	opts := core.Options{
		Seed:    seed,
		Metrics: reg,
		Clock:   vc,
		Retry: resilient.Policy{
			MaxAttempts: 2, BaseDelay: time.Millisecond,
			Budget: 2 * time.Second, AttemptTimeout: time.Second,
			Clock:      vc,
			JitterRand: resilient.NewLockedRand(seed),
		},
	}
	w, err := NewWorld(seed, sim.Spec{Domain: "uva", Options: opts, Hosts: sim.UniformSpecs(4, 4)})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()
	site := w.Sites[0]
	w.Slow(site, 2*time.Millisecond, time.Millisecond)
	w.Flaky(site.MS.Runtime(), 0.08)
	w.CrashHost(site, 1)

	vc.StartTrace()
	vc.Run(func() {
		res := storm(w, site, sim.DriverConfig{
			Rate:     500,
			Requests: 150, // 300ms of arrivals
			Deadline: 22 * time.Millisecond,
		})
		if res.Succeeded == 0 || res.Failed == 0 {
			t.Errorf("storm: %d succeeded, %d failed; the trace should cover both", res.Succeeded, res.Failed)
		}
		// Abandoned requests leave reservations for the reaper, so
		// the counts are not asserted; the polling is in the trace.
		w.Quiesce(site, time.Second)
	})
	return vc.Trace(), spanDigest(t, epoch, reg.Spans())
}

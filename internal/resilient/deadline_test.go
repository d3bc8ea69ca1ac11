package resilient

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"legion/internal/orb"
	"legion/internal/vclock"
)

// These tests pin what Policy.Do promises about time — which deadline
// each attempt runs under, where the budget cuts, which error comes out —
// on both clocks. On vclock.Virtual every instant is exact; on the wall
// clock it lies between two readings taken around it.

var errFlaky = fmt.Errorf("%w: flaky", orb.ErrInjectedFault)

// onBothClocks runs f on the wall clock and, inside the event loop, on a
// fresh virtual one. f must report with t.Error: on the virtual clock it
// is not on the test's goroutine.
func onBothClocks(t *testing.T, f func(t *testing.T, clock vclock.Clock)) {
	t.Run("wall", func(t *testing.T) { f(t, vclock.Wall) })
	t.Run("virtual", func(t *testing.T) {
		vc := vclock.NewVirtualAt(time.Unix(1_000_000, 0))
		vc.Run(func() { f(t, vc) })
		if n := vc.PendingEvents(); n != 0 {
			t.Errorf("%d clock events still pending after Do returned", n)
		}
	})
}

// attempt is what a recording op saw when it was called.
type attempt struct {
	before, at time.Time // clock readings around the derivation of its ctx
	deadline   time.Time
	hasDL      bool
}

// recordingOp fails every attempt up to failFirst with a retryable
// error, recording each attempt's context deadline.
type recordingOp struct {
	clock     vclock.Clock
	failFirst int
	seen      []attempt
	last      time.Time // when the previous attempt returned (Do's start, for the first)
}

func (r *recordingOp) op(ctx context.Context) error {
	a := attempt{before: r.last, at: r.clock.Now()}
	a.deadline, a.hasDL = ctx.Deadline()
	r.seen = append(r.seen, a)
	r.last = r.clock.Now()
	if len(r.seen) <= r.failFirst {
		return errFlaky
	}
	return nil
}

// within reports lo ≤ got ≤ hi; on the virtual clock lo == hi.
func within(got, lo, hi time.Time) bool { return !got.Before(lo) && !got.After(hi) }

// slack is how far past its bound a wall-clock deadline may land: Do
// reads the clock and derives the context in two steps, and the
// goroutine can lose the processor between them.
func slack(clock vclock.Clock) time.Duration {
	if _, virtual := clock.(*vclock.Virtual); virtual {
		return 0
	}
	return 50 * time.Millisecond
}

func earliest(ts ...time.Time) time.Time {
	var m time.Time
	for _, t := range ts {
		if !t.IsZero() && (m.IsZero() || t.Before(m)) {
			m = t
		}
	}
	return m
}

// TestDoAttemptDeadlines: attempt 1 runs under min(parent, t0+AttemptTimeout,
// t0+Budget), whichever are set; every later attempt under
// min(parent, t0+Budget, now+AttemptTimeout), so none outlives the budget.
func TestDoAttemptDeadlines(t *testing.T) {
	const ms = 4 * time.Millisecond // wide enough that a loaded box cannot reorder the wall-clock arms
	for _, c := range []struct {
		name            string
		attempt, budget time.Duration
		parent          time.Duration // caller's own deadline; 0 = none
	}{
		{"attempt<budget", 40 * ms, 100 * ms, 0},
		{"attempt<budget, parent tightest", 40 * ms, 100 * ms, 15 * ms},
		{"attempt<budget, parent between", 40 * ms, 100 * ms, 60 * ms},
		{"attempt==budget", 50 * ms, 50 * ms, 0},
		{"attempt>budget", 90 * ms, 50 * ms, 0},
		{"attempt only", 40 * ms, 0, 0},
		{"budget only", 0, 100 * ms, 0},
		{"budget only, parent tighter", 0, 100 * ms, 30 * ms},
	} {
		t.Run(c.name, func(t *testing.T) {
			onBothClocks(t, func(t *testing.T, clock vclock.Clock) {
				ctx := context.Background()
				var parentDL time.Time
				if c.parent > 0 {
					var cancel context.CancelFunc
					ctx, cancel = clock.WithTimeout(ctx, c.parent)
					defer cancel()
					parentDL, _ = ctx.Deadline()
				}
				rec := &recordingOp{clock: clock, failFirst: 2, last: clock.Now()}
				t0lo := rec.last
				err := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: -1, Clock: clock,
					Budget: c.budget, AttemptTimeout: c.attempt}.Do(ctx, rec.op)
				if err != nil || len(rec.seen) != 3 {
					t.Errorf("err=%v after %d attempts, want success on the third", err, len(rec.seen))
					return
				}
				t0hi := rec.seen[0].at
				add := func(t time.Time, d time.Duration) time.Time {
					if d == 0 {
						return time.Time{}
					}
					return t.Add(d)
				}
				for i, a := range rec.seen {
					lo := earliest(parentDL, add(t0lo, c.budget), add(a.before, c.attempt))
					hi := earliest(parentDL, add(t0hi, c.budget), add(a.at, c.attempt)).Add(slack(clock))
					if !a.hasDL || !within(a.deadline, lo, hi) {
						t.Errorf("attempt %d: deadline %v (set=%v), want within [%v, %v]",
							i+1, a.deadline.Sub(t0lo), a.hasDL, lo.Sub(t0lo), hi.Sub(t0lo))
					}
					if c.budget > 0 && a.deadline.After(t0hi.Add(c.budget+slack(clock))) {
						t.Errorf("attempt %d: deadline %v outlives the budget", i+1, a.deadline.Sub(t0lo))
					}
				}
			})
		})
	}
}

// TestDoBackoffCutAtBudget: a backoff that would cross the budget is cut
// there, and the error says so around the last attempt's own error.
func TestDoBackoffCutAtBudget(t *testing.T) {
	const ms = time.Millisecond
	onBothClocks(t, func(t *testing.T, clock vclock.Clock) {
		t0 := clock.Now()
		n := 0
		err := Policy{MaxAttempts: 5, BaseDelay: 500 * ms, Jitter: -1, Clock: clock,
			Budget: 30 * ms, AttemptTimeout: 10 * ms}.Do(context.Background(),
			func(context.Context) error { n++; return errFlaky })
		want := "resilient: budget exhausted after 1 attempts: " + errFlaky.Error()
		if err == nil || err.Error() != want || !errors.Is(err, orb.ErrInjectedFault) || n != 1 {
			t.Errorf("err=%v after %d attempts, want %q", err, n, want)
		}
		if took := clock.Since(t0); took < 30*ms || took > 400*ms {
			t.Errorf("returned after %v, want at the 30ms budget", took)
		} else if slack(clock) == 0 && took != 30*ms {
			t.Errorf("returned after %v of virtual time, want exactly 30ms", took)
		}
	})
}

// TestDoBudgetSpentBeforeRetry: when the budget is already gone by the
// time a retry is in sight — the op overran, or the caller gave up — Do
// reports it without sleeping.
func TestDoBudgetSpentBeforeRetry(t *testing.T) {
	const ms = time.Millisecond
	want := "resilient: budget exhausted after 1 attempts: " + errFlaky.Error()
	t.Run("op overran the budget", func(t *testing.T) {
		onBothClocks(t, func(t *testing.T, clock vclock.Clock) {
			t0 := clock.Now()
			err := Policy{MaxAttempts: 5, BaseDelay: ms, Jitter: -1, Clock: clock,
				Budget: 20 * ms, AttemptTimeout: 5 * ms}.Do(context.Background(),
				func(context.Context) error {
					// Deaf to its context, as a handler stuck in a syscall is.
					_ = clock.Sleep(context.Background(), 30*ms)
					return errFlaky
				})
			if err == nil || err.Error() != want {
				t.Errorf("err=%v, want %q", err, want)
			}
			if took := clock.Since(t0); took > 300*ms {
				t.Errorf("returned after %v, want right after the 30ms attempt", took)
			}
		})
	})
	t.Run("caller cancelled", func(t *testing.T) {
		onBothClocks(t, func(t *testing.T, clock vclock.Clock) {
			ctx, cancel := clock.WithTimeout(context.Background(), time.Hour)
			defer cancel()
			err := Policy{MaxAttempts: 5, BaseDelay: ms, Jitter: -1, Clock: clock,
				Budget: 20 * ms, AttemptTimeout: 5 * ms}.Do(ctx,
				func(context.Context) error { cancel(); return errFlaky })
			if err == nil || err.Error() != want {
				t.Errorf("err=%v, want %q", err, want)
			}
		})
	})
}

// TestDoAttemptTimeoutAgainstBudget: which of the two deadlines a hung
// attempt reports, on the virtual clock where same-instant events fire
// in the order they were scheduled. An attempt that times out on its own
// sees DeadlineExceeded and is retried; one whose deadline is the
// budget's instant is cancelled by the budget, scheduled first, and
// Canceled is final. At AttemptTimeout == Budget that is the first
// attempt.
func TestDoAttemptTimeoutAgainstBudget(t *testing.T) {
	const ms = time.Millisecond
	for _, c := range []struct {
		name            string
		attempt, budget time.Duration
		attempts        int           // how many the op sees
		wantErr         error         // returned bare by the last of them
		took            time.Duration // virtual time Do takes
	}{
		// [0,10] times out, 1ms backoff, [11,21] times out, 2ms backoff,
		// [23,25] is cut by the budget.
		{"attempt<budget", 10 * ms, 25 * ms, 3, context.Canceled, 25 * ms},
		{"attempt==budget", 25 * ms, 25 * ms, 1, context.Canceled, 25 * ms},
		{"attempt>budget", 40 * ms, 25 * ms, 1, context.Canceled, 25 * ms},
		{"attempt only", 10 * ms, 0, 3, context.DeadlineExceeded, 33 * ms},
	} {
		t.Run(c.name, func(t *testing.T) {
			vc := vclock.NewVirtualAt(time.Unix(1_000_000, 0))
			vc.Run(func() {
				t0 := vc.Now()
				var errs []error
				err := Policy{MaxAttempts: 3, BaseDelay: ms, Jitter: -1, Clock: vc,
					Budget: c.budget, AttemptTimeout: c.attempt}.Do(context.Background(),
					func(ctx context.Context) error {
						// A hung endpoint: parked until its context gives up.
						errs = append(errs, vc.Sleep(ctx, time.Hour))
						return errs[len(errs)-1]
					})
				if !errors.Is(err, c.wantErr) || len(errs) != c.attempts || vc.Since(t0) != c.took {
					t.Errorf("err=%v after %d attempts and %v; want %v after %d and %v",
						err, len(errs), vc.Since(t0), c.wantErr, c.attempts, c.took)
				}
				for i, e := range errs[:len(errs)-1] {
					if e != context.DeadlineExceeded {
						t.Errorf("attempt %d saw %v, want its own deadline", i+1, e)
					}
				}
				if last := errs[len(errs)-1]; last != c.wantErr {
					t.Errorf("last attempt saw %v, want %v", last, c.wantErr)
				}
			})
		})
	}
}

// TestDoSchedulesOneEventPerSuccess: a call that succeeds first time —
// nearly every call — puts one deadline on the clock, its attempt's; the
// budget gets an event of its own only once a retry is in sight.
func TestDoSchedulesOneEventPerSuccess(t *testing.T) {
	const ms = time.Millisecond
	vc := vclock.NewVirtualAt(time.Unix(1_000_000, 0))
	vc.Run(func() {
		var pending []int
		p := Policy{MaxAttempts: 3, BaseDelay: ms, Jitter: -1, Clock: vc, Budget: 100 * ms, AttemptTimeout: 10 * ms}
		fail := 0
		op := func(context.Context) error {
			pending = append(pending, vc.PendingEvents())
			if len(pending) <= fail {
				return errFlaky
			}
			return nil
		}
		if err := p.Do(context.Background(), op); err != nil || len(pending) != 1 || pending[0] != 1 {
			t.Errorf("first-time success: err=%v, events pending per attempt %v, want [1]", err, pending)
		}
		pending, fail = nil, 1
		if err := p.Do(context.Background(), op); err != nil || len(pending) != 2 || pending[0] != 1 || pending[1] != 2 {
			t.Errorf("success on retry: err=%v, events pending per attempt %v, want [1 2]", err, pending)
		}
	})
	if n := vc.PendingEvents(); n != 0 {
		t.Errorf("%d clock events still pending after Do returned", n)
	}
}

package scheduler

import (
	"context"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"legion/internal/loid"
	"legion/internal/vclock"
)

func psFleet() []hostSpec {
	return []hostSpec{
		{arch: "x86", os: "Linux", load: 0.2},
		{arch: "x86", os: "Linux", load: 0.4},
		{arch: "x86", os: "Linux", load: 0.6},
	}
}

func TestParamSpaceStreamsTasks(t *testing.T) {
	e := newTenv(t, psFleet())
	var ran []int
	res, err := ParamSpace{Slots: 2, ReuseCap: 10}.Run(context.Background(), e.env, e.class, 25,
		func(ctx context.Context, inst loid.LOID, task int) error {
			if inst.IsNil() {
				t.Fatalf("task %d: nil instance", task)
			}
			ran = append(ran, task)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Started != 25 || res.Failed != 0 {
		t.Fatalf("started %d failed %d, want 25/0", res.Started, res.Failed)
	}
	for i, task := range ran {
		if task != i {
			t.Fatalf("tasks ran out of order: %v", ran)
		}
	}
	// Short-lived jobs: nothing left running.
	if n := len(e.class.Instances()); n != 0 {
		t.Errorf("%d instances left running, want 0", n)
	}
	// The whole point: 25 tasks cost far fewer than 25 reservation
	// RPCs. 2 slot fills + 1 renewal round (2 slots × cap 10 < 25) of
	// cancel+make pairs + 2 final releases.
	if res.ReservationRPCs >= 25 {
		t.Errorf("reservation RPCs = %d for 25 tasks; reuse bought nothing", res.ReservationRPCs)
	}
	if res.Renewals == 0 {
		t.Errorf("expected at least one renewal with cap 10 over 25 tasks")
	}
}

func TestParamSpaceReuseCapProperty(t *testing.T) {
	// Property: no token EVER serves more task starts than ReuseCap,
	// for any (slots, cap, tasks) shape — the cap is a hard bound, not
	// a rotation hint, so a capped slot renegotiates before redeeming.
	e := newTenv(t, psFleet())
	ctx := context.Background()
	f := func(rawSlots, rawCap, rawTasks uint8) bool {
		slots := int(rawSlots)%4 + 1
		cap := int(rawCap)%7 + 1
		tasks := int(rawTasks) % 40
		res, err := ParamSpace{Slots: slots, ReuseCap: cap}.Run(ctx, e.env, e.class, tasks, nil)
		if err != nil {
			t.Logf("slots=%d cap=%d tasks=%d: %v", slots, cap, tasks, err)
			return false
		}
		if res.Started+res.Failed != tasks || res.Failed != 0 {
			t.Logf("slots=%d cap=%d tasks=%d: started %d failed %d",
				slots, cap, tasks, res.Started, res.Failed)
			return false
		}
		total := 0
		for tok, n := range res.PerToken {
			if n > cap {
				t.Logf("slots=%d cap=%d tasks=%d: token %s served %d > cap",
					slots, cap, tasks, tok, n)
				return false
			}
			total += n
		}
		return total == res.Started
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// offsetClock is the wall clock read offset ahead, an offset a test may
// jump mid-run.
type offsetClock struct {
	vclock.Clock
	offset *atomic.Int64 // nanoseconds
}

func (c offsetClock) Now() time.Time {
	return c.Clock.Now().Add(time.Duration(c.offset.Load()))
}
func (c offsetClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }
func (c offsetClock) Until(t time.Time) time.Duration { return t.Sub(c.Now()) }

func TestParamSpaceSurvivesTokenDeath(t *testing.T) {
	// Kill the standing grants mid-study by jumping the issuing hosts'
	// clock past the reservation window: every held token answers
	// ErrExpired on the next redeem, and the slots must renegotiate
	// fresh grants and stream on without failing a single task.
	var offset atomic.Int64
	e := newTenvOn(t, offsetClock{vclock.Wall, &offset}, psFleet())
	ctx := context.Background()
	broke := false
	res, err := ParamSpace{Slots: 2, ReuseCap: 100}.Run(ctx, e.env, e.class, 20,
		func(_ context.Context, _ loid.LOID, task int) error {
			if task == 9 && !broke {
				broke = true
				offset.Store(int64(2 * time.Hour))
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Started != 20 || res.Failed != 0 {
		t.Fatalf("started %d failed %d, want 20/0 (revocation should renegotiate, not fail)",
			res.Started, res.Failed)
	}
	if res.Renewals == 0 {
		t.Errorf("revocation mid-study must force renewals")
	}
}

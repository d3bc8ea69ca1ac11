package enactor

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"legion/internal/orb"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// modelSeeds is how many seeded sequences TestAdmissionModel runs.
const modelSeeds = 20

// TestAdmissionModel drives the gate on a virtual clock through seeded
// sequences of acquires (priority, domain, tenant, deadline), cancels and
// releases, and after every step holds it to a small oracle: the calls it
// admitted and the order it admitted them in, running ≤ slots and
// queued ≤ depth, every shed counted under its reason, and the gauges
// equal to the oracle's counts. A step is one virtual millisecond and
// every deadline falls half-way through one, so no deadline ties with a
// step. Once every seed has run, each shed reason and the hand-on of a
// slot whose waiter gave up must have been reached.
func TestAdmissionModel(t *testing.T) {
	reached := map[string]int{}
	ran := 0
	for seed := int64(1); seed <= modelSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for what, n := range admissionModel(t, seed) {
				reached[what] += n
			}
			ran++
		})
	}
	if ran < modelSeeds {
		return // a -run filter
	}
	t.Logf("%d seeds reached: %v", ran, reached)
	for _, what := range append([]string{"admitted", "handed on"}, shedReasons...) {
		if reached[what] == 0 {
			t.Errorf("no seed reached %s", what)
		}
	}
}

// shedReasons are the gate's shed reasons, in ladder order.
var shedReasons = []string{"expired", "queue_full", "fair_share", "tenant_share", "deadline"}

// modelCall is one acquire, as the oracle and the gate each see it.
type modelCall struct {
	id             int
	priority       int
	domain, tenant string
	deadline       time.Time
	ctx            context.Context
	startedAt      time.Time // when the oracle admitted it
	want           string    // the oracle's view: queued, admitted, released or a shed reason

	mu   sync.Mutex // the gate's view, written by the acquiring goroutine
	done bool
	rel  func()
	err  error
}

// got is the call's state as the gate left it, in the oracle's words.
func (c *modelCall) got() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !c.done:
		return "queued"
	case c.err == nil:
		return "admitted"
	}
	msg := c.err.Error()
	return msg[strings.LastIndex(msg, "(")+1 : len(msg)-1]
}

func (c *modelCall) release() {
	c.mu.Lock()
	rel := c.rel
	c.mu.Unlock()
	rel()
}

// admissionOracle is the gate's specification, written out by hand: its
// queue is kept in arrival order and the head is searched for.
type admissionOracle struct {
	slots, depth       int
	running            int
	queue              []*modelCall
	byDomain, byTenant map[string]int
	ewma               float64
	sheds              map[string]int
	order              []int // call ids in admission order
}

// arrive decides a new call at now.
func (o *admissionOracle) arrive(c *modelCall, now time.Time) {
	switch {
	case c.ctx.Err() != nil:
		o.shed(c, "expired")
	case o.running < o.slots:
		o.running++
		o.admit(c, now)
	case len(o.queue) >= o.depth:
		o.shed(c, "queue_full")
	case o.byDomain[c.domain] >= o.share(o.byDomain, c.domain):
		o.shed(c, "fair_share")
	case c.tenant != "" && o.byTenant[c.tenant] >= o.share(o.byTenant, c.tenant):
		o.shed(c, "tenant_share")
	case o.ewma > 0 && time.Duration(o.ewma*float64(len(o.queue)+1)/float64(o.slots)) > c.deadline.Sub(now):
		o.shed(c, "deadline")
	default:
		c.want = "queued"
		o.queue = append(o.queue, c)
		o.byDomain[c.domain]++
		if c.tenant != "" {
			o.byTenant[c.tenant]++
		}
	}
}

// share is depth/(active keys+1), min 1, with key counted as active.
func (o *admissionOracle) share(queued map[string]int, key string) int {
	active := len(queued)
	if queued[key] == 0 {
		active++
	}
	return max(1, o.depth/(active+1))
}

// head is the index of the waiter a free slot goes to: the highest
// priority, the earliest arrival within it.
func (o *admissionOracle) head() int {
	best := 0
	for i, c := range o.queue {
		if b := o.queue[best]; c.priority > b.priority || c.priority == b.priority && c.id < b.id {
			best = i
		}
	}
	return best
}

// leave takes waiter i out of the queue.
func (o *admissionOracle) leave(i int) *modelCall {
	c := o.queue[i]
	o.queue = slices.Delete(o.queue, i, i+1)
	if o.byDomain[c.domain]--; o.byDomain[c.domain] == 0 {
		delete(o.byDomain, c.domain)
	}
	if c.tenant == "" {
		return c
	}
	if o.byTenant[c.tenant]--; o.byTenant[c.tenant] == 0 {
		delete(o.byTenant, c.tenant)
	}
	return c
}

func (o *admissionOracle) admit(c *modelCall, now time.Time) {
	c.want, c.startedAt = "admitted", now
	o.order = append(o.order, c.id)
}

func (o *admissionOracle) shed(c *modelCall, reason string) {
	c.want = reason
	o.sheds[reason]++
}

// release frees c's slot at now. With cancelHead the waiter it is handed
// to gives up in the same instant and hands it on in turn.
func (o *admissionOracle) release(c *modelCall, now time.Time, cancelHead bool) {
	c.want = "released"
	if sample := float64(now.Sub(c.startedAt)); o.ewma == 0 {
		o.ewma = sample
	} else {
		o.ewma += ewmaAlpha * (sample - o.ewma)
	}
	if cancelHead {
		o.shed(o.leave(o.head()), "expired")
	}
	if len(o.queue) == 0 {
		o.running--
		return
	}
	o.admit(o.leave(o.head()), now)
}

// expire sheds every waiter whose deadline passed before now.
func (o *admissionOracle) expire(now time.Time) {
	for i := 0; i < len(o.queue); {
		if o.queue[i].deadline.Before(now) {
			o.shed(o.leave(i), "expired")
		} else {
			i++
		}
	}
}

// admissionModel runs one seed's sequence and returns how often it
// reached each outcome.
func admissionModel(t *testing.T, seed int64) map[string]int {
	rng := rand.New(rand.NewSource(seed))
	vc := vclock.NewVirtualAt(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC))
	rt := orb.NewRuntime("uva")
	rt.SetClock(vc)
	reg := telemetry.NewRegistry()
	rt.SetMetrics(reg)
	a := newAdmission(rt, Config{MaxInFlight: 2, AdmissionQueue: 4})
	o := &admissionOracle{slots: 2, depth: 4,
		byDomain: map[string]int{}, byTenant: map[string]int{}, sheds: map[string]int{}}

	var (
		calls   []*modelCall
		orderMu sync.Mutex
		order   []int // call ids in the order the gate admitted them
		handed  int
	)
	// check compares the gate with the oracle after step i.
	check := func(i int) bool {
		ok := true
		fail := func(format string, args ...any) {
			t.Errorf("step %d: "+format, append([]any{i}, args...)...)
			ok = false
		}
		a.mu.Lock()
		running, queued := a.running, len(a.waiting)
		a.mu.Unlock()
		if running != o.running || queued != len(o.queue) {
			fail("%d running, %d queued; the oracle has %d and %d", running, queued, o.running, len(o.queue))
		}
		if running > o.slots || queued > o.depth {
			fail("%d running of %d slots, %d queued of %d", running, o.slots, queued, o.depth)
		}
		if g, q := reg.GaugeValue("legion_admission_inflight"), reg.GaugeValue("legion_admission_queue_depth"); g != int64(o.running) || q != int64(len(o.queue)) {
			fail("gauges read %d in flight and %d queued, want %d and %d", g, q, o.running, len(o.queue))
		}
		for _, r := range shedReasons {
			if n := reg.CounterValue("legion_admission_sheds_total", "reason", r); n != int64(o.sheds[r]) {
				fail("%d %s sheds counted, want %d", n, r, o.sheds[r])
			}
		}
		if n := reg.CounterValue("legion_admission_admitted_total"); n != int64(len(o.order)) {
			fail("%d admissions counted, want %d", n, len(o.order))
		}
		orderMu.Lock()
		gotOrder := slices.Clone(order)
		orderMu.Unlock()
		if !slices.Equal(gotOrder, o.order) {
			fail("admitted %v, want %v", gotOrder, o.order)
		}
		for _, c := range calls {
			want := c.want
			if want == "released" {
				want = "admitted"
			}
			if got := c.got(); got != want {
				fail("call %d (priority %d, %s/%s) is %s, want %s", c.id, c.priority, c.domain, c.tenant, got, want)
			}
		}
		return ok
	}
	// pick returns a random call the oracle holds in state, or nil.
	pick := func(state string) *modelCall {
		var in []*modelCall
		for _, c := range calls {
			if c.want == state {
				in = append(in, c)
			}
		}
		if len(in) == 0 {
			return nil
		}
		return in[rng.Intn(len(in))]
	}

	vc.Run(func() {
		bg := context.Background()
		for i := 0; ; i++ {
			now := vc.Now()
			if i >= 150 { // drain: release until nothing runs
				c := pick("admitted")
				if c == nil {
					break
				}
				c.release()
				o.release(c, now, false)
			} else {
				switch r := rng.Intn(10); {
				case r < 5: // a call arrives
					c := &modelCall{
						id:       len(calls),
						priority: rng.Intn(3),
						domain:   []string{"uva", "nova", "vt"}[rng.Intn(3)],
						tenant:   []string{"", "astro", "bio"}[rng.Intn(3)],
						deadline: now.Add(time.Hour),
					}
					if rng.Intn(3) == 0 {
						c.deadline = now.Add(time.Duration(1+rng.Intn(6))*time.Millisecond + 500*time.Microsecond)
					}
					c.ctx = vc.WithDeadline(bg, c.deadline)
					defer vclock.End(c.ctx)
					if rng.Intn(12) == 0 {
						vclock.End(c.ctx) // its caller is gone before it arrives
					}
					calls = append(calls, c)
					o.arrive(c, now)
					vc.Go(func() {
						rel, err := a.acquire(c.ctx, "make_reservations", c.domain, c.tenant, c.priority)
						c.mu.Lock()
						c.done, c.rel, c.err = true, rel, err
						c.mu.Unlock()
						if err == nil {
							orderMu.Lock()
							order = append(order, c.id)
							orderMu.Unlock()
						}
					})
				case r < 8: // an admitted call finishes, sometimes releasing twice
					if c := pick("admitted"); c != nil {
						c.release()
						if rng.Intn(4) == 0 {
							c.release()
						}
						o.release(c, now, false)
					}
				case r < 9: // a waiter gives up
					if c := pick("queued"); c != nil {
						vclock.End(c.ctx)
						o.shed(o.leave(slices.Index(o.queue, c)), "expired")
					}
				default: // a call finishes and the waiter it hands its slot to gives up
					c := pick("admitted")
					if c == nil || len(o.queue) == 0 {
						break
					}
					h := o.queue[o.head()]
					c.release()
					vclock.End(h.ctx)
					o.release(c, now, true)
					handed++
				}
			}
			if err := vc.Sleep(bg, time.Millisecond); err != nil {
				t.Errorf("sleep: %v", err)
				return
			}
			o.expire(vc.Now())
			if !check(i) {
				return
			}
		}
		if o.running != 0 || len(o.queue) != 0 {
			t.Errorf("drained oracle holds %d running and %d queued", o.running, len(o.queue))
		}
		if n := a.met.waitTime.Count(); n != int64(len(o.order)) {
			t.Errorf("wait histogram holds %d samples, want one per admission (%d)", n, len(o.order))
		}
	})
	reached := map[string]int{"admitted": len(o.order), "handed on": handed}
	for r, n := range o.sheds {
		reached[r] = n
	}
	return reached
}

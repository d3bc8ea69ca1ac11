// Package monitor implements the execution Monitor of the Legion RMI
// (paper §3, steps 12-13, and §3.5).
//
// "After the objects are running, the execution Monitor may request a
// recomputation of the schedule, perhaps based on the progress of the
// computation and the load on the hosts in the system." Mechanically
// (§3.5): "the Monitor can register an outcall with the Host Objects;
// this outcall will be performed when a trigger's guard evaluates to
// true. ... In our actual implementation, we have no separate monitor
// objects; the Enactor or Scheduler perform the monitoring, with the
// outcall registered appropriately."
//
// This Monitor is an orb object that (a) installs guarded triggers on
// Hosts and registers itself for their outcalls, and (b) fans incoming
// events out to registered handlers — typically a Scheduler's reschedule
// routine or the rebalance subsystem's migration planner. Synchronous
// handlers (OnEvent) run on the delivering goroutine — which is the
// Host's outcall goroutine, inside the Host's RPC timeout — so anything
// that migrates, negotiates, or otherwise blocks must subscribe through
// OnEventAsync, which decouples delivery behind a bounded queue.
package monitor

import (
	"context"
	"fmt"
	"sync"
	"time"

	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// Handler receives trigger events delivered to the Monitor.
type Handler func(ev proto.NotifyArgs)

// DefaultQueueDepth bounds an async subscription's event queue when the
// subscriber passes no explicit depth.
const DefaultQueueDepth = 256

// asyncSub is one OnEventAsync subscription: a bounded queue drained by
// a dispatcher on the runtime's clock, so slow handlers shed events
// instead of stalling the Host outcall that delivered them.
type asyncSub struct {
	wake vclock.Gate  // signalled when the queue gains an event, and at stop
	runs vclock.Group // the handler call in flight, which stop waits out

	mu      sync.Mutex
	queue   []proto.NotifyArgs
	depth   int
	stopped bool
}

func (s *asyncSub) isStopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// push queues ev and reports whether there was room.
func (s *asyncSub) push(ev proto.NotifyArgs) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || len(s.queue) >= s.depth {
		return false
	}
	s.queue = append(s.queue, ev)
	return true
}

// pop takes the oldest queued event and counts its handler call in
// runs; ok is false once the queue is empty or the subscription stopped.
func (s *asyncSub) pop() (ev proto.NotifyArgs, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || len(s.queue) == 0 {
		return ev, false
	}
	ev = s.queue[0]
	s.queue[0] = proto.NotifyArgs{}
	s.queue = s.queue[1:]
	s.runs.Add(1)
	return ev, true
}

// Monitor receives Host trigger outcalls and dispatches them to handlers.
// Safe for concurrent use.
type Monitor struct {
	*orb.ServiceObject
	rt *orb.Runtime

	mu       sync.Mutex
	handlers []Handler
	asyncs   []*asyncSub

	queueDepth *telemetry.Gauge
	delivered  *telemetry.Counter
	dropped    *telemetry.Counter
}

// New creates a Monitor, registers its notify method and itself with rt.
func New(rt *orb.Runtime) *Monitor {
	reg := rt.Metrics()
	m := &Monitor{
		ServiceObject: orb.NewServiceObject(rt.Mint("Monitor")),
		rt:            rt,
		queueDepth:    reg.Gauge("legion_monitor_queue_depth"),
		delivered:     reg.Counter("legion_monitor_events_delivered_total"),
		dropped:       reg.Counter("legion_monitor_events_dropped_total"),
	}
	m.HandleTyped(proto.MethodNotify, orb.Typed(func(_ context.Context, a proto.NotifyArgs) (proto.Ack, error) {
		m.deliver(a)
		return proto.Ack{}, nil
	}))
	rt.Register(m)
	return m
}

// OnEvent registers a handler for every future event. Handlers run
// synchronously on the delivering goroutine — inside the Host's outcall
// RPC timeout — and must not block; blocking work belongs behind
// OnEventAsync.
func (m *Monitor) OnEvent(h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers = append(m.handlers, h)
}

// OnEventAsync registers a handler behind a bounded dispatch queue of
// the given depth (<= 0 uses DefaultQueueDepth). Delivery never blocks:
// when the subscriber falls behind and its queue fills, the newest event
// is dropped and counted in legion_monitor_events_dropped_total — for
// load triggers this is safe, the next reassessment re-fires. The
// returned stop function drains nothing: it detaches the subscription
// and ends its dispatcher.
//
// The dispatcher is started with the runtime clock's Go and parks on its
// Gate, so under a virtual clock the handler may sleep, call and migrate
// in virtual time like any other registered goroutine. stop follows
// vclock.Every's rule: it returns once the handler call in flight, if
// any, has ended, waiting for it on the runtime's clock; no call starts
// after it; a stop that finds none in flight never parks; and a handler
// must not call its own stop.
func (m *Monitor) OnEventAsync(depth int, h Handler) (stop func()) {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	clk := m.rt.Clock()
	sub := &asyncSub{wake: clk.NewGate(), runs: clk.NewGroup(), depth: depth}
	m.mu.Lock()
	m.asyncs = append(m.asyncs, sub)
	m.mu.Unlock()

	clk.Go(func() {
		// stop sets stopped before it signals, so the Wait after it
		// returns and the loop ends.
		for sub.wake.Wait(context.Background()) == nil && !sub.isStopped() {
			for ev, ok := sub.pop(); ok; ev, ok = sub.pop() {
				m.queueDepth.Add(-1)
				m.delivered.Inc()
				h(ev)
				sub.runs.Done()
			}
		}
	})

	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			for i, s := range m.asyncs {
				if s == sub {
					m.asyncs = append(m.asyncs[:i], m.asyncs[i+1:]...)
					break
				}
			}
			m.mu.Unlock()
			sub.mu.Lock()
			sub.stopped = true
			// Account for events still queued at detach.
			left := len(sub.queue)
			sub.queue = nil
			sub.mu.Unlock()
			m.queueDepth.Add(-int64(left))
			m.dropped.Add(int64(left))
			sub.wake.Signal()
			_ = sub.runs.Wait(context.Background())
		})
	}
}

// QueueDepth returns the number of events currently queued across all
// async subscriptions (the live value of legion_monitor_queue_depth).
func (m *Monitor) QueueDepth() int {
	return int(m.queueDepth.Value())
}

func (m *Monitor) deliver(ev proto.NotifyArgs) {
	m.mu.Lock()
	hs := append([]Handler(nil), m.handlers...)
	subs := append([]*asyncSub(nil), m.asyncs...)
	m.mu.Unlock()
	clk := m.rt.Clock()
	for _, sub := range subs {
		if !sub.push(ev) {
			m.dropped.Inc()
			continue
		}
		m.queueDepth.Add(1)
		// The wake is an event on the clock, as a Group's release is:
		// under a virtual clock each dispatcher starts its handler only
		// once the delivering goroutine has parked, one at a time, so
		// the run replays.
		clk.Go(sub.wake.Signal)
	}
	for _, h := range hs {
		h(ev)
	}
}

// Watch installs a guarded trigger on a Host and registers this Monitor
// for its outcalls — the §3.5 registration sequence. The guard is a
// query-language expression over the Host's attributes, e.g.
// "$host_load > 0.8". Watch is idempotent: re-watching the same
// (host, trigger) replaces the previous registration (the Host dedupes
// outcalls per Monitor), so a reconnecting Monitor never causes one
// event to notify it twice. A caller deadline shorter than the default
// 30 s budget is honored as-is; only deadline-free contexts get the
// default applied.
func (m *Monitor) Watch(ctx context.Context, hostL loid.LOID, trigger, guard string) error {
	cctx := ctx
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		clk := m.rt.Clock()
		cctx = clk.WithDeadline(ctx, clk.Now().Add(30*time.Second))
		defer vclock.End(cctx)
	}
	// Loopback calls dispatch without consulting the context, so an
	// already-expired caller deadline is enforced here.
	if err := cctx.Err(); err != nil {
		return fmt.Errorf("monitor: watch %v: %w", hostL, err)
	}
	if _, err := orb.Invoke[proto.Ack](cctx, m.rt, hostL, proto.MethodDefineTrigger,
		proto.DefineTriggerArgs{Name: trigger, Guard: guard}); err != nil {
		return fmt.Errorf("monitor: define trigger on %v: %w", hostL, err)
	}
	if _, err := orb.Invoke[proto.Ack](cctx, m.rt, hostL, proto.MethodRegisterOutcall,
		proto.RegisterOutcallArgs{Trigger: trigger, Monitor: m.LOID()}); err != nil {
		return fmt.Errorf("monitor: register outcall on %v: %w", hostL, err)
	}
	return nil
}

// Package rge implements the trigger/event portion of Legion's Reflective
// Graph and Event (RGE) mechanism.
//
// The paper (§2.1): "Hosts also contain a mechanism for defining event
// triggers — this allows a Host to, e.g., initiate object migration if its
// load rises above a threshold. Conceptually, triggers are guarded
// statements which raise events if the guard evaluates to a boolean true.
// These events are handled by the Reflective Graph and Event (RGE)
// mechanisms in all Legion objects." And §3.5: "the Monitor can register
// an outcall with the Host Objects; this outcall will be performed when a
// trigger's guard evaluates to true."
//
// Guards are expressions in the Collection query language evaluated over
// the owning object's attribute database, so the same vocabulary used to
// select resources ("$host_load > 0.8") also drives event generation.
// Triggers are edge-triggered: an event fires when the guard transitions
// from false to true, and the trigger re-arms when the guard next
// evaluates false. This prevents an overloaded Host from flooding its
// Monitor with one event per reassessment tick.
package rge

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/query"
	"legion/internal/vclock"
)

// Event is raised when a trigger's guard becomes true.
type Event struct {
	// Source names the object whose trigger fired.
	Source loid.LOID
	// Trigger is the name of the trigger that fired.
	Trigger string
	// Attrs is a snapshot of the source's attributes at firing time, so
	// handlers can see the state that caused the event. It is the
	// source's attr.Set version itself, shared: read it, never write it.
	Attrs []attr.Pair
	// Time is the (wall-clock) firing time.
	Time time.Time
}

// Outcall handles an Event. Outcalls run synchronously on the evaluating
// goroutine; long-running work should be handed off by the handler.
type Outcall func(Event)

// trigger is one guarded statement.
type trigger struct {
	name  string
	guard query.Expr
	armed bool // fire only on false->true transition
}

// outcall is one registered handler, optionally carrying an identity key
// so re-registration replaces instead of duplicating.
type outcall struct {
	key string // "" = anonymous, never deduplicated
	fn  Outcall
}

// TriggerSet manages the triggers and registered outcalls of one object.
// It is safe for concurrent use.
type TriggerSet struct {
	owner loid.LOID

	mu sync.Mutex
	// The maps are made on their first write: most hosts of a fleet
	// never define a trigger or take an outcall.
	triggers map[string]*trigger
	outcalls map[string][]outcall // trigger name ("" = all) -> handlers
	fired    map[string]int       // per-trigger fire counts, for tests/metrics
	clock    vclock.Clock
}

// NewTriggerSet creates an empty trigger set owned by the given object,
// stamping events from clock (nil = the wall clock).
func NewTriggerSet(owner loid.LOID, clock vclock.Clock) *TriggerSet {
	return &TriggerSet{owner: owner, clock: vclock.Default(clock)}
}

// Define installs (or replaces) a named trigger whose guard is a query-
// language expression over the owner's attributes. A replaced trigger
// starts armed.
func (ts *TriggerSet) Define(name, guardSrc string) error {
	if name == "" {
		return fmt.Errorf("rge: empty trigger name")
	}
	g, err := query.Parse(guardSrc)
	if err != nil {
		return fmt.Errorf("rge: trigger %q: %w", name, err)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.triggers == nil {
		ts.triggers = make(map[string]*trigger)
	}
	ts.triggers[name] = &trigger{name: name, guard: g, armed: true}
	return nil
}

// Triggers returns the defined trigger names, sorted.
func (ts *TriggerSet) Triggers() []string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]string, 0, len(ts.triggers))
	for n := range ts.triggers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterOutcall registers a handler for the named trigger. The empty
// name registers for every trigger. This is the call the paper's Monitor
// makes on Host objects (§3.5). Anonymous registrations always append;
// callers that may re-register (a Monitor reconnecting after a network
// blip) should use RegisterOutcallKeyed so one event never fans out N
// times to the same subscriber.
func (ts *TriggerSet) RegisterOutcall(triggerName string, oc Outcall) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.addOutcall(triggerName, outcall{fn: oc})
}

// RegisterOutcallKeyed registers a handler for the named trigger under an
// identity key (typically the subscriber's LOID). A later registration
// with the same (trigger, key) replaces the earlier handler instead of
// appending a duplicate, making repeated Watch calls idempotent.
func (ts *TriggerSet) RegisterOutcallKeyed(triggerName, key string, oc Outcall) {
	if key == "" {
		ts.RegisterOutcall(triggerName, oc)
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for i, existing := range ts.outcalls[triggerName] {
		if existing.key == key {
			ts.outcalls[triggerName][i] = outcall{key: key, fn: oc}
			return
		}
	}
	ts.addOutcall(triggerName, outcall{key: key, fn: oc})
}

// addOutcall appends oc to the named trigger's handlers. The caller
// holds ts.mu.
func (ts *TriggerSet) addOutcall(triggerName string, oc outcall) {
	if ts.outcalls == nil {
		ts.outcalls = make(map[string][]outcall)
	}
	ts.outcalls[triggerName] = append(ts.outcalls[triggerName], oc)
}

// OutcallCount returns how many handlers are registered for the named
// trigger (tests assert Watch idempotency through this).
func (ts *TriggerSet) OutcallCount(triggerName string) int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.outcalls[triggerName])
}

// FireCount returns how many times the named trigger has fired.
func (ts *TriggerSet) FireCount(name string) int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.fired[name]
}

// Evaluate runs every guard against the attribute record and performs the
// outcalls of triggers transitioning false->true. Hosts call this from
// their periodic state reassessment. It returns the events fired.
func (ts *TriggerSet) Evaluate(rec query.Record) []Event {
	ts.mu.Lock()
	type firing struct {
		ev  Event
		ocs []Outcall
	}
	var firings []firing
	names := make([]string, 0, len(ts.triggers))
	for n := range ts.triggers {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic firing order
	var snapshot []attr.Pair
	for _, n := range names {
		tr := ts.triggers[n]
		ok, err := query.Eval(tr.guard, rec)
		if err != nil {
			// A guard with a type error never fires; it stays armed so a
			// later attribute change can still activate it.
			continue
		}
		if !ok {
			tr.armed = true
			continue
		}
		if !tr.armed {
			continue // level still high; already fired
		}
		tr.armed = false
		if snapshot == nil {
			if s, isSet := rec.(*attr.Set); isSet {
				snapshot = s.Snapshot()
			}
		}
		ev := Event{Source: ts.owner, Trigger: tr.name, Attrs: snapshot, Time: ts.clock.Now()}
		if ts.fired == nil {
			ts.fired = make(map[string]int)
		}
		ts.fired[tr.name]++
		var ocs []Outcall
		for _, oc := range ts.outcalls[tr.name] {
			ocs = append(ocs, oc.fn)
		}
		for _, oc := range ts.outcalls[""] {
			ocs = append(ocs, oc.fn)
		}
		firings = append(firings, firing{ev: ev, ocs: ocs})
	}
	ts.mu.Unlock()

	events := make([]Event, 0, len(firings))
	for _, f := range firings {
		events = append(events, f.ev)
		for _, oc := range f.ocs {
			oc(f.ev)
		}
	}
	return events
}

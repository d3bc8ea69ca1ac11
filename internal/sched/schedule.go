package sched

import (
	"errors"
	"fmt"
	"time"

	"legion/internal/loid"
)

// Mapping is one schedule entry: an instance of Class should be started
// on the (Host, Vault) pair. This is the paper's
// (Class LOID -> (Host LOID x Vault LOID)) mapping type.
type Mapping struct {
	Class loid.LOID
	Host  loid.LOID
	Vault loid.LOID
}

// String renders the mapping for traces.
func (m Mapping) String() string {
	return fmt.Sprintf("%s -> (%s, %s)", m.Class.Short(), m.Host.Short(), m.Vault.Short())
}

// Replacement is one variant-schedule entry: a new mapping for master
// entry Index.
type Replacement struct {
	// Index is the position in the master schedule's mapping list that
	// this replacement substitutes.
	Index int
	// Mapping is the substitute placement.
	Mapping Mapping
}

// Variant is a variant schedule: a set of single-object replacements for
// a master schedule, plus the bitmap over master entries that lets the
// Enactor select the next applicable variant efficiently (Fig 5).
type Variant struct {
	Replacements []Replacement
	// Covers has one bit per master mapping; bit i is set iff the
	// variant provides a replacement for master entry i. Maintained by
	// AddReplacement; trust it rather than rescanning Replacements.
	Covers Bitmap
}

// AddReplacement appends a replacement and updates the bitmap.
func (v *Variant) AddReplacement(index int, m Mapping) {
	v.Replacements = append(v.Replacements, Replacement{Index: index, Mapping: m})
	v.Covers.Set(index)
}

// HostVault is one resource pair in a k-of-n equivalence class.
type HostVault struct {
	Host  loid.LOID
	Vault loid.LOID
}

// KofN is an equivalence-class request (§3.3: "We will also support
// 'k out of n' scheduling, where the Scheduler specifies an equivalence
// class of n resources and asks the Enactor to start k instances of the
// same object on them"). The Enactor reserves any K of the Alternatives
// (one instance per resource, in preference order) and fails the master
// if fewer than K are obtainable.
type KofN struct {
	Class loid.LOID
	K     int
	// Alternatives is the equivalence class, in preference order.
	Alternatives []HostVault
}

// Validate checks structural sanity of the equivalence class.
func (g *KofN) Validate() error {
	if g.Class.IsNil() {
		return errors.New("sched: k-of-n group with nil class")
	}
	if g.K < 1 {
		return fmt.Errorf("sched: k-of-n group wants k >= 1, got %d", g.K)
	}
	if g.K > len(g.Alternatives) {
		return fmt.Errorf("sched: k-of-n group wants %d of %d alternatives", g.K, len(g.Alternatives))
	}
	for i, a := range g.Alternatives {
		if a.Host.IsNil() || a.Vault.IsNil() {
			return fmt.Errorf("sched: k-of-n alternative %d has nil LOID", i)
		}
	}
	return nil
}

// Master is a master schedule: a full mapping list plus its variants,
// and optionally k-of-n equivalence-class groups.
type Master struct {
	Mappings []Mapping
	Variants []Variant
	// KofN groups are reserved after Mappings; each contributes K
	// resolved mappings to the enacted schedule.
	KofN []KofN
}

// Validate checks structural sanity: non-empty mappings with non-nil
// LOIDs, variant replacement indices in range with bitmaps that agree,
// and well-formed k-of-n groups.
func (m *Master) Validate() error {
	if len(m.Mappings) == 0 && len(m.KofN) == 0 {
		return errors.New("sched: master schedule has no mappings")
	}
	for gi := range m.KofN {
		if err := m.KofN[gi].Validate(); err != nil {
			return fmt.Errorf("group %d: %w", gi, err)
		}
	}
	for i, mp := range m.Mappings {
		if mp.Class.IsNil() || mp.Host.IsNil() || mp.Vault.IsNil() {
			return fmt.Errorf("sched: master mapping %d has nil LOID: %v", i, mp)
		}
	}
	for vi := range m.Variants {
		v := &m.Variants[vi]
		covered := NewBitmap(len(m.Mappings))
		for _, r := range v.Replacements {
			if r.Index < 0 || r.Index >= len(m.Mappings) {
				return fmt.Errorf("sched: variant %d replaces out-of-range entry %d", vi, r.Index)
			}
			if r.Mapping.Class.IsNil() || r.Mapping.Host.IsNil() || r.Mapping.Vault.IsNil() {
				return fmt.Errorf("sched: variant %d entry %d has nil LOID", vi, r.Index)
			}
			if covered.Get(r.Index) {
				return fmt.Errorf("sched: variant %d replaces entry %d twice", vi, r.Index)
			}
			covered.Set(r.Index)
		}
		if !v.Covers.Contains(covered) || !covered.Contains(v.Covers) {
			return fmt.Errorf("sched: variant %d bitmap %v disagrees with replacements %v",
				vi, v.Covers, covered)
		}
	}
	return nil
}

// NextVariant returns the index of the first variant at or after `from`
// whose coverage intersects the failed-entry bitmap — the Enactor's
// efficient variant-selection step. It returns -1 if none qualifies.
func (m *Master) NextVariant(from int, failed Bitmap) int {
	for i := from; i < len(m.Variants); i++ {
		if m.Variants[i].Covers.Intersects(failed) {
			return i
		}
	}
	return -1
}

// ReservationSpec carries the reservation parameters the Enactor presents
// to Hosts for every mapping of a request: the Table 2 type bits plus the
// start/duration/timeout of §3.1 ("One can thus reserve an hour of CPU
// time starting at noon tomorrow").
type ReservationSpec struct {
	Share    bool
	Reuse    bool
	Start    time.Time
	Duration time.Duration
	Timeout  time.Duration
	// Priority is the request's priority class (higher = more
	// important; 0 is the default). The Enactor's admission controller
	// orders its wait-queue by it and sheds low classes first; Hosts may
	// refuse low classes above an occupancy watermark.
	Priority int
	// Tenant names the paying account for the computational-economy
	// layer (DESIGN.md §15). Empty means no account: the Enactor's
	// ledger, if any, bills an implicit unlimited account, and admission
	// applies no per-tenant fair share.
	Tenant string
	// Deadline is the requested completion bound relative to schedule
	// time (Nimrod/G's deadline knob); zero means none. The
	// DeadlineBudget scheduler only assigns hosts whose estimated
	// completion fits it.
	Deadline time.Duration
	// Budget caps this request's total spend in economy credit units
	// (host price × hours, see economy.Credits); zero means unlimited.
	// The DeadlineBudget scheduler minimizes cost under it, and the
	// Enactor's ledger refuses charges past the tenant's balance.
	Budget float64
}

// RequestList is the paper's LegionScheduleRequestList: the entire
// Figure 5 structure, a list of master schedules in preference order.
type RequestList struct {
	// ID correlates MakeReservations / EnactSchedule / CancelReservations
	// calls on the Enactor for the same scheduling episode.
	ID uint64
	// Masters are tried in order until one (with its variants) succeeds.
	Masters []Master
	// Res is the reservation specification applied to every mapping; a
	// zero Duration gets the Enactor's default.
	Res ReservationSpec
}

// Validate checks every master schedule.
func (r *RequestList) Validate() error {
	if len(r.Masters) == 0 {
		return errors.New("sched: request list has no master schedules")
	}
	for i := range r.Masters {
		if err := r.Masters[i].Validate(); err != nil {
			return fmt.Errorf("master %d: %w", i, err)
		}
	}
	return nil
}

// FailureReason classifies why reservation-making failed, per §3.4: "If
// all schedules failed, the Enactor may report whether the failure was
// due to an inability to obtain resources, a malformed schedule, or other
// failure."
type FailureReason int

// Failure classifications.
const (
	FailureNone FailureReason = iota
	FailureResources
	FailureMalformed
	FailureOther
)

// String names the reason.
func (f FailureReason) String() string {
	switch f {
	case FailureNone:
		return "none"
	case FailureResources:
		return "unable to obtain resources"
	case FailureMalformed:
		return "malformed schedule"
	default:
		return "other failure"
	}
}

// Feedback is the paper's LegionScheduleFeedback: the original request
// plus whether the reservations were successfully made, and if so which
// schedule succeeded.
type Feedback struct {
	// Request is the original request list.
	Request RequestList
	// Success reports whether some master (possibly with variants)
	// was fully reserved.
	Success bool
	// MasterIndex is the index of the winning master schedule; -1 on
	// failure.
	MasterIndex int
	// Resolved is the winning mapping list after variant substitution;
	// nil on failure.
	Resolved []Mapping
	// VariantsApplied lists the variant indices that were applied to the
	// winning master, in application order.
	VariantsApplied []int
	// Reason classifies a failure.
	Reason FailureReason
	// Detail is a human-readable elaboration of Reason.
	Detail string
	// Stats records the negotiation effort, used by schedulers that
	// adapt and by the benchmark harness.
	Stats EnactmentStats
}

// EnactmentStats counts the Enactor's negotiation work for one episode.
// ReservationsCancelled in particular measures the reservation thrashing
// the variant-schedule design exists to avoid.
type EnactmentStats struct {
	ReservationsRequested int
	ReservationsGranted   int
	ReservationsCancelled int
	VariantsTried         int
	MastersTried          int
}

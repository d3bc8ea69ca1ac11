package scheduler

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"legion/internal/loid"
	"legion/internal/sched"
)

// This file is the placement core every generator is written over:
// candidates → order → fill. A generator supplies an ordering and a pick
// rule; everything else lives here once.

// candidates is the Fig 7 prologue shared by every generator: query the
// class for its implementations, query the Collection (through
// Env.Cache when set) for matching Hosts, and keep the usable ones. An
// empty result is ErrNoResources — the only place that is decided.
//
// The returned slice is a read-only view: with a cache it is the
// snapshot every placement in the TTL window shares. Generators that
// only index into it (Random, IRS, RoundRobin) use it as is; anything
// that reorders takes ordered(view, …), which never touches the view.
func candidates(ctx context.Context, env *Env, class loid.LOID) ([]HostInfo, error) {
	impls, err := queryClassImpls(ctx, env, class)
	if err != nil {
		return nil, err
	}
	snap, err := hostSnapshot(ctx, env, implQuery(impls))
	if err != nil {
		return nil, err
	}
	view := snap.usable
	if env.Cache == nil {
		view = usable(snap.hosts) // nobody has filtered an uncached fetch yet
	}
	if len(view) == 0 {
		return nil, fmt.Errorf("%w: class %v", ErrNoResources, class)
	}
	return view, nil
}

// usable filters hosts that have at least one compatible vault — a host
// with no vault cannot run anything (objects need OPR storage) — and are
// not flagged down by the failure detector. When that is every host it
// returns its input, otherwise a copy allocated once; neither is ever
// reordered, views being read-only.
func usable(hosts []HostInfo) []HostInfo {
	ok := func(h *HostInfo) bool { return len(h.Vaults) > 0 && !h.Down }
	n := 0
	for i := range hosts {
		if ok(&hosts[i]) {
			n++
		}
	}
	if n == len(hosts) {
		return hosts
	}
	out := make([]HostInfo, 0, n)
	for i := range hosts {
		if ok(&hosts[i]) {
			out = append(out, hosts[i])
		}
	}
	return out
}

// cand is one entry of an owned, reorderable candidate list. It points
// into the read-only view, so sorting and shuffling move 16-byte entries
// and the view itself cannot be disturbed by construction.
type cand struct {
	*HostInfo
	// placed counts the instances the schedule under construction has
	// already put on this host, for orderings that project their own load.
	placed int
}

// ordering ranks two candidates: negative when a goes first, zero on a
// tie. Orderings never mention LOIDs — total appends that tiebreak.
type ordering func(a, b cand) int

// owned copies a view into a list the caller may reorder.
func owned(view []HostInfo) []cand {
	c := make([]cand, len(view))
	for i := range view {
		c[i].HostInfo = &view[i]
	}
	return c
}

// total is the comparator order and best share: the ordering, ties by
// LOID. Every ordering is thereby total, so what either returns depends
// on the candidate set alone, never on its incoming order or on the
// algorithm — which is what lets best stand in for order.
func (by ordering) total(a, b cand) int {
	if d := by(a, b); d != 0 {
		return d
	}
	switch {
	case a.LOID.Less(b.LOID):
		return -1
	case b.LOID.Less(a.LOID):
		return 1
	}
	return 0
}

// order sorts an owned list by the ordering's total order.
func order(c []cand, by ordering) {
	slices.SortFunc(c, by.total)
}

// best moves the first k candidates of order(c, by) to c[:k], sorted,
// and returns them; c stays a permutation of itself. It is for the
// generators that read the head of the ranking and nothing else: one
// pass keeps the k best so far sorted at the front of c and inserts each
// later candidate that beats the last of them. That is at most len(c)·k
// comparisons where the sort makes about len(c)·log₂ len(c), so past
// that logarithm it sorts.
func best(c []cand, by ordering, k int) []cand {
	k = min(k, len(c))
	if k <= 0 {
		return c[:0]
	}
	if k > bits.Len(uint(len(c))) {
		order(c, by)
		return c[:k]
	}
	for i := range c {
		n := min(i, k) // c[:n] is the sorted buffer
		if n == k {
			if by.total(c[i], c[k-1]) >= 0 {
				continue
			}
			c[i], c[k-1] = c[k-1], c[i] // the evicted entry takes the newcomer's place
			n--
		}
		for j := n; j > 0 && by.total(c[j], c[j-1]) < 0; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c[:k]
}

// ordered is owned + order.
func ordered(view []HostInfo, by ordering) []cand {
	c := owned(view)
	order(c, by)
	return c
}

// The orderings the shipped generators rank by.
func byLoad(a, b cand) int  { return cmp.Compare(a.Load, b.Load) }
func byPrice(a, b cand) int { return cmp.Compare(a.Price, b.Price) }
func byCostThenLoad(a, b cand) int {
	return cmp.Or(cmp.Compare(a.Cost, b.Cost), cmp.Compare(a.Load, b.Load))
}
func byProjectedLoad(a, b cand) int { return cmp.Compare(a.projectedLoad(), b.projectedLoad()) }
func byFreeCapacity(a, b cand) int  { return cmp.Compare(b.freeCapacity(), a.freeCapacity()) }

// projectedLoad is the advertised load plus what this schedule's own
// placements add (instances/CPUs).
func (c cand) projectedLoad() float64 {
	return c.Load + float64(c.placed)/float64(max(c.CPUs, 1))
}

// freeCapacity estimates a host's remaining compute: CPUs scaled by idle
// fraction, floored so even saturated hosts can take a sliver.
func (h *HostInfo) freeCapacity() float64 {
	return float64(max(h.CPUs, 1)) * max(1-h.Load, 0.05)
}

// hostVault names the host's v-th vault as a placement target.
func (h *HostInfo) hostVault(v int) sched.HostVault {
	return sched.HostVault{Host: h.LOID, Vault: h.Vaults[v]}
}

// mapping places one instance of class on the host's v-th vault;
// deterministic generators pass 0.
func (h *HostInfo) mapping(class loid.LOID, v int) sched.Mapping {
	hv := h.hostVault(v)
	return sched.Mapping{Class: class, Host: hv.Host, Vault: hv.Vault}
}

// randomMapping is the Fig 7 pick rule: a Host at random, then one of
// its Vaults at random — two draws per mapping, in that order.
func randomMapping(r *rand.Rand, class loid.LOID, view []HostInfo) sched.Mapping {
	h := &view[r.Intn(len(view))]
	return h.mapping(class, r.Intn(len(h.Vaults)))
}

// addVariants records alts as the fallbacks for master entry idx:
// alts[v] becomes entry idx's replacement in variant schedule v.
func addVariants(m *sched.Master, idx int, class loid.LOID, alts []cand) {
	for v, alt := range alts {
		if len(m.Variants) <= v {
			m.Variants = append(m.Variants, sched.Variant{})
		}
		m.Variants[v].AddReplacement(idx, alt.mapping(class, 0))
	}
}

// upTo returns at most k candidates from c, starting at from.
func upTo(c []cand, from, k int) []cand {
	return c[from:min(from+k, len(c))]
}

// schedule wraps one master schedule as the request's RequestList.
func schedule(m sched.Master, req Request) sched.RequestList {
	return sched.RequestList{Masters: []sched.Master{m}, Res: req.Res}
}

// Package scheduler implements Legion Schedulers (paper §3.3, §4).
//
// "The Scheduler computes the mapping of objects to resources. At a
// minimum, the Scheduler knows how many instances of each class must be
// started. ... The Scheduler obtains resource description information by
// querying the Collection, and then computes a mapping of object
// instances to resources. This mapping is passed on to the Enactor for
// implementation."
//
// The paper is explicit that Legion provides enabling technology, not
// scheduling research: "Legion provides simple, generic default
// Schedulers that offer the classic '90%' solution". So the package is
// one small mechanism (place.go) and ten policies that are a few lines
// each over it.
//
// The mechanism does what every policy needs and none should repeat:
//
//   - candidates: query the class for implementations and the
//     Collection for matching Hosts (both through Env.Cache), drop hosts
//     that are down or reach no vault, raise ErrNoResources when nothing
//     is left. The result is a read-only view, shared under a cache.
//   - order: sort an owned copy of the view by an ordering, LOID
//     tiebreak appended, so every ranking is total and deterministic;
//     best: the first k of that same order without sorting the rest, for
//     the policies that read only the head.
//   - fill: turn a host into a sched.Mapping or sched.HostVault, record
//     the next k alternatives as variant schedules, wrap the master.
//
// A generator supplies an ordering and a pick rule:
//
//	Random          no ordering      uniform host, uniform vault (Fig 7)
//	IRS             no ordering      n Random picks per instance → master + variants (Fig 8)
//	RoundRobin      LOID order       next host, position kept across calls
//	LoadAware       projected load   best 1+k, re-ranked per instance: the head, next k as variants
//	CostAware       cost, then load  cycle the best Count
//	Replicated      load             best N as a k-of-n equivalence class
//	DeadlineBudget  price            cheapest deadline-feasible first; next k feasible as variants
//	Stencil         free capacity    contiguous row bands apportioned by capacity (§4.3)
//	CommAware       free capacity    Stencil's bands walked along a latency chain of zones
//	ParamSpace      load + slots     first host to grant a reusable reservation
//
// plus the Wrapper retry protocol of Figure 9 that drives any Generator
// through the Enactor.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/vclock"
)

// Errors returned by schedulers.
var (
	// ErrNoResources reports that the Collection offered no viable hosts.
	ErrNoResources = errors.New("scheduler: no matching resources in Collection")
	// ErrExhausted reports that the Wrapper ran out of retry budget.
	ErrExhausted = errors.New("scheduler: try limits exhausted")
)

// ClassRequest asks for Count instances of Class.
type ClassRequest struct {
	Class loid.LOID
	Count int
}

// Request is a placement problem: how many instances of which classes,
// under what reservation terms.
type Request struct {
	Classes []ClassRequest
	Res     sched.ReservationSpec
}

// Generator computes schedules: the Scheduler role of Figure 3, step 4.
// Generators are driven by the Wrapper (or called directly) and must be
// safe for concurrent use.
type Generator interface {
	// Name identifies the policy in experiment reports.
	Name() string
	// Generate computes a RequestList (without an ID; the Wrapper
	// assigns one per negotiation attempt).
	Generate(ctx context.Context, env *Env, req Request) (sched.RequestList, error)
}

// Env gives schedulers access to the infrastructure: the runtime for
// method calls, and the Collection to query. This mirrors layering (d) of
// Figure 2 — the Scheduler is its own module talking to RM services.
type Env struct {
	RT         *orb.Runtime
	Collection loid.LOID
	// Rand drives randomized policies; a nil Rand panics in those
	// policies (determinism must be an explicit choice).
	Rand *rand.Rand
	// Retry shapes transport-fault retries for scheduler-side calls
	// (Collection queries, class queries, Enactor negotiation); the zero
	// value uses resilient defaults.
	Retry resilient.Policy
	// Breakers, when non-nil, pools per-endpoint circuit state — core
	// shares one set across the Wrapper, queries, and episodes so a dead
	// Collection or Enactor fails fast. Nil disables breakers.
	Breakers *resilient.BreakerSet
	// Cache, when non-nil, memoizes Collection query results and each
	// class's implementation query (see HostCache). Scale drivers set
	// it; interactive paths usually leave it nil and pay both queries
	// for freshness.
	Cache *HostCache
}

// queryTimeout bounds Collection and class queries.
const queryTimeout = 30 * time.Second

// invoke makes one scheduler-side metasystem call through the Env's
// retry policy and shared breakers.
func invoke[R, A any](ctx context.Context, e *Env, target loid.LOID, method string, arg A) (R, error) {
	return resilient.Invoke[R](ctx, resilient.NewCaller(e.RT, e.Retry, e.Breakers), e.Retry, target, method, arg)
}

// HostInfo is a scheduler's parsed view of one Collection host record.
type HostInfo struct {
	LOID loid.LOID
	Load float64
	CPUs int
	Zone string
	Cost float64
	// Price is the economy layer's advertised charge per instance-hour
	// ($host_price). The DeadlineBudget generator trades Price against
	// estimated completion time.
	Price float64
	// Speed is the host's relative benchmark speed ($host_speed,
	// 1.0 = baseline); deadline-aware schedulers scale completion
	// estimates by it.
	Speed  float64
	Vaults []loid.LOID
	// Down is true when the record is flagged unreachable
	// (host_alive == false, set by the Collection daemon's failure
	// detector); schedulers skip such hosts.
	Down bool
	// LoadHistory is the rolling window of recent host_load samples the
	// Collection daemon publishes as $host_load_history (oldest first);
	// empty when the record carries none. Forecast-driven policies feed
	// it to an nws.Predictor instead of trusting the instantaneous Load.
	LoadHistory []float64
}

// classQuery returns the Collection query for the hosts able to run
// class (Fig 7: "query the class for available implementations"):
// through Env.Cache when there is one — its live entry, or a
// get_implementations shared with every caller that misses meanwhile —
// otherwise a get_implementations of its own.
func classQuery(ctx context.Context, env *Env, class loid.LOID) (string, error) {
	fetch := func() (string, error) {
		clk := env.RT.Clock()
		cctx := clk.WithDeadline(ctx, clk.Now().Add(queryTimeout))
		defer vclock.End(cctx)
		reply, err := invoke[proto.ImplementationsReply, any](cctx, env, class, proto.MethodGetImplementations, nil)
		if err != nil {
			return "", fmt.Errorf("scheduler: get_implementations on %v: %w", class, err)
		}
		return implQuery(reply.Impls), nil
	}
	if env.Cache == nil {
		return fetch()
	}
	return env.Cache.classes.lookup(ctx, env.Cache, class, fetch)
}

// implQuery builds the Collection query matching hosts able to run any of
// the implementations (Fig 7: "query Collection for Hosts matching
// available implementations"). A class with no implementations matches
// any host that reports an architecture.
func implQuery(impls []proto.Implementation) string {
	if len(impls) == 0 {
		return `defined($host_arch)`
	}
	terms := make([]string, len(impls))
	for i, im := range impls {
		var sub []string
		if im.Arch != "" {
			sub = append(sub, fmt.Sprintf(`$host_arch == %q`, im.Arch))
		}
		if im.OS != "" {
			sub = append(sub, fmt.Sprintf(`$host_os_name == %q`, im.OS))
		}
		if im.MemoryMB > 0 {
			sub = append(sub, fmt.Sprintf(`$host_mem_available_mb >= %d`, im.MemoryMB))
		}
		if len(sub) == 0 {
			sub = []string{`defined($host_arch)`}
		}
		terms[i] = "(" + strings.Join(sub, " and ") + ")"
	}
	return strings.Join(terms, " or ")
}

// QueryHosts runs an arbitrary query against the Collection and parses
// host records from the result. When the Collection is a federation
// Router, the result may silently be partial; schedulers that should
// react to degraded directories use QueryHostsPartial instead.
func QueryHosts(ctx context.Context, env *Env, querySrc string) ([]HostInfo, error) {
	hosts, _, err := QueryHostsPartial(ctx, env, querySrc)
	return hosts, err
}

// QueryHostsPartial is QueryHosts surfacing the federation layer's
// partial-result marker: skipped is how many Collection shards
// contributed nothing (timed out, unreachable, breaker-open) — always
// zero when env.Collection is a plain single Collection. A scheduler
// seeing skipped > 0 knows the host list under-represents the
// metasystem and can widen its schedule or retry later.
func QueryHostsPartial(ctx context.Context, env *Env, querySrc string) (hosts []HostInfo, skipped int, err error) {
	snap, err := hostSnapshot(ctx, env, querySrc)
	return snap.hosts, snap.skipped, err
}

// hostSnapshot answers a Collection query with parsed host records in
// LOID order: through Env.Cache when there is one — its live entry, or a
// fetch shared with every caller that misses meanwhile — otherwise a
// fetch of its own. This is the single lookup per class that IRS
// amortizes.
func hostSnapshot(ctx context.Context, env *Env, querySrc string) (hostCacheEntry, error) {
	if env.Cache == nil {
		hosts, skipped, err := fetchHosts(ctx, env, querySrc)
		return hostCacheEntry{hosts: hosts, skipped: skipped}, err
	}
	return env.Cache.hosts.lookup(ctx, env.Cache, querySrc, func() (hostCacheEntry, error) {
		hosts, skipped, err := fetchHosts(ctx, env, querySrc)
		return hostCacheEntry{hosts: hosts, usable: usable(hosts), skipped: skipped}, err
	})
}

// queryCollection makes one Collection query under queryTimeout.
func queryCollection(ctx context.Context, env *Env, querySrc string) (proto.QueryReply, error) {
	clk := env.RT.Clock()
	cctx := clk.WithDeadline(ctx, clk.Now().Add(queryTimeout))
	defer vclock.End(cctx)
	reply, err := invoke[proto.QueryReply](cctx, env, env.Collection,
		proto.MethodQueryCollection, proto.QueryArgs{Query: querySrc})
	if err != nil {
		return proto.QueryReply{}, fmt.Errorf("scheduler: collection query: %w", err)
	}
	return reply, nil
}

// fetchHosts queries the Collection and parses every matching record.
func fetchHosts(ctx context.Context, env *Env, querySrc string) (hosts []HostInfo, skipped int, err error) {
	reply, err := queryCollection(ctx, env, querySrc)
	if err != nil {
		return nil, 0, err
	}
	hosts = make([]HostInfo, 0, len(reply.Records))
	for _, rec := range reply.Records {
		hosts = append(hosts, parseHostInfo(rec))
	}
	// Deterministic base order; randomized policies draw explicitly.
	slices.SortFunc(hosts, func(a, b HostInfo) int {
		switch {
		case a.LOID.Less(b.LOID):
			return -1
		case b.LOID.Less(a.LOID):
			return 1
		}
		return 0
	})
	return hosts, reply.SkippedShards, nil
}

// parseHostInfo converts a Collection record into a HostInfo in one pass
// over its attributes. The record may come off the wire from a skewed
// peer, so nothing is assumed about order or uniqueness: every pair of a
// name the scheduler reads assigns its field outright, and the last one
// therefore wins.
func parseHostInfo(rec proto.CollectionRecord) HostInfo {
	h := HostInfo{LOID: rec.Member}
	for _, p := range rec.Attrs {
		v := p.Value
		switch p.Name {
		case "host_load":
			h.Load, _ = v.AsFloat()
		case "host_cpus":
			f, _ := v.AsFloat()
			h.CPUs = int(f)
		case "host_zone":
			h.Zone = v.Str()
		case "host_cost_per_cpu":
			h.Cost, _ = v.AsFloat()
		case "host_price":
			h.Price, _ = v.AsFloat()
		case "host_speed":
			h.Speed, _ = v.AsFloat()
		case "host_alive":
			h.Down = !v.BoolVal()
		case "host_load_history":
			h.LoadHistory = listOf(v, attr.Value.AsFloat)
		case "host_vaults":
			h.Vaults = listOf(v, func(e attr.Value) (loid.LOID, bool) {
				l, err := loid.Parse(e.Str())
				return l, err == nil
			})
		}
	}
	return h
}

// listOf converts the elements of a list value that elem accepts, into a
// slice allocated once. It is nil when v is not a list or nothing in it
// converts.
func listOf[T any](v attr.Value, elem func(attr.Value) (T, bool)) []T {
	if v.Kind() != attr.KindList {
		return nil
	}
	var out []T
	for i := 0; i < v.Len(); i++ {
		if e, ok := elem(v.At(i)); ok {
			if out == nil {
				out = make([]T, 0, v.Len()-i)
			}
			out = append(out, e)
		}
	}
	return out
}

// Hierarchical Collections (paper §4): "Collection data may be pulled
// or pushed", and Collections "can be organized so that each covers a
// subset of the metasystem's resources". The Router is that
// organization: a MetaCollection fronting N per-domain Collection
// shards. It speaks the same Figure 4 interface as a Collection, so
// Schedulers, the Data Collection Daemon, and Hosts talk to it without
// knowing the directory is partitioned:
//
//   - Queries scatter to every shard concurrently, each under its own
//     deadline, and the partial results are merged. A shard that times
//     out, refuses, or is breaker-open contributes zero records and a
//     legion_collection_shard_skips increment instead of failing the
//     whole query — callers see the surviving subset plus a skipped
//     count (proto.QueryReply.SkippedShards) and decide for themselves
//     whether partial data is acceptable.
//   - Mutations (Join/Leave/Update and coalesced batches) route to the
//     member's owning shard, by default a hash of the member LOID;
//     RouteByDomain pins whole administrative domains to shards, the
//     per-site organization the paper sketches.
package collection

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"legion/internal/attr"
	"legion/internal/fanout"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/query"
	"legion/internal/resilient"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// ErrNoShards reports a Router built over zero shards.
var ErrNoShards = errors.New("collection: router has no shards")

// ErrAllShardsFailed reports a routed query in which no shard answered.
var ErrAllShardsFailed = errors.New("collection: every shard failed")

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Shards are the Collection (or nested Router) LOIDs, in index
	// order. Route values are reduced modulo len(Shards).
	Shards []loid.LOID
	// ShardTimeout bounds each shard's portion of a scattered query or
	// forwarded mutation; zero means 2 seconds. The caller's context
	// deadline still applies on top.
	ShardTimeout time.Duration
	// Parallelism bounds the scatter fan-out; zero means 8, 1 walks the
	// shards serially.
	Parallelism int
	// Route maps a member to a shard index (reduced modulo the shard
	// count). Nil hashes the member's full LOID; use RouteByDomain to
	// pin administrative domains to shards.
	Route func(member loid.LOID) int
	// Retry shapes transport-fault retries for shard calls; the zero
	// value uses resilient defaults on the runtime's clock.
	Retry resilient.Policy
	// Breakers is the per-shard circuit-breaker pool. Share one (e.g. the
	// Metasystem's domain-wide set) so a shard that fails scheduler
	// queries also fails fast here; nil means a private set with
	// resilient defaults on the runtime's clock.
	Breakers *resilient.BreakerSet
}

// Router is a MetaCollection: it implements the Collection's Figure 4
// orb interface over a set of shards. Safe for concurrent use.
type Router struct {
	*orb.ServiceObject

	rt    *orb.Runtime
	cfg   RouterConfig
	call  *resilient.Caller
	cache *query.ParseCache

	met routerMetrics
}

type routerMetrics struct {
	queries    *telemetry.Counter
	partials   *telemetry.Counter
	shardSkips *telemetry.Counter
	queryTime  *telemetry.Histogram
}

// RouteByDomain returns a routing function that sends every member of
// one administrative domain to the same shard — the paper's per-site
// Collection organization. Members of domains absent from assign fall
// back to a hash of the domain name, so an unlisted site still lands
// deterministically on one shard.
func RouteByDomain(assign map[string]int) func(loid.LOID) int {
	return func(member loid.LOID) int {
		if idx, ok := assign[member.Domain]; ok {
			return idx
		}
		h := fnv.New32a()
		h.Write([]byte(member.Domain))
		return int(h.Sum32())
	}
}

// hashLOID is the default route: FNV over the canonical LOID text.
func hashLOID(member loid.LOID) int {
	h := fnv.New32a()
	h.Write([]byte(member.String()))
	return int(h.Sum32())
}

// NewRouter creates a Router over cfg.Shards, registers its orb methods
// and itself with rt. It panics on an empty shard list — a Router with
// nothing behind it is a configuration bug, not a runtime condition.
func NewRouter(rt *orb.Runtime, cfg RouterConfig) *Router {
	if len(cfg.Shards) == 0 {
		panic(ErrNoShards)
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 2 * time.Second
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 8
	}
	if cfg.Route == nil {
		cfg.Route = hashLOID
	}
	if cfg.Retry.Clock == nil {
		cfg.Retry.Clock = rt.Clock()
	}
	if cfg.Breakers == nil {
		cfg.Breakers = resilient.NewBreakerSet(resilient.BreakerConfig{}, rt.Clock())
	}
	reg := rt.Metrics()
	r := &Router{
		ServiceObject: orb.NewServiceObject(rt.Mint("MetaCollection")),
		rt:            rt,
		cfg:           cfg,
		call:          resilient.NewCaller(rt, cfg.Retry, cfg.Breakers),
		cache:         query.NewParseCache(0),
		met: routerMetrics{
			queries:    reg.Counter("legion_collection_router_queries_total"),
			partials:   reg.Counter("legion_collection_router_partial_total"),
			shardSkips: reg.Counter("legion_collection_shard_skips"),
			queryTime:  reg.Histogram("legion_collection_router_query_seconds", telemetry.LatencyBuckets),
		},
	}
	r.installMethods()
	rt.Register(r)
	return r
}

// Shards returns the shard LOIDs in index order.
func (r *Router) Shards() []loid.LOID {
	return append([]loid.LOID(nil), r.cfg.Shards...)
}

// ShardFor returns the shard owning a member's record.
func (r *Router) ShardFor(member loid.LOID) loid.LOID {
	return r.cfg.Shards[r.shardIndex(member)]
}

func (r *Router) shardIndex(member loid.LOID) int {
	i := r.cfg.Route(member) % len(r.cfg.Shards)
	if i < 0 {
		i += len(r.cfg.Shards)
	}
	return i
}

// shardCall forwards one call to a shard under the per-shard deadline.
func (r *Router) shardCall(ctx context.Context, shard loid.LOID, method string, arg any) (any, error) {
	clk := r.rt.Clock()
	cctx := clk.WithDeadline(ctx, clk.Now().Add(r.cfg.ShardTimeout))
	defer vclock.End(cctx)
	return r.call.Call(cctx, shard, method, arg)
}

// Join routes a member's registration, with a copy of attrs, to its
// owning shard.
func (r *Router) Join(ctx context.Context, member loid.LOID, attrs []attr.Pair, credential string) error {
	return r.forward(ctx, member, proto.MethodJoinCollection,
		proto.JoinArgs{Joiner: member, Attrs: clonePairs(attrs), Credential: credential})
}

// Leave routes a member's removal to its owning shard.
func (r *Router) Leave(ctx context.Context, member loid.LOID, credential string) error {
	return r.forward(ctx, member, proto.MethodLeaveCollection,
		proto.LeaveArgs{Leaver: member, Credential: credential})
}

// Update routes a member's description push, with a copy of attrs, to
// its owning shard.
func (r *Router) Update(ctx context.Context, member loid.LOID, attrs []attr.Pair, credential string) error {
	return r.forward(ctx, member, proto.MethodUpdateCollectionEntry,
		proto.UpdateArgs{Member: member, Attrs: clonePairs(attrs), Credential: credential})
}

// ApplyBatch splits a coalesced update batch per owning shard —
// preserving each member's entry order — and forwards the sub-batches
// concurrently, started in shard order. It returns the summed reply and
// the first shard error; a failed shard's entries count as dropped. The
// orb handler answers any shard error with an error, so a remote caller
// such as the daemon resends the whole batch: its entries are upserts.
// Each shard gets a copy of each entry's attributes.
func (r *Router) ApplyBatch(ctx context.Context, entries []proto.BatchEntry, credential string) (proto.BatchUpdateReply, error) {
	return r.applyBatch(ctx, entries, credential, true)
}

// clonePairs copies attrs into a slice of exactly their length. The
// public mutations pass shards such copies: an in-process Collection
// shard adopts the slice it is handed (Collection.installMethods), and
// the caller may write its own afterwards. The Router's ORB handlers own
// their argument already and forward it as it is.
func clonePairs(attrs []attr.Pair) []attr.Pair {
	return append(make([]attr.Pair, 0, len(attrs)), attrs...)
}

// forward sends one member's mutation, its argument as it is, to the
// member's owning shard. A nil member has none.
func (r *Router) forward(ctx context.Context, member loid.LOID, method string, arg any) error {
	if member.IsNil() {
		return errors.New("collection: nil member LOID")
	}
	_, err := r.shardCall(ctx, r.ShardFor(member), method, arg)
	return err
}

// applyBatch is ApplyBatch; with clone unset each sub-batch carries the
// entries' attributes as they are.
func (r *Router) applyBatch(ctx context.Context, entries []proto.BatchEntry, credential string, clone bool) (proto.BatchUpdateReply, error) {
	perShard := make(map[int][]proto.BatchEntry)
	for _, e := range entries {
		if clone {
			e.Attrs = clonePairs(e.Attrs)
		}
		i := r.shardIndex(e.Member)
		perShard[i] = append(perShard[i], e)
	}
	idxs := make([]int, 0, len(perShard))
	for i := range perShard {
		idxs = append(idxs, i)
	}
	slices.Sort(idxs) // map order would vary the call order run to run
	replies := make([]proto.BatchUpdateReply, len(idxs))
	errs := make([]error, len(idxs))
	fanout.Do(r.rt.Clock(), r.cfg.Parallelism, len(idxs), func(k int) {
		sub := perShard[idxs[k]]
		rep, err := orb.As[proto.BatchUpdateReply](r.shardCall(ctx, r.cfg.Shards[idxs[k]], proto.MethodUpdateCollectionBatch,
			proto.BatchUpdateArgs{Entries: sub, Credential: credential}))
		if err != nil {
			errs[k] = err
			rep = proto.BatchUpdateReply{Dropped: len(sub)}
		}
		replies[k] = rep
	})
	var out proto.BatchUpdateReply
	var firstErr error
	for k := range replies {
		out.Applied += replies[k].Applied
		out.Dropped += replies[k].Dropped
		if errs[k] != nil && firstErr == nil {
			firstErr = errs[k]
		}
	}
	return out, firstErr
}

// Query is QueryCtx with a background context.
func (r *Router) Query(src string) ([]Record, error) {
	recs, _, err := r.QueryPartial(context.Background(), src)
	return recs, err
}

// QueryCtx scatters the query and merges the shard results, dropping
// the skipped-shard count for callers that only want records.
func (r *Router) QueryCtx(ctx context.Context, src string) ([]Record, error) {
	recs, _, err := r.QueryPartial(ctx, src)
	return recs, err
}

// QueryPartial scatters a query-language expression to every shard
// concurrently, each under the per-shard deadline, and merges the
// results sorted by member LOID. skipped counts shards that contributed
// nothing — unreachable, timed out, or breaker-open. The call fails
// only when the query does not parse or every shard failed; anything
// less degrades to a partial result the caller can inspect.
func (r *Router) QueryPartial(ctx context.Context, src string) (recs []Record, skipped int, err error) {
	clk := r.rt.Clock()
	start := clk.Now()
	r.met.queries.Inc()
	defer func() { r.met.queryTime.Observe(clk.Since(start).Seconds()) }()
	// Reject malformed queries locally: a parse error is the caller's
	// bug, not a shard failure, and must not be mistaken for one.
	if _, _, perr := r.cache.Parse(src); perr != nil {
		return nil, 0, perr
	}
	n := len(r.cfg.Shards)
	replies := make([][]proto.CollectionRecord, n)
	subSkips := make([]int, n)
	errs := make([]error, n)
	fanout.Do(r.rt.Clock(), r.cfg.Parallelism, n, func(i int) {
		reply, cerr := orb.As[proto.QueryReply](r.shardCall(ctx, r.cfg.Shards[i], proto.MethodQueryCollection,
			proto.QueryArgs{Query: src}))
		if cerr != nil {
			errs[i] = cerr
			return
		}
		replies[i] = reply.Records
		subSkips[i] = reply.SkippedShards // nested Routers propagate up
	})
	var firstErr error
	total := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			skipped++
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		skipped += subSkips[i]
		total += len(replies[i])
	}
	if skipped > 0 {
		r.met.shardSkips.Add(int64(skipped))
		r.met.partials.Inc()
	}
	if firstErr != nil && total == 0 && skipped >= n {
		return nil, skipped, fmt.Errorf("%w: %v", ErrAllShardsFailed, firstErr)
	}
	return mergeSorted(replies, total), skipped, nil
}

// mergeSorted k-way merges the per-shard replies — each already sorted
// by member, as Collection.QueryCtx guarantees — into one sorted result.
// Shards own disjoint member sets under any single routing function, but
// a member double-registered by an out-of-band Join must not appear
// twice; the lowest shard index wins. Merging the sorted runs directly
// (instead of a dedupe map plus a full re-sort) is what keeps the
// federated query's per-record cost at parity with a single Collection.
func mergeSorted(replies [][]proto.CollectionRecord, total int) []Record {
	// Zero-copy when at most one shard answered with records: each reply
	// slice is freshly built per query (by QueryCtx or decoded off the
	// wire), so handing it to the caller shares nothing with shard state.
	only := -1
	for i, run := range replies {
		if len(run) == 0 {
			continue
		}
		if only >= 0 {
			only = -1
			break
		}
		only = i
	}
	if only >= 0 {
		return replies[only]
	}
	if total == 0 {
		return []Record{}
	}
	recs := make([]Record, 0, total)
	heads := make([]int, len(replies))
	for {
		best := -1
		for i, run := range replies {
			if heads[i] >= len(run) {
				continue
			}
			if best < 0 || run[heads[i]].Member.Less(replies[best][heads[best]].Member) {
				best = i
			}
		}
		if best < 0 {
			return recs
		}
		cr := replies[best][heads[best]]
		heads[best]++
		// Skip the same member at any other shard's head (higher index).
		for i := best + 1; i < len(replies); i++ {
			if heads[i] < len(replies[i]) && replies[i][heads[i]].Member == cr.Member {
				heads[i]++
			}
		}
		recs = append(recs, cr)
	}
}

// installMethods exposes the Figure 4 interface (plus the batch
// extension) so remote runtimes address the Router exactly like a
// Collection.
func (r *Router) installMethods() {
	r.Handle(proto.MethodJoinCollection, orb.Typed(func(ctx context.Context, a proto.JoinArgs) (any, error) {
		if err := r.forward(ctx, a.Joiner, proto.MethodJoinCollection, a); err != nil {
			return nil, err
		}
		return proto.Ack{}, nil
	}))
	r.Handle(proto.MethodLeaveCollection, orb.Typed(func(ctx context.Context, a proto.LeaveArgs) (any, error) {
		if err := r.forward(ctx, a.Leaver, proto.MethodLeaveCollection, a); err != nil {
			return nil, err
		}
		return proto.Ack{}, nil
	}))
	r.Handle(proto.MethodUpdateCollectionEntry, orb.Typed(func(ctx context.Context, a proto.UpdateArgs) (any, error) {
		if err := r.forward(ctx, a.Member, proto.MethodUpdateCollectionEntry, a); err != nil {
			return nil, err
		}
		return proto.Ack{}, nil
	}))
	r.Handle(proto.MethodUpdateCollectionBatch, orb.Typed(func(ctx context.Context, a proto.BatchUpdateArgs) (any, error) {
		reply, err := r.applyBatch(ctx, a.Entries, a.Credential, false)
		switch {
		case err != nil && reply.Applied == 0:
			return nil, err
		case err != nil:
			// Some shards applied: the Router answers the rest as its
			// own refusal (%v, not %w), so the caller resends but its
			// breaker for the Router counts no transport fault and keeps
			// feeding the shards that answered.
			return nil, fmt.Errorf("collection: a shard missed the batch: %v", err)
		}
		return reply, nil
	}))
	r.Handle(proto.MethodQueryCollection, orb.Typed(func(ctx context.Context, a proto.QueryArgs) (any, error) {
		recs, skipped, err := r.QueryPartial(ctx, a.Query)
		if err != nil {
			return nil, err
		}
		out := make([]proto.CollectionRecord, len(recs))
		for i, rec := range recs {
			out[i] = proto.CollectionRecord{Member: rec.Member, Attrs: rec.Attrs}
		}
		return proto.QueryReply{Records: out, SkippedShards: skipped}, nil
	}))
}

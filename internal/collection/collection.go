// Package collection implements the Legion Collection (paper §3.2).
//
// "The Collection acts as a repository for information describing the
// state of the resources comprising the system. Each record is stored as
// a set of Legion object attributes. Collections provide methods to join
// (with an optional installment of initial descriptive information) and
// update records, thus facilitating a push model for data. ... Users, or
// their agents, obtain information about resources by issuing queries to
// a Collection."
//
// The Figure 4 interface — JoinCollection, LeaveCollection,
// QueryCollection, UpdateCollectionEntry — is exposed both as a Go API
// and as orb methods. Queries are expressions in the package query
// language. The §3.2 security note ("The security facilities of Legion
// authenticate the caller to be sure that it is allowed to update the
// data") is modelled with a pluggable authorizer over per-caller
// credentials.
//
// Function injection — "the ability for users to install code to
// dynamically compute new description information and integrate it with
// the already existing description information for a resource", which the
// paper plans for Network Weather Service predictions — is implemented:
// functions registered with InjectFunc become callable from queries, and
// they receive the record under evaluation (see internal/nws).
package collection

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/query"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// Op identifies a Collection mutation for authorization decisions.
type Op int

// Collection mutation operations.
const (
	OpJoin Op = iota
	OpLeave
	OpUpdate
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	default:
		return "update"
	}
}

// Authorizer decides whether a caller may mutate a member's record.
type Authorizer func(op Op, member loid.LOID, credential string) error

// Errors returned by Collection operations.
var (
	// ErrUnauthorized reports an authorization failure.
	ErrUnauthorized = errors.New("collection: unauthorized")
	// ErrNotMember reports an operation on an unknown member.
	ErrNotMember = errors.New("collection: not a member")
)

// record is one member's stored description: its attributes as a slice
// strictly sorted by name, and nothing else. That slice is the record on
// the whole read path — the query evaluator and the index search it,
// query replies share it, the scheduler walks it — so no map is built
// per record anywhere.
//
// Records from one kind of resource share a layout: the same names in
// the same order, since a Host re-pushes its whole attribute set every
// time, and a daemon sweep deposits that set with the same liveness
// attributes every time. An update in its record's layout, or in it
// once sorted as a daemon's entry is, becomes the record without a merge
// (newRecord); a partial update, such as a Host's own push into a record
// a daemon also sweeps, is merged. The index and the query evaluator
// each look names up through an attr.Finder, at the slot where they
// last found them.
//
// Records are immutable copy-on-write snapshots: mutators build a
// replacement record and swap the pointer under the write lock, so
// queries capture a consistent snapshot with a brief read lock and
// evaluate entirely outside it.
//
// A record pushed through the ORB is usually the pusher's own version,
// adopted rather than copied (newRecord): a Host's record shares its
// backing array with the Host's attr.Set, which never writes a version
// it has handed out.
type record struct {
	// pairs has cap == len: replies keep it alive for as long as their
	// holder likes, so it must not carry slack. Nobody writes it.
	pairs     []attr.Pair
	updatedAt time.Time
}

// newRecord builds the successor of old (nil for a fresh member) with
// update merged in, an update's value replacing the old one of the same
// name. Neither old nor the result is ever mutated afterwards.
//
// An update in old's layout — exactly old's names, in old's order,
// checked pairwise with ==, which interned and constant names answer
// from their pointers — is the merged record already. Any other update
// is normalized and merged with old: a two-pointer merge of two sorted
// runs into one slice allocated at its exact length.
//
// With adopt set, the caller hands update over: nobody writes it again.
// A copy normalized made is handed over in the same way. When update
// then is the whole merge — strictly sorted, naming every attribute of
// old — and has cap == len, it becomes the record as it is, with no
// copy: so a daemon's sweep entry, a Host's snapshot with the liveness
// attributes appended, is sorted into a copy that becomes the record.
// Without adopt the result never aliases update.
func newRecord(old *record, update []attr.Pair, at time.Time, adopt bool) *record {
	var base []attr.Pair
	if old != nil {
		base = old.pairs
	}
	if old != nil && sameLayout(base, update) {
		if !adopt || cap(update) != len(update) {
			update = slices.Clip(slices.Clone(update))
		}
		return &record{pairs: update, updatedAt: at}
	}
	update, copied := normalized(update)
	adopt = adopt || copied
	n := len(base) + len(update)
	for i, j := 0, 0; i < len(base) && j < len(update); {
		c := strings.Compare(base[i].Name, update[j].Name)
		if c == 0 {
			n-- // replaced, not added
		}
		if c <= 0 {
			i++
		}
		if c >= 0 {
			j++
		}
	}
	if adopt && n == len(update) && cap(update) == n {
		return &record{pairs: update, updatedAt: at}
	}
	pairs := make([]attr.Pair, 0, n)
	i, j := 0, 0
	for i < len(base) && j < len(update) {
		c := strings.Compare(base[i].Name, update[j].Name)
		if c < 0 {
			pairs = append(pairs, base[i])
		} else {
			pairs = append(pairs, update[j])
			j++
		}
		if c <= 0 {
			i++
		}
	}
	pairs = append(pairs, base[i:]...)
	pairs = append(pairs, update[j:]...)
	return &record{pairs: pairs, updatedAt: at}
}

// sameLayout reports whether update names exactly old's attributes, in
// old's order.
func sameLayout(old, update []attr.Pair) bool {
	if len(old) != len(update) {
		return false
	}
	for i := range old {
		if old[i].Name != update[i].Name {
			return false
		}
	}
	return true
}

// normalized returns update strictly sorted by name, and whether that
// took a copy. A Host's push is an attr.Set.Snapshot, which already is,
// and comes back as it is. Anything else is copied, stably sorted, and
// stripped of all but the last pair of each name — later pairs overwrite
// earlier ones, as in attr.NewSet; the copy has cap == len.
func normalized(update []attr.Pair) ([]attr.Pair, bool) {
	strict := true
	for i := 1; i < len(update) && strict; i++ {
		strict = update[i-1].Name < update[i].Name
	}
	if strict {
		return update, false
	}
	update = slices.Clone(update)
	slices.SortStableFunc(update, func(a, b attr.Pair) int { return strings.Compare(a.Name, b.Name) })
	out := update[:0]
	for i, p := range update {
		if i+1 < len(update) && update[i+1].Name == p.Name {
			continue // a later pair of the same name wins
		}
		out = append(out, p)
	}
	clear(update[len(out):])
	return slices.Clip(out), true
}

// Collection is a Legion Collection object. Safe for concurrent use.
type Collection struct {
	*orb.ServiceObject

	cache *query.ParseCache // parsed-query LRU; safe for concurrent use

	mu      sync.RWMutex
	records map[loid.LOID]*entry // point lookups
	entries []*entry             // the same entries, sorted by member
	idx     *attrIndex
	funcs   map[string]query.Func
	auth    Authorizer
	clock   vclock.Clock

	queries atomic.Int64
	updates atomic.Int64

	met collectionMetrics
}

// collectionMetrics holds the Collection's telemetry handles, cached at
// New.
type collectionMetrics struct {
	spans     *telemetry.SpanLog
	domain    string
	queryTime *telemetry.Histogram
	queryCand *telemetry.Histogram
	querySize *telemetry.Histogram
	queryErrs *telemetry.Counter
	evalSkips *telemetry.Counter
	cacheHits *telemetry.Counter
	indexed   *telemetry.Counter
	scans     *telemetry.Counter
}

func newCollectionMetrics(rt *orb.Runtime) collectionMetrics {
	reg := rt.Metrics()
	return collectionMetrics{
		spans:     reg.Spans(),
		domain:    rt.Domain(),
		queryTime: reg.Histogram("legion_collection_query_seconds", telemetry.LatencyBuckets),
		queryCand: reg.Histogram("legion_collection_query_candidates", telemetry.SizeBuckets),
		querySize: reg.Histogram("legion_collection_query_results", telemetry.SizeBuckets),
		queryErrs: reg.Counter("legion_collection_query_errors_total"),
		evalSkips: reg.Counter("legion_collection_query_eval_skips"),
		cacheHits: reg.Counter("legion_collection_query_cache_hits_total"),
		indexed:   reg.Counter("legion_collection_query_indexed_total"),
		scans:     reg.Counter("legion_collection_query_scans_total"),
	}
}

// New creates a Collection, registers its orb methods and itself with rt.
// auth may be nil, allowing all mutations.
func New(rt *orb.Runtime, auth Authorizer) *Collection {
	c := &Collection{
		ServiceObject: orb.NewServiceObject(rt.Mint("Collection")),
		cache:         query.NewParseCache(0),
		records:       make(map[loid.LOID]*entry),
		idx:           newAttrIndex(DefaultIndexedKeys),
		funcs:         make(map[string]query.Func),
		auth:          auth,
		clock:         rt.Clock(),
		met:           newCollectionMetrics(rt),
	}
	c.installMethods()
	rt.Register(c)
	return c
}

// SetIndexedKeys replaces the set of indexed attribute keys and rebuilds
// the inverted index over the current records. Passing no keys disables
// the index entirely (every query scans) — the scan-vs-index experiments
// use this as their baseline.
func (c *Collection) SetIndexedKeys(keys ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idx = newAttrIndex(keys)
	for _, e := range c.entries {
		c.idx.replace(e, nil, e.rec)
	}
}

// InjectFunc installs a user function callable from queries (§3.2
// function injection). Injected functions shadow built-ins. The function
// table is copy-on-write: queries snapshot the current table and keep
// using it outside the lock, so injected functions must be safe for
// concurrent calls.
func (c *Collection) InjectFunc(name string, f query.Func) {
	c.mu.Lock()
	defer c.mu.Unlock()
	funcs := make(map[string]query.Func, len(c.funcs)+1)
	for k, v := range c.funcs {
		funcs[k] = v
	}
	funcs[name] = f
	c.funcs = funcs
}

func (c *Collection) authorize(op Op, member loid.LOID, credential string) error {
	if c.auth == nil {
		return nil
	}
	if err := c.auth(op, member, credential); err != nil {
		return fmt.Errorf("%w: %v", ErrUnauthorized, err)
	}
	return nil
}

// Join registers a member, optionally with initial descriptive
// information. The record keeps a copy of attrs.
func (c *Collection) Join(member loid.LOID, attrs []attr.Pair, credential string) error {
	return c.join(member, attrs, credential, false)
}

// join is Join; with adopt set the record may keep attrs itself (see
// newRecord).
func (c *Collection) join(member loid.LOID, attrs []attr.Pair, credential string, adopt bool) error {
	if member.IsNil() {
		return errors.New("collection: nil member LOID")
	}
	if err := c.authorize(OpJoin, member, credential); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.upsert(c.records[member], member, attrs, c.clock.Now(), adopt)
	return nil
}

// upsert merges attrs into the record of e, member's entry, or into a
// fresh record under a new entry filed in order when e is nil, and moves
// the entry's index buckets to match; adopt is newRecord's. Callers hold
// the write lock.
func (c *Collection) upsert(e *entry, member loid.LOID, attrs []attr.Pair, at time.Time, adopt bool) {
	var old *record
	if e == nil {
		e = &entry{member: member}
		c.records[member] = e
		c.entries = insertEntry(c.entries, e)
	} else {
		old = e.rec
	}
	e.rec = newRecord(old, attrs, at, adopt)
	c.idx.replace(e, old, e.rec)
}

// Leave removes a member's record.
func (c *Collection) Leave(member loid.LOID, credential string) error {
	if err := c.authorize(OpLeave, member, credential); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.records[member]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotMember, member)
	}
	delete(c.records, member)
	c.entries = removeEntry(c.entries, e)
	c.idx.replace(e, e.rec, nil)
	return nil
}

// Update merges new descriptive information into a member's record — the
// push-model data path. The record keeps a copy of attrs.
func (c *Collection) Update(member loid.LOID, attrs []attr.Pair, credential string) error {
	return c.update(member, attrs, credential, false)
}

// update is Update; with adopt set the record may keep attrs itself (see
// newRecord).
func (c *Collection) update(member loid.LOID, attrs []attr.Pair, credential string, adopt bool) error {
	if err := c.authorize(OpUpdate, member, credential); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.records[member]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotMember, member)
	}
	c.upsert(e, member, attrs, c.clock.Now(), adopt)
	c.updates.Add(1)
	return nil
}

// ApplyBatch applies a coalesced update batch in entry order under a
// single lock acquisition — the server half of the Data Collection
// Daemon's push. Each entry upserts: an absent member is
// joined (authorized as OpJoin), a present one updated (OpUpdate).
// UpdateOnly entries for absent members are dropped rather than joined,
// so a down-flag cannot resurrect a pruned record. Entries the
// authorizer refuses are dropped too; the batch never fails wholesale.
// Each record keeps a copy of its entry's attributes.
func (c *Collection) ApplyBatch(entries []proto.BatchEntry, credential string) (applied, dropped int) {
	return c.applyBatch(entries, credential, false)
}

// applyBatch is ApplyBatch; with adopt set a record may keep its entry's
// attributes themselves (see newRecord).
func (c *Collection) applyBatch(entries []proto.BatchEntry, credential string, adopt bool) (applied, dropped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	for _, e := range entries {
		if e.Member.IsNil() {
			dropped++
			continue
		}
		ent, present := c.records[e.Member]
		op := OpUpdate
		if !present {
			if e.UpdateOnly {
				dropped++
				continue
			}
			op = OpJoin
		}
		if c.auth != nil && c.auth(op, e.Member, credential) != nil {
			dropped++
			continue
		}
		c.upsert(ent, e.Member, e.Attrs, now, adopt)
		if present {
			c.updates.Add(1)
		}
		applied++
	}
	return applied, dropped
}

// Record is one query result: a member and its description snapshot.
type Record = proto.CollectionRecord

// Query evaluates a query-language expression against every record and
// returns the matches sorted by member LOID (deterministic order).
// Records with attributes missing from the query simply do not match. A
// record whose evaluation errors (e.g. a bad injected-func value on a
// single host) is skipped — counted in the
// legion_collection_query_eval_skips counter — rather than failing the
// whole query; only a parse error fails the call.
func (c *Collection) Query(src string) ([]Record, error) {
	return c.QueryCtx(context.Background(), src)
}

// QueryCtx is Query with a caller context, so the query span parents
// under any span the context carries (e.g. the ORB server span of a
// remote QueryCollection call).
func (c *Collection) QueryCtx(ctx context.Context, src string) (_ []Record, err error) {
	_, span := c.met.spans.Start(ctx, c.clock, "collection/query", c.met.domain)
	defer func() {
		c.met.queryTime.Observe(span.Finish(err).Seconds())
		if err != nil {
			c.met.queryErrs.Inc()
		}
	}()
	e, hit, err := c.cache.Parse(src)
	if err != nil {
		return nil, err
	}
	if hit {
		c.met.cacheHits.Inc()
	}
	terms := query.ConjunctiveTerms(e)

	// Snapshot under a brief read lock: records are immutable
	// copy-on-write values and the function table is swapped wholesale on
	// InjectFunc, so both stay valid after the lock is released and the
	// (possibly slow) evaluation below never stalls Join/Update. When a
	// top-level conjunct hits an indexed key, only its buckets are
	// snapshotted instead of every record; either way the snapshot comes
	// out in member order, the order of the reply.
	c.mu.RLock()
	c.queries.Add(1)
	funcs := c.funcs
	plan := c.idx.plan(terms)
	var snap []candidate
	if plan.term >= 0 {
		snap = c.idx.snapshot(make([]candidate, 0, plan.size), plan, terms[plan.term])
	} else {
		snap = appendCandidates(make([]candidate, 0, len(c.entries)), c.entries)
	}
	c.mu.RUnlock()
	if plan.term >= 0 {
		c.met.indexed.Inc()
		// Every candidate of an == bucket carries a value Equal to the
		// literal, so that conjunct is true and error-free for each of
		// them, and an AND chain without it answers exactly as with it.
		if t := terms[plan.term]; t.Op == "==" && decides(t.Value) {
			e = query.WithoutTerm(e, plan.term)
		}
	} else {
		c.met.scans.Inc()
	}
	c.met.queryCand.Observe(float64(len(snap)))

	// Matches are compacted to the front of the snapshot, so the reply
	// is allocated once, at its exact length.
	n, skips := 0, 0
	v := &view{env: query.Env{Funcs: funcs}}
	v.env.Rec = v
	for _, cand := range snap {
		if e != nil {
			v.rec = cand.rec
			ok, err := query.EvalEnv(e, &v.env)
			if err != nil {
				// One record's bad value must not hide every other
				// resource from the scheduler: skip it and report the
				// rest.
				skips++
				continue
			}
			if !ok {
				continue
			}
		}
		snap[n] = cand
		n++
	}
	if skips > 0 {
		c.met.evalSkips.Add(int64(skips))
	}
	c.met.querySize.Observe(float64(n))
	if n == 0 {
		return nil, nil
	}
	out := make([]Record, n)
	for i, cand := range snap[:n] {
		out[i] = Record{Member: cand.e.member, Attrs: cand.rec.pairs, UpdatedAt: cand.rec.updatedAt}
	}
	return out, nil
}

// view is what a query evaluates its candidates through: the
// evaluation environment, the candidate under evaluation, and one
// attr.Finder for all of them, so a name is looked for first at the
// slot where the previous candidate held it. It is one allocation per
// query, the environment's own; the evaluator sees the same view for
// every candidate, which is why a query.Func may use its record only
// during the call.
type view struct {
	env  query.Env
	rec  *record
	find attr.Finder
}

// Lookup implements query.Record over the candidate under evaluation.
func (v *view) Lookup(name string) (attr.Value, bool) { return v.find.Lookup(v.rec.pairs, name) }

// candidate is one entry as a query snapshots it: the entry, for its
// member, and the record the entry held under the read lock.
type candidate struct {
	e   *entry
	rec *record
}

// appendCandidates appends each of entries with its current record.
// Callers hold the Collection lock.
func appendCandidates(dst []candidate, entries []*entry) []candidate {
	for _, e := range entries {
		dst = append(dst, candidate{e: e, rec: e.rec})
	}
	return dst
}

// Size returns the number of member records.
func (c *Collection) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.records)
}

// Stats returns lifetime query and update counts (schedulers use query
// counts; the IRS experiment reproduces the paper's "fewer lookups in the
// Collection" claim with them).
func (c *Collection) Stats() (queries, updates int64) {
	return c.queries.Load(), c.updates.Load()
}

// installMethods registers the Figure 4 interface. The mutation handlers
// own their argument's attributes — a decoded frame is private, and an
// in-process caller hands its slice over and never writes it again — so
// they let the record adopt them.
func (c *Collection) installMethods() {
	c.HandleTyped(proto.MethodJoinCollection, orb.Typed(func(_ context.Context, a proto.JoinArgs) (proto.Ack, error) {
		return proto.Ack{}, c.join(a.Joiner, a.Attrs, a.Credential, true)
	}))
	c.HandleTyped(proto.MethodLeaveCollection, orb.Typed(func(_ context.Context, a proto.LeaveArgs) (proto.Ack, error) {
		return proto.Ack{}, c.Leave(a.Leaver, a.Credential)
	}))
	c.HandleTyped(proto.MethodUpdateCollectionEntry, orb.Typed(func(_ context.Context, a proto.UpdateArgs) (proto.Ack, error) {
		return proto.Ack{}, c.update(a.Member, a.Attrs, a.Credential, true)
	}))
	c.HandleTyped(proto.MethodUpdateCollectionBatch, orb.Typed(func(_ context.Context, a proto.BatchUpdateArgs) (proto.BatchUpdateReply, error) {
		applied, dropped := c.applyBatch(a.Entries, a.Credential, true)
		return proto.BatchUpdateReply{Applied: applied, Dropped: dropped}, nil
	}))
	c.HandleTyped(proto.MethodQueryCollection, orb.Typed(func(ctx context.Context, a proto.QueryArgs) (proto.QueryReply, error) {
		recs, err := c.QueryCtx(ctx, a.Query)
		if err != nil {
			return proto.QueryReply{}, err
		}
		// Record aliases proto.CollectionRecord, so the reply reuses the
		// query result without a per-record conversion copy.
		return proto.QueryReply{Records: recs}, nil
	}))
}

package collection

import (
	"cmp"
	"math"
	"slices"
	"strconv"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/query"
)

// DefaultIndexedKeys are the attribute keys a new Collection indexes:
// the low-cardinality equality/comparison keys the stock schedulers and
// the failure detector put in nearly every query. High-cardinality keys
// (host_load, timestamps) deliberately stay unindexed — their buckets
// would be as numerous as the records.
var DefaultIndexedKeys = []string{
	"host_alive",
	"host_state",
	"host_arch",
	"host_os_name",
	"host_os_type",
	"host_zone",
	"host_is_batch",
}

// entry is one member's place in the Collection: its LOID and its
// current record. The Collection keeps every entry in one slice sorted
// by member, and each index bucket keeps its entries sorted the same
// way, so a query reads its candidates already in reply order. member
// never changes; rec is swapped under the write lock.
type entry struct {
	member loid.LOID
	rec    *record
}

// byMember orders an entry against a member LOID, as loid.LOID.Less
// does.
func byMember(e *entry, m loid.LOID) int {
	if c := cmp.Compare(e.member.Domain, m.Domain); c != 0 {
		return c
	}
	if c := cmp.Compare(e.member.Class, m.Class); c != 0 {
		return c
	}
	return cmp.Compare(e.member.Instance, m.Instance)
}

// insertEntry files e in the member-sorted s. Members arrive mostly in
// minting order, so the common insert is an append.
func insertEntry(s []*entry, e *entry) []*entry {
	i, _ := slices.BinarySearchFunc(s, e.member, byMember)
	return slices.Insert(s, i, e)
}

// removeEntry takes e out of the member-sorted s.
func removeEntry(s []*entry, e *entry) []*entry {
	if i, ok := slices.BinarySearchFunc(s, e.member, byMember); ok {
		s = slices.Delete(s, i, i+1)
	}
	return s
}

// attrIndex is an inverted index over a fixed set of attribute keys:
// key → canonical value text → the entries, sorted by member, whose
// record carries exactly that value. It is maintained under the
// Collection write lock on every Join/Update/Leave. Bucket keys come
// from canonical, which yields identical text exactly when
// attr.Value.Equal holds, so an equality term lands in the same bucket
// as every record it matches, and every record in that bucket matches
// it.
type attrIndex struct {
	keys    []string // each once, in the order given
	buckets map[string]map[string]*indexBucket
	find    attr.Finder // replace's lookups
}

type indexBucket struct {
	val     attr.Value
	entries []*entry // sorted by member
}

// canonical renders v so that two values print identically exactly when
// Equal holds. Numerics need care: Equal compares ints and floats
// through float64 (Int(1e6) equals Float(1e6)), but Value.String prints
// them differently ("1000000" vs "1e+06"), so both are formatted from
// their float64 image instead — with -0, which equals 0 and prints "-0",
// folded onto 0. Only lists and NaN break the rule (a list's String does
// not respect the cross-kind numerics of its elements, and NaN equals
// nothing), and neither can share text with a string, bool or finite
// number.
func canonical(v attr.Value) string {
	if f, ok := v.AsFloat(); ok {
		if f == 0 {
			f = 0
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return v.String()
}

// decides reports whether an == term on literal v is true for every
// member of v's bucket: v is a string, bool or finite number, the kinds
// whose canonical text is shared exactly by the values Equal to them.
func decides(v attr.Value) bool {
	switch v.Kind() {
	case attr.KindString, attr.KindBool:
		return true
	}
	f, ok := v.AsFloat()
	return ok && !math.IsNaN(f) && !math.IsInf(f, 0)
}

func newAttrIndex(keys []string) *attrIndex {
	ix := &attrIndex{buckets: make(map[string]map[string]*indexBucket)}
	for _, k := range keys {
		if !slices.Contains(ix.keys, k) {
			ix.keys = append(ix.keys, k)
		}
	}
	return ix
}

// add files e under key k's bucket for v.
func (ix *attrIndex) add(e *entry, k string, v attr.Value) {
	bk := ix.buckets[k]
	if bk == nil {
		bk = make(map[string]*indexBucket)
		ix.buckets[k] = bk
	}
	cv := canonical(v)
	b := bk[cv]
	if b == nil {
		b = &indexBucket{val: v}
		bk[cv] = b
	}
	b.entries = insertEntry(b.entries, e)
}

// drop takes e out of key k's bucket for v.
func (ix *attrIndex) drop(e *entry, k string, v attr.Value) {
	bk := ix.buckets[k]
	if bk == nil {
		return
	}
	cv := canonical(v)
	if b := bk[cv]; b != nil {
		b.entries = removeEntry(b.entries, e)
		if len(b.entries) == 0 {
			delete(bk, cv)
		}
	}
}

// replace swaps e's index entries from the old record to its successor;
// either may be nil (fresh join / removal). A key whose old and new
// values land in the same bucket is left alone, so the common update — a
// Host re-pushing its attributes with a new host_load, which is not
// indexed — does no index work at all. Keys are looked up through the
// index's Finder: in a successor of its record's layout a key sits at
// the slot it had in the old record, so each lookup is one compare.
// Callers hold the Collection's write lock, which covers the Finder.
func (ix *attrIndex) replace(e *entry, old, succ *record) {
	for _, k := range ix.keys {
		var ov, nv attr.Value
		var had, has bool
		if old != nil {
			ov, had = ix.find.Lookup(old.pairs, k)
		}
		if succ != nil {
			nv, has = ix.find.Lookup(succ.pairs, k)
		}
		if had && has && sameBucket(ov, nv) {
			continue
		}
		if had {
			ix.drop(e, k, ov)
		}
		if has {
			ix.add(e, k, nv)
		}
	}
}

// sameBucket reports whether a and b certainly have the same canonical
// text, without rendering it. It compares what the text is made from —
// the float64 bits of a numeric, the payload of a string or bool — and
// answers false for anything it does not decide cheaply (lists, 0
// against -0), which only costs replace a drop and an add.
func sameBucket(a, b attr.Value) bool {
	if af, ok := a.AsFloat(); ok {
		bf, bok := b.AsFloat()
		return bok && math.Float64bits(af) == math.Float64bits(bf)
	}
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case attr.KindString:
		return a.Str() == b.Str()
	case attr.KindBool:
		return a.BoolVal() == b.BoolVal()
	}
	return false
}

// choice is the indexable conjunct a query's candidates come from.
type choice struct {
	term int          // position in the query's terms; -1: scan everything
	size int          // members its buckets hold
	eq   *indexBucket // an == term's bucket; nil when no record has the value
}

// plan picks the indexable conjunct of a query whose buckets hold the
// fewest members, or term -1 when no conjunct uses an indexed key — the
// caller then scans every record. Soundness: a top-level conjunct that
// is false (or touches a missing attribute) falsifies the whole
// conjunction, so records outside the chosen buckets cannot match.
// Callers must hold the Collection lock.
func (ix *attrIndex) plan(terms []query.Term) choice {
	best := choice{term: -1}
	for i, t := range terms {
		if !slices.Contains(ix.keys, t.Attr) {
			continue
		}
		c := choice{term: i}
		switch t.Op {
		case "==":
			if c.eq = ix.buckets[t.Attr][canonical(t.Value)]; c.eq != nil {
				c.size = len(c.eq.entries)
			}
		case "<", "<=", ">", ">=":
			for _, b := range ix.buckets[t.Attr] {
				if res, cmp := query.CompareValues(b.val, t.Value, t.Op); cmp && res {
					c.size += len(b.entries)
				}
			}
		default:
			// != is near-useless for pruning; leave it to evaluation.
			continue
		}
		if best.term < 0 || c.size < best.size {
			best = c
		}
	}
	return best
}

// snapshot appends to dst each entry of the chosen buckets with the
// record it holds now, in member order: an == term's one bucket already
// is, and the several buckets of a range term are merged by sorting.
// Callers must hold the Collection lock.
func (ix *attrIndex) snapshot(dst []candidate, c choice, t query.Term) []candidate {
	if t.Op == "==" {
		if c.eq != nil {
			dst = appendCandidates(dst, c.eq.entries)
		}
		return dst
	}
	from := len(dst)
	for _, b := range ix.buckets[t.Attr] {
		if res, cmp := query.CompareValues(b.val, t.Value, t.Op); cmp && res {
			dst = appendCandidates(dst, b.entries)
		}
	}
	slices.SortFunc(dst[from:], func(a, b candidate) int { return byMember(a.e, b.e.member) })
	return dst
}

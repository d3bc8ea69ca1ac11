package collection

import (
	"math"
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

// attrIndex is an inverted index over a fixed set of attribute keys:
// key → canonical value text → set of members whose record carries
// exactly that value. It is maintained under the Collection write lock
// on every Join/Update/Leave. Bucket keys come from canonical,
// which yields identical text exactly when attr.Value.Equal holds, so
// an equality term lands in the same bucket as every record it matches.
type attrIndex struct {
	keys    map[string]bool
	buckets map[string]map[string]*indexBucket
}

type indexBucket struct {
	val     attr.Value
	members map[loid.LOID]struct{}
}

// canonical renders v so that two values print identically exactly when
// Equal holds. Numerics need care: Equal compares ints and floats
// through float64 (Int(1e6) equals Float(1e6)), but Value.String prints
// them differently ("1000000" vs "1e+06"), so both are formatted from
// their float64 image instead — with -0, which equals 0 and prints "-0",
// folded onto 0.
func canonical(v attr.Value) string {
	if f, ok := v.AsFloat(); ok {
		if f == 0 {
			f = 0
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return v.String()
}

func newAttrIndex(keys []string) *attrIndex {
	ix := &attrIndex{
		keys:    make(map[string]bool, len(keys)),
		buckets: make(map[string]map[string]*indexBucket),
	}
	for _, k := range keys {
		ix.keys[k] = true
	}
	return ix
}

// add files member under key k's bucket for v.
func (ix *attrIndex) add(member loid.LOID, k string, v attr.Value) {
	bk := ix.buckets[k]
	if bk == nil {
		bk = make(map[string]*indexBucket)
		ix.buckets[k] = bk
	}
	cv := canonical(v)
	b := bk[cv]
	if b == nil {
		b = &indexBucket{val: v, members: make(map[loid.LOID]struct{})}
		bk[cv] = b
	}
	b.members[member] = struct{}{}
}

// drop takes member out of key k's bucket for v.
func (ix *attrIndex) drop(member loid.LOID, k string, v attr.Value) {
	bk := ix.buckets[k]
	if bk == nil {
		return
	}
	cv := canonical(v)
	if b := bk[cv]; b != nil {
		delete(b.members, member)
		if len(b.members) == 0 {
			delete(bk, cv)
		}
	}
}

// replace swaps member's index entries from the old record to its
// successor; either may be nil (fresh join / removal). A key whose old
// and new values land in the same bucket is left alone, so the common
// update — a Host re-pushing its attributes with a new host_load, which
// is not indexed — does no index work at all.
func (ix *attrIndex) replace(member loid.LOID, old, succ *record) {
	for k := range ix.keys {
		var ov, nv attr.Value
		var had, has bool
		if old != nil {
			ov, had = old.Lookup(k)
		}
		if succ != nil {
			nv, has = succ.Lookup(k)
		}
		if had && has && sameBucket(ov, nv) {
			continue
		}
		if had {
			ix.drop(member, k, ov)
		}
		if has {
			ix.add(member, k, nv)
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

// candidates returns the smallest member set implied by the indexable
// conjuncts of a query, and whether any conjunct used an indexed key at
// all — when none did, the caller falls back to a full scan. The index
// only prunes: the full expression is still evaluated against every
// candidate. Soundness: a top-level conjunct that is false (or touches
// a missing attribute) falsifies the whole conjunction, so records
// outside the returned set cannot match.
//
// Callers must hold the Collection lock; the returned set is the live
// bucket for equality terms and must not be mutated or retained past
// the lock.
func (ix *attrIndex) candidates(terms []query.Term) (map[loid.LOID]struct{}, bool) {
	var best map[loid.LOID]struct{}
	found := false
	for _, t := range terms {
		if !ix.keys[t.Attr] {
			continue
		}
		var set map[loid.LOID]struct{}
		switch t.Op {
		case "==":
			if b := ix.buckets[t.Attr][canonical(t.Value)]; b != nil {
				set = b.members
			} else {
				set = map[loid.LOID]struct{}{} // no record carries the value
			}
		case "<", "<=", ">", ">=":
			set = map[loid.LOID]struct{}{}
			for _, b := range ix.buckets[t.Attr] {
				if res, cmp := query.CompareValues(b.val, t.Value, t.Op); cmp && res {
					for m := range b.members {
						set[m] = struct{}{}
					}
				}
			}
		default:
			// != is near-useless for pruning; leave it to evaluation.
			continue
		}
		if !found || len(set) < len(best) {
			best, found = set, true
		}
	}
	return best, found
}

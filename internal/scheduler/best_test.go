package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"legion/internal/loid"
)

// shippedOrderings are the orderings the generators rank by.
var shippedOrderings = map[string]ordering{
	"load":          byLoad,
	"price":         byPrice,
	"costThenLoad":  byCostThenLoad,
	"projectedLoad": byProjectedLoad,
	"freeCapacity":  byFreeCapacity,
}

// randomPool draws n candidates in shuffled LOID order whose keys come
// from a handful of values, so every ordering ties often and the LOID
// decides; one load in eight is NaN, and placed counts are set as a
// schedule under construction would leave them.
func randomPool(r *rand.Rand, n int) []cand {
	levels := []float64{0, 0.1, 0.1, 0.5, 0.9, math.NaN(), 0.1, 0.5}
	view := make([]HostInfo, n)
	for i := range view {
		view[i] = HostInfo{
			LOID:  loid.LOID{Domain: "d", Class: "Host", Instance: uint64(i + 1)},
			Load:  levels[r.Intn(len(levels))],
			CPUs:  r.Intn(3), // 0 exercises the max(CPUs, 1) floor
			Cost:  float64(r.Intn(3)),
			Price: float64(r.Intn(2)),
		}
	}
	r.Shuffle(n, func(i, j int) { view[i], view[j] = view[j], view[i] })
	c := owned(view)
	for i := range c {
		c[i].placed = r.Intn(3)
	}
	return c
}

// TestBestMatchesOrder: for every k and every shipped ordering, best is
// the head of order, and what it leaves behind is still the input.
func TestBestMatchesOrder(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	// 0, 1 and 300 as such; 2..9 put len(c) at k-1 and k for every small k.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 300} {
		for name, by := range shippedOrderings {
			in := randomPool(r, n)
			want := slices.Clone(in)
			order(want, by)
			for k := 0; k <= n+1; k++ {
				c := slices.Clone(in)
				got := best(c, by, k)
				if !slices.Equal(got, want[:min(k, n)]) {
					t.Fatalf("%s n=%d k=%d: best = %v, order's head = %v",
						name, n, k, loids(got), loids(want[:min(k, n)]))
				}
				if len(got) > 0 && &got[0] != &c[0] {
					t.Fatalf("%s n=%d k=%d: best returned a slice that is not the front of c", name, n, k)
				}
				// Sorted by the same total order, c is want iff it is a
				// permutation of the input.
				order(c, by)
				if !slices.Equal(c, want) {
					t.Fatalf("%s n=%d k=%d: c is no longer a permutation of its input", name, n, k)
				}
			}
		}
	}
}

// TestBestIgnoresIncomingOrder: the total order makes the result a
// function of the candidate set, whichever path best takes.
func TestBestIgnoresIncomingOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	in := randomPool(r, 64)
	for _, k := range []int{1, 3, 7, 8, 40} { // both sides of the fallback
		want := loids(best(slices.Clone(in), byProjectedLoad, k))
		for trial := 0; trial < 20; trial++ {
			c := slices.Clone(in)
			r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
			if got := loids(best(c, byProjectedLoad, k)); !slices.Equal(got, want) {
				t.Fatalf("k=%d: %v after a shuffle, %v before", k, got, want)
			}
		}
	}
}

func loids(c []cand) []string {
	out := make([]string, len(c))
	for i := range c {
		out[i] = fmt.Sprintf("%d", c[i].LOID.Instance)
	}
	return out
}

package query

import (
	"fmt"
	"sync"
	"testing"
)

func TestParseCacheHitAndEvict(t *testing.T) {
	c := NewParseCache(2)
	if _, hit, err := c.Parse(`$a == 1`); err != nil || hit {
		t.Fatalf("first parse: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.Parse(`$a == 1`); err != nil || !hit {
		t.Fatalf("second parse: hit=%v err=%v", hit, err)
	}
	c.Parse(`$b == 2`)
	// Touch $a so $b is the LRU victim.
	c.Parse(`$a == 1`)
	c.Parse(`$c == 3`) // evicts $b
	if c.lru.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.lru.Len())
	}
	if _, hit, _ := c.Parse(`$a == 1`); !hit {
		t.Error("recently used entry evicted")
	}
	// Probing for $b re-inserts it, so check it last.
	if _, hit, _ := c.Parse(`$b == 2`); hit {
		t.Error("evicted entry still cached")
	}
}

func TestParseCacheDoesNotCacheErrors(t *testing.T) {
	c := NewParseCache(4)
	for i := 0; i < 3; i++ {
		if _, _, err := c.Parse(`(((`); err == nil {
			t.Fatal("bad syntax accepted")
		}
	}
	if c.lru.Len() != 0 {
		t.Errorf("error cached: Len = %d", c.lru.Len())
	}
}

func TestParseCacheConcurrent(t *testing.T) {
	c := NewParseCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src := fmt.Sprintf(`$load < %d`, i%4)
				e, _, err := c.Parse(src)
				if err != nil {
					t.Errorf("parse %q: %v", src, err)
					return
				}
				if e.String() == "" {
					t.Error("empty expr")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.lru.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.lru.Len())
	}
}

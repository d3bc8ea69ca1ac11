package query

import (
	"container/list"
	"sync"
)

// ParseCache is a bounded LRU cache of parsed expressions keyed on query
// source text. Schedulers and the failure detector issue the same handful
// of query strings over and over (one per class, per sweep), so the parse
// cost can be paid once. Parsed Exprs are immutable (see Parse), so a
// single cached expression is safely shared by concurrent evaluations.
type ParseCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	lru list.List // front = most recently used; element values are *cacheEntry
}

type cacheEntry struct {
	src  string
	expr Expr
}

// DefaultParseCacheSize bounds a cache built with NewParseCache(0).
const DefaultParseCacheSize = 256

// NewParseCache creates a cache holding up to capacity parsed queries
// (DefaultParseCacheSize when capacity <= 0).
func NewParseCache(capacity int) *ParseCache {
	if capacity <= 0 {
		capacity = DefaultParseCacheSize
	}
	return &ParseCache{cap: capacity, m: make(map[string]*list.Element, capacity)}
}

// Parse returns the parse of src, reusing a cached expression when the
// identical source was parsed before. Only successful parses are cached;
// a syntax error is returned as from Parse and cached nowhere, so a
// malformed query cannot evict live entries.
func (c *ParseCache) Parse(src string) (Expr, bool, error) {
	c.mu.Lock()
	if el, ok := c.m[src]; ok {
		c.lru.MoveToFront(el)
		expr := el.Value.(*cacheEntry).expr
		c.mu.Unlock()
		return expr, true, nil
	}
	c.mu.Unlock()

	// Parse outside the lock: a pathological query must not serialize
	// every other caller behind its parse.
	expr, err := Parse(src)
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	if el, ok := c.m[src]; ok {
		// Raced with another caller parsing the same source; keep theirs.
		c.lru.MoveToFront(el)
		expr = el.Value.(*cacheEntry).expr
	} else {
		c.m[src] = c.lru.PushFront(&cacheEntry{src: src, expr: expr})
		for c.lru.Len() > c.cap {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.m, oldest.Value.(*cacheEntry).src)
		}
	}
	c.mu.Unlock()
	return expr, false, nil
}

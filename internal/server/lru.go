package server

import (
	"container/list"
	"sync"
)

// lru is a small thread-safe LRU cache for query responses, keyed by
// ccsp.Plan.Key: the canonical request encoding, graph- and epoch-
// qualified ("v1:mssp:sources=2,7", "v1:g=roads:e=3:diameter", ...).
// Repeated source-set queries - the common pattern of a distance-serving
// workload, where hot landmarks are queried over and over - hit the cache
// and skip the engine run entirely.
//
// Concurrent misses for the same key may both compute and both store;
// queries are deterministic, so the duplicated work is a wasted run, not
// an inconsistency, and the engine itself is concurrency-safe.
type lru struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recent; values are *lruEntry
	entries map[string]*list.Element

	hits, misses int64
}

type lruEntry struct {
	key string
	val interface{}
}

// newLRU returns a cache holding up to max entries; max <= 0 disables
// caching (every Get misses, Put drops).
func newLRU(max int) *lru {
	return &lru{max: max, order: list.New(), entries: make(map[string]*list.Element)}
}

// Get returns the cached value for key and whether it was present.
func (c *lru) Get(key string) (interface{}, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put stores val under key, evicting the least-recently-used entry when
// full.
func (c *lru) Put(key string, val interface{}) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry).key)
	}
}

// Stats returns (entries, hits, misses).
func (c *lru) Stats() (int, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.misses
}

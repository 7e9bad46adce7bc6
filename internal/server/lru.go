package server

import (
	"container/list"
	"sync"

	"github.com/congestedclique/ccsp/api"
)

// lru is a small thread-safe LRU cache of query answers, keyed by
// ccsp.Plan.Key: the canonical request encoding, graph- and epoch-
// qualified ("v1:mssp:sources=2,7", "v1:g=roads:e=3:diameter", ...).
// Repeated source-set queries - the common pattern of a distance-serving
// workload, where hot landmarks are queried over and over - hit the cache
// and skip the engine run entirely.
//
// An entry is what a hit sends, not the run that made it (DESIGN.md §13,
// "the result path"): body is the canonical answer's wire bytes with
// "cached":true (api.Response.AppendJSON and the newline, JSONLen+1 bytes),
// which a /v1/query hit writes and a /v1/batch hit splices as they are. A
// one-source MSSP entry also keeps col, its n wire distances, and the run's
// stats: all a distance hit projects its pair from (Plan.FinishDistance).
// No entry holds a detection plane or row headers, and nothing writes one
// once it is stored, so concurrent hits share it unlocked. The cache is
// bounded in entries; bytes is what they retain (entry.size).
//
// Concurrent misses for the same key may both compute and both store;
// queries are deterministic, so the duplicated work is a wasted run, not
// an inconsistency, and the engine itself is concurrency-safe.
type lru struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recent; values are *lruEntry
	entries map[string]*list.Element
	bytes   int64 // the sum of the entries' sizes

	hits, misses int64
}

type lruEntry struct {
	key string
	val *entry
}

// entry is one cached answer (see lru).
type entry struct {
	body  []byte
	col   []int64    // one-source MSSP only: the run's wire distances
	stats *api.Stats // with col: the run's stats
}

// newEntry makes the entry of resp, a canonical answer in wire form. It
// copies what it keeps - the stats too, which a lent answer's envelope
// holds - so resp may be a lent answer given back right after.
func newEntry(resp api.Response) *entry {
	resp.Cached = true
	e := &entry{body: append(resp.AppendJSON(make([]byte, 0, resp.JSONLen()+1)), '\n')}
	if m := resp.MSSP; m != nil && len(m.Sources) == 1 {
		e.col = make([]int64, len(m.Dist))
		for v, row := range m.Dist {
			e.col[v] = row[0]
		}
		if resp.Stats != nil {
			stats := *resp.Stats
			e.stats = &stats
		}
	}
	return e
}

// size is the bytes e retains: its body and its column.
func (e *entry) size() int64 { return int64(len(e.body) + 8*len(e.col)) }

// newLRU returns a cache holding up to max entries; max <= 0 disables
// caching (every Get misses, Put drops).
func newLRU(max int) *lru {
	return &lru{max: max, order: list.New(), entries: make(map[string]*list.Element)}
}

// Get returns the cached entry for key and whether it was present.
func (c *lru) Get(key string) (*entry, bool) {
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
func (c *lru) Put(key string, val *entry) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += val.size()
	if el, ok := c.entries[key]; ok {
		le := el.Value.(*lruEntry)
		c.bytes -= le.val.size()
		le.val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Remove(c.order.Back()).(*lruEntry)
		c.bytes -= oldest.val.size()
		delete(c.entries, oldest.key)
	}
}

// Stats returns (entries, hits, misses).
func (c *lru) Stats() (int, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.misses
}

// Bytes returns the bytes the entries retain.
func (c *lru) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

package server

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
)

// tagged is an entry whose body is tag.
func tagged(tag string) *entry { return &entry{body: []byte(tag)} }

// TestLRUEvictionOrder pins the eviction policy: least-recently-used
// goes first, and both Get and Put refresh recency.
func TestLRUEvictionOrder(t *testing.T) {
	c := newLRU(3)
	c.Put("a", tagged("1"))
	c.Put("b", tagged("2"))
	c.Put("c", tagged("3"))

	// Touch "a" so "b" becomes the oldest, then overflow.
	if v, ok := c.Get("a"); !ok || string(v.body) != "1" {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("d", tagged("4"))
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; want LRU out first")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted; want it retained", k)
		}
	}

	// Re-putting an existing key refreshes recency and replaces the value
	// without growing the cache.
	c.Put("c", tagged("33"))
	c.Put("e", tagged("5")) // evicts "a": the oldest after c's refresh (d, c were touched later)
	if _, ok := c.Get("a"); ok {
		t.Error("a survived; re-Put of c should have refreshed c, leaving a oldest")
	}
	if v, ok := c.Get("c"); !ok || string(v.body) != "33" {
		t.Errorf("Get(c) = %v, %v; want the replaced value 33", v, ok)
	}
	if entries, _, _ := c.Stats(); entries != 3 {
		t.Errorf("entries = %d, want 3", entries)
	}
}

// TestLRUAccounting pins the hit/miss counters, including the disabled
// (max <= 0) cache where every lookup is a silent miss-without-counting.
func TestLRUAccounting(t *testing.T) {
	c := newLRU(2)
	c.Get("nope") // miss
	c.Put("k", tagged("v"))
	c.Get("k")    // hit
	c.Get("k")    // hit
	c.Get("gone") // miss
	entries, hits, misses := c.Stats()
	if entries != 1 || hits != 2 || misses != 2 {
		t.Errorf("Stats() = (%d, %d, %d), want (1, 2, 2)", entries, hits, misses)
	}

	off := newLRU(0)
	off.Put("k", tagged("v"))
	if _, ok := off.Get("k"); ok {
		t.Error("disabled cache returned a value")
	}
	if entries, hits, misses := off.Stats(); entries != 0 || hits != 0 || misses != 0 {
		t.Errorf("disabled cache Stats() = (%d, %d, %d), want zeros", entries, hits, misses)
	}
}

// TestLRUConcurrent hammers one small cache from many goroutines; run
// under -race (CI does) this is the data-race gate for the serving
// path's only shared mutable structure besides the engines themselves.
func TestLRUConcurrent(t *testing.T) {
	c := newLRU(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				if v, ok := c.Get(key); ok {
					if _, err := strconv.Atoi(string(v.body)); err != nil {
						t.Errorf("corrupted value %q under key %s", v.body, key)
						return
					}
				}
				c.Put(key, tagged(strconv.Itoa(i)))
			}
		}(g)
	}
	wg.Wait()
	entries, hits, misses := c.Stats()
	if entries > 8 {
		t.Errorf("entries = %d, want <= capacity 8", entries)
	}
	if hits+misses != 8*500 {
		t.Errorf("hits+misses = %d, want %d lookups accounted", hits+misses, 8*500)
	}
	var held int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		held += el.Value.(*lruEntry).val.size()
	}
	if got := c.Bytes(); got != held {
		t.Errorf("Bytes() = %d after concurrent puts and evictions, entries hold %d", got, held)
	}
}

package newslink

import (
	"fmt"
	"testing"

	"newslink/internal/lru"
)

// TestQueryCache pins recency: a read protects an entry from eviction and
// a re-put updates in place.
func TestQueryCache(t *testing.T) {
	c := lru.New[analyzedDoc](2)
	c.Put("a", analyzedDoc{terms: []string{"a"}})
	c.Put("b", analyzedDoc{terms: []string{"b"}})
	if an, ok := c.Get("a"); !ok || an.terms[0] != "a" {
		t.Fatal("miss on cached entry")
	}
	c.Put("c", analyzedDoc{terms: []string{"c"}}) // evicts b (a was just touched)
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU eviction failed")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	c.Put("a", analyzedDoc{terms: []string{"a2"}})
	if an, _ := c.Get("a"); an.terms[0] != "a2" {
		t.Fatal("update in place failed")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

// Regression: put on a cache constructed with max <= 0 used to call
// list.Remove(nil) — the eviction branch fired with an empty order list.
// A non-positive capacity must mean "cache disabled", not panic.
func TestQueryCacheZeroCapacity(t *testing.T) {
	for _, max := range []int{0, -1} {
		c := lru.New[analyzedDoc](max)
		c.Put("q", analyzedDoc{terms: []string{"a"}})
		c.Put("q2", analyzedDoc{terms: []string{"b"}})
		if n := c.Len(); n != 0 {
			t.Fatalf("max=%d: cached %d entries, want 0", max, n)
		}
		if _, ok := c.Get("q"); ok {
			t.Fatalf("max=%d: get returned an entry from a disabled cache", max)
		}
	}
}

// TestQueryCacheEviction pins the LRU behavior around the capacity
// boundary, including the smallest legal capacity.
func TestQueryCacheEviction(t *testing.T) {
	c := lru.New[analyzedDoc](1)
	c.Put("a", analyzedDoc{})
	c.Put("b", analyzedDoc{}) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry a should have been evicted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("entry b should be cached")
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}

	c = lru.New[analyzedDoc](3)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprint(i), analyzedDoc{})
	}
	if n := c.Len(); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	for i, want := range []bool{false, false, true, true, true} {
		if _, ok := c.Get(fmt.Sprint(i)); ok != want {
			t.Fatalf("entry %d cached = %v, want %v", i, ok, want)
		}
	}
}

package lru

import (
	"strconv"
	"sync"
	"testing"
)

// The capacity-boundary and disabled-cache cases live with the tiers that
// instantiate the cache (querycache_test.go in the engine root); the cases
// here are the ones only the algorithm itself can get wrong.

// TestPutRefreshesRecency: re-putting a key makes it the most recent
// entry, exactly like reading it, and replaces the value in place.
func TestPutRefreshesRecency(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 3) // a is now the most recent; b is next to go
	c.Put("c", 4)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived although a was refreshed by Put")
	}
	if v, ok := c.Get("a"); !ok || v != 3 {
		t.Fatalf("a = %d, %v; want 3, true", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestConcurrentHammer runs readers and writers over a key space larger
// than the capacity (run under -race): the bound holds throughout and a
// hit always returns the value that key was stored with.
func TestConcurrentHammer(t *testing.T) {
	const max, keys, workers, rounds = 8, 32, 8, 2000
	c := New[int](max)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i*7 + w*13) % keys
				key := strconv.Itoa(k)
				if i%3 == 0 {
					c.Put(key, k)
				} else if v, ok := c.Get(key); ok && v != k {
					t.Errorf("key %s holds %d", key, v)
					return
				}
				if n := c.Len(); n > max {
					t.Errorf("len %d exceeds max %d", n, max)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

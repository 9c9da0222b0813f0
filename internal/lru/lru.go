// Package lru is the one least-recently-used cache of the codebase: the
// engine's two query-analysis tiers (folded text → analysis, resolved
// entity set → embedding) and the embedder's per-entity-group subgraph
// cache are all instances of it, differing only in key derivation, value
// type and capacity.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a string-keyed LRU of at most max values, safe for concurrent
// use. Values are returned as stored: callers that cache pointers share
// them and must treat them as immutable.
type Cache[V any] struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent; values are *entry[V]
	byKey map[string]*list.Element
}

type entry[V any] struct {
	key string
	val V
}

// New returns a cache holding at most max values. max <= 0 disables it:
// Put stores nothing and every Get misses.
func New[V any](max int) *Cache[V] {
	return &Cache[V]{max: max, order: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores val under key as the most recently used entry — replacing the
// key's previous value, or evicting the least recently used entry when the
// cache is full.
func (c *Cache[V]) Put(key string, val V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*entry[V]).val = val
		return
	}
	if c.order.Len() >= c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*entry[V]).key)
	}
	c.byKey[key] = c.order.PushFront(&entry[V]{key: key, val: val})
}

// Len returns the number of cached values.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

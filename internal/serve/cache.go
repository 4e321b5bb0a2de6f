package serve

import "sync"

// lruCache is a bounded map from string key to value with
// least-recently-used eviction. A Get refreshes recency. The zero value is
// not usable; call newLRU. The server keeps two: cache key → encoded
// response body (the plan cache) and body digest → cache key (the body
// memo).
type lruCache[V any] struct {
	mu    sync.Mutex
	cap   int
	items map[string]*lruEntry[V]
	// head is most recent, tail least recent, in a doubly linked list
	// threaded through the entries.
	head, tail *lruEntry[V]
}

type lruEntry[V any] struct {
	key        string
	val        V
	prev, next *lruEntry[V]
}

// newLRU returns an empty cache holding at most capacity entries;
// capacity ≤ 0 disables caching (every Get misses, every Put drops).
func newLRU[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{cap: capacity, items: make(map[string]*lruEntry[V])}
}

// Get returns the cached value and refreshes the entry's recency.
func (c *lruCache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Put inserts or refreshes the entry, evicting from the tail when full.
// It returns the number of entries evicted (0 or 1).
func (c *lruCache[V]) Put(key string, val V) int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.val = val
		c.unlink(e)
		c.pushFront(e)
		return 0
	}
	e := &lruEntry[V]{key: key, val: val}
	c.items[key] = e
	c.pushFront(e)
	evicted := 0
	for len(c.items) > c.cap {
		victim := c.tail
		c.unlink(victim)
		delete(c.items, victim.key)
		evicted++
	}
	return evicted
}

// Len returns the number of cached entries.
func (c *lruCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *lruCache[V]) pushFront(e *lruEntry[V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruCache[V]) unlink(e *lruEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

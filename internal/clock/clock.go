// Package clock is the serving stack's one bounded-map eviction
// policy: a cost-weighted CLOCK (second-chance) cache. The verdict
// memo, the delta-seed pool and the intern pool of package service,
// and the parse memo and session registry of package httpd, are all a
// Cache behind their owner's mutex.
//
// Hits never reorder anything. A hit calls Entry.Touch, a lock-free
// atomic that may run after the owner has released its lock, so a hit
// holds the lock for a map read only. The list is ordered by insertion
// (a refresh counts as one) and the evictor supplies the recency
// signal: scanning from the cold end, a touched entry has been hit
// since the last sweep, so its bit is cleared and it rotates to the
// hot end (its second chance). Among the first min(⌈(n+1)/4⌉, 8)
// untouched entries met, n being the resident count, the cheapest goes,
// with cold-end order breaking ties. With cost 0 everywhere that is
// plain second chance; with no Touch calls it is insertion-order LRU.
// The entry being inserted is never its own victim.
package clock

import (
	"iter"
	"sync/atomic"
)

// maxSample bounds how many untouched entries one eviction weighs
// against each other. Larger samples protect expensive entries more
// aggressively but let stale ones linger; recency stays the primary
// signal because the sample is drawn from the cold end only.
const maxSample = 8

// Entry is one resident key/value pair. Key and Value are guarded by
// the owner's lock; Touch is the only method safe without it.
type Entry[K comparable, V any] struct {
	Key   K
	Value V

	// cost is the caller's recomputation price, weighed at eviction.
	cost int64
	// touched is the CLOCK bit: set by Touch, cleared by the evictor.
	touched atomic.Bool
	// prev points toward the hot end, next toward the cold end.
	prev, next *Entry[K, V]
}

// Touch records a hit. It is a lock-free atomic, so callers read the
// entry under their lock and touch it after releasing the lock.
func (e *Entry[K, V]) Touch() { e.touched.Store(true) }

// Cache is a bounded map with cost-weighted CLOCK eviction. It is not
// safe for concurrent use: callers hold their own lock for every call
// except Entry.Touch. A nil *Cache is a disabled cache: it holds
// nothing and ignores Put.
type Cache[K comparable, V any] struct {
	cap   int
	index map[K]*Entry[K, V]
	// root is the ring's sentinel: root.next is the hot end, root.prev
	// the cold end.
	root Entry[K, V]
}

// New returns a cache bounded at capacity entries, or nil (disabled)
// when capacity is not positive.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		return nil
	}
	c := &Cache[K, V]{cap: capacity, index: make(map[K]*Entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	return len(c.index)
}

// Get returns the entry for k, or nil. It does not count as a hit;
// call Touch on the entry for that.
func (c *Cache[K, V]) Get(k K) *Entry[K, V] {
	if c == nil {
		return nil
	}
	return c.index[k]
}

// Put inserts k, or refreshes it: a refresh replaces the value and
// cost and moves the entry to the hot end. Inserting into a full cache
// evicts one other entry, whose value is returned with ok set.
func (c *Cache[K, V]) Put(k K, v V, cost int64) (evicted V, ok bool) {
	if c == nil {
		return evicted, false
	}
	if e := c.index[k]; e != nil {
		e.Value, e.cost = v, cost
		c.unlink(e)
		c.pushFront(e)
		return evicted, false
	}
	if len(c.index) >= c.cap {
		victim := c.victim()
		c.unlink(victim)
		delete(c.index, victim.Key)
		evicted, ok = victim.Value, true
	}
	e := &Entry[K, V]{Key: k, Value: v, cost: cost}
	c.index[k] = e
	c.pushFront(e)
	return evicted, ok
}

// Remove deletes k, returning its value if it was resident.
func (c *Cache[K, V]) Remove(k K) (v V, ok bool) {
	e := c.Get(k)
	if e == nil {
		return v, false
	}
	c.unlink(e)
	delete(c.index, k)
	return e.Value, true
}

// Clear drops every entry.
func (c *Cache[K, V]) Clear() {
	if c == nil {
		return
	}
	clear(c.index)
	c.root.prev, c.root.next = &c.root, &c.root
}

// All yields the resident entries hottest first. The cache must not be
// modified during the iteration.
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		if c == nil {
			return
		}
		for e := c.root.next; e != &c.root; e = e.next {
			if !yield(e.Key, e.Value) {
				return
			}
		}
	}
}

// victim runs the second-chance scan and returns the entry to evict.
// It is called before the new entry is linked, so the sample counts the
// new entry (n+1) but can never pick it.
func (c *Cache[K, V]) victim() *Entry[K, V] {
	sample := min((len(c.index)+4)/4, maxSample)
	var victim *Entry[K, V]
	for e, seen := c.root.prev, 0; e != &c.root && seen < sample; {
		prev := e.prev
		if e.touched.CompareAndSwap(true, false) {
			// Hit since the last sweep: second chance. Rotated entries
			// are met again, untouched, if the scan wraps round.
			c.unlink(e)
			c.pushFront(e)
		} else {
			seen++
			if victim == nil || e.cost < victim.cost {
				victim = e
			}
		}
		e = prev
	}
	if victim == nil {
		// The scan ended at the hot end with every entry rotated (a
		// single touched resident): evict the cold end.
		victim = c.root.prev
	}
	return victim
}

func (c *Cache[K, V]) unlink(e *Entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (c *Cache[K, V]) pushFront(e *Entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}

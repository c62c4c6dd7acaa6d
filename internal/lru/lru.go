// Package lru is the one cache in front of every immutable value the serving
// path memoizes: compiled queries (serve), pick results (picker) and decoded
// partition blocks (store). Lookups are single-flight, a failed computation
// is never cached and never wedges its key, resident values are kept within a
// cost budget by LRU eviction, and Invalidate discards in-flight work along
// with resident entries. DESIGN.md, "Caching", states the contract in full.
//
// Values are shared, not copied: callers must treat them as immutable.
//
// A cache built with NewHeld also tells its values who holds them: the cache
// itself while a value is resident, and every lookup it hands the value to.
// That is what lets a value's owner reclaim what the value is made of — the
// store's block buffers — once the cache and the last reader have let go.
package lru

import "sync"

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	// Hits counts lookups served from a resident entry or by joining another
	// lookup's successful flight; Misses counts lookups that ran compute.
	Hits, Misses int64
	// Evictions counts entries dropped to stay inside the budget,
	// Invalidations the Invalidate calls.
	Evictions, Invalidations int64
	// AdmittedCost is the cumulative cost of every value admitted.
	AdmittedCost int64
	// ResidentCost and Entries describe what the cache holds now.
	ResidentCost int64
	Entries      int
	// Budget is the configured budget (<= 0: unbounded).
	Budget int64
}

// Cache is a concurrency-safe, cost-budgeted LRU with single-flight
// population. The zero value is not usable; call New.
type Cache[K comparable, V any] struct {
	cost func(V) int64
	// retain and release are the holder hooks (NewHeld); both nil otherwise.
	retain  func(V, int)
	release func(V)

	mu sync.Mutex
	// entries holds resident entries and in-flight ones (done still open).
	entries map[K]*entry[K, V]
	// root is the sentinel of the circular recency list over resident
	// entries: root.next is the most recently used, root.prev the coldest.
	root  entry[K, V]
	stats Stats // Budget is fixed at construction
}

// entry is one key's slot: in flight from creation until its leader closes
// done, then resident (linked into the recency list) if it was admitted.
type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]

	// Flight state. val, cost and err are written by the leader before it
	// closes done; admitted and waiters only change under Cache.mu, also
	// before the close. Waiters read them after done, hits under the lock.
	done     chan struct{}
	err      error
	admitted bool
	waiters  int64
}

// New returns a cache that keeps the total cost of resident values within
// budget (budget <= 0: unbounded). cost is called once per computed value,
// outside the cache lock; nil charges every value 1, making budget an entry
// count.
func New[K comparable, V any](budget int64, cost func(V) int64) *Cache[K, V] {
	return NewHeld[K](budget, cost, nil, nil)
}

// NewHeld is New for values that count their holders, given the two hooks
// that move the count. A value compute returns arrives with one holder, the
// lookup that computed it. From then on the cache calls retain(v, n) for
// every n holders it creates — one for itself when it admits v, one for each
// lookup that waited on v's flight, one for each later hit — and release(v)
// once when v stops being resident, by eviction or by Invalidate. Both run under the cache lock, so a value is
// retained for a lookup before anything could evict it, and must not call
// back into the cache. Every successful lookup therefore returns a value its
// caller holds and may release exactly once; a caller that never does only
// keeps the value from being reclaimed.
func NewHeld[K comparable, V any](budget int64, cost func(V) int64, retain func(V, int), release func(V)) *Cache[K, V] {
	if cost == nil {
		cost = func(V) int64 { return 1 }
	}
	c := &Cache[K, V]{cost: cost, retain: retain, release: release,
		entries: make(map[K]*entry[K, V]), stats: Stats{Budget: budget}}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// GetOrCompute returns the value cached under key, calling compute on a
// miss. Concurrent lookups of one absent key share a single compute: hit
// reports that the value came from the cache or from another lookup's flight,
// and a compute error goes to every lookup of that flight and is not cached.
// compute runs outside the cache lock, so different keys compute in parallel.
func (c *Cache[K, V]) GetOrCompute(key K, compute func() (V, error)) (v V, hit bool, err error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &entry[K, V]{key: key, done: make(chan struct{})}
			c.entries[key] = e
			c.stats.Misses++
			c.mu.Unlock()
			v, err = c.lead(e, compute)
			return v, false, err
		}
		if e.admitted {
			c.unlink(e)
			c.pushFront(e)
			c.stats.Hits++
			v = e.val
			if c.retain != nil {
				c.retain(v, 1)
			}
			c.mu.Unlock()
			return v, true, nil
		}
		e.waiters++
		c.mu.Unlock()
		<-e.done
		if e.admitted || e.err != nil {
			return e.val, e.admitted, e.err
		}
		// The flight was invalidated or panicked: retry, most likely as the
		// new leader.
	}
}

// lead runs the flight for e. The deferred settlement runs on every exit,
// including a panic in compute or cost (which then continues up to the
// caller), so an in-flight entry is always resolved and its waiters woken.
func (c *Cache[K, V]) lead(e *entry[K, V], compute func() (V, error)) (v V, err error) {
	computed := false
	defer func() {
		c.mu.Lock()
		// Invalidate took the slot: the flight settles nothing, waiters retry.
		if c.entries[e.key] == e {
			if computed && err == nil {
				c.admit(e)
			} else {
				delete(c.entries, e.key)
				e.err = err
			}
		}
		c.mu.Unlock()
		close(e.done)
	}()
	v, err = compute()
	if err == nil {
		e.val, e.cost = v, c.cost(v)
	}
	computed = true
	return v, err
}

// admit makes e resident as the most recently used entry, credits its
// waiters as hits — and as holders, beside the cache itself, before done
// closes and any of them can return the value — and evicts from the cold end
// until the budget holds, never e itself. Caller holds c.mu.
func (c *Cache[K, V]) admit(e *entry[K, V]) {
	e.admitted = true
	c.pushFront(e)
	if c.retain != nil {
		c.retain(e.val, 1+int(e.waiters))
	}
	c.stats.Hits += e.waiters
	c.stats.AdmittedCost += e.cost
	c.stats.ResidentCost += e.cost
	c.stats.Entries++
	for c.stats.Budget > 0 && c.stats.ResidentCost > c.stats.Budget && c.stats.Entries > 1 {
		cold := c.root.prev
		c.unlink(cold)
		delete(c.entries, cold.key)
		c.stats.ResidentCost -= cold.cost
		c.stats.Entries--
		c.stats.Evictions++
		if c.release != nil {
			c.release(cold.val)
		}
	}
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// Invalidate empties the cache, in-flight entries included: a flight that
// finishes to find its slot gone is discarded, so once Invalidate returns no
// new lookup can observe a pre-invalidation value.
func (c *Cache[K, V]) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.release != nil {
		for e := c.root.next; e != &c.root; e = e.next {
			c.release(e.val)
		}
	}
	clear(c.entries)
	c.root.next, c.root.prev = &c.root, &c.root
	c.stats.ResidentCost, c.stats.Entries = 0, 0
	c.stats.Invalidations++
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

package picker

import (
	"sync/atomic"
	"time"

	"ps3/internal/lru"
	"ps3/internal/query"
)

// SelectionKey identifies one cached pick decision: the canonical query text
// (query.Query.String(), which the picker's randomness is also derived from)
// and the resolved partition budget. Which trained snapshot produced the
// selection is not part of the key: a cache belongs to one snapshot and is
// invalidated with it.
type SelectionKey struct {
	Query string
	N     int
}

// SelectionCacheStats is a point-in-time snapshot of a cache's counters.
type SelectionCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	// AvgHitAgeMs is the mean age (time since the entry was computed) of
	// served hits — how stale the reused decisions are in practice.
	AvgHitAgeMs float64 `json:"avg_hit_age_ms"`
}

// SelectionCache memoizes pick results — the weighted selections the picker
// computes for (query, budget) — in an entry-count lru.Cache (package lru has
// the contract) and tracks how old its hits are. Picking is deterministic per
// (system seed, query text, budget), so a cached selection is byte-identical
// to a cold pick: the cache saves the work, never changes an answer.
type SelectionCache struct {
	c        *lru.Cache[SelectionKey, stampedSelection]
	hitAgeNs atomic.Int64
}

// stampedSelection is a cached selection and when its pick began.
type stampedSelection struct {
	sel  []query.WeightedPartition
	born time.Time
}

// NewSelectionCache returns a cache holding at most capacity completed
// selections (capacity <= 0 defaults to 256).
func NewSelectionCache(capacity int) *SelectionCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &SelectionCache{c: lru.New[SelectionKey, stampedSelection](int64(capacity), nil)}
}

// GetOrCompute returns the cached selection for key, computing it via
// compute on a miss. hit reports whether the selection came from the cache
// (including joining another request's in-flight computation).
func (c *SelectionCache) GetOrCompute(key SelectionKey, compute func() ([]query.WeightedPartition, error)) (sel []query.WeightedPartition, hit bool, err error) {
	s, hit, err := c.c.GetOrCompute(key, func() (stampedSelection, error) {
		born := time.Now()
		sel, err := compute()
		return stampedSelection{sel: sel, born: born}, err
	})
	if hit {
		c.hitAgeNs.Add(int64(time.Since(s.born)))
	}
	return s.sel, hit, err
}

// Invalidate empties the cache, in-flight picks included (on snapshot swap).
func (c *SelectionCache) Invalidate() { c.c.Invalidate() }

// Len returns the number of completed resident entries.
func (c *SelectionCache) Len() int { return c.c.Stats().Entries }

// Stats snapshots the counters.
func (c *SelectionCache) Stats() SelectionCacheStats {
	st := c.c.Stats()
	s := SelectionCacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		Invalidations: st.Invalidations,
		Entries:       st.Entries,
	}
	if s.Hits > 0 {
		s.AvgHitAgeMs = float64(c.hitAgeNs.Load()) / float64(s.Hits) / float64(time.Millisecond)
	}
	return s
}

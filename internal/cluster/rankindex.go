package cluster

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"
)

// RankIndex is the per-column rank order of a fixed set of n items whose
// values sit row-major in one n×m matrix (item i's column j at [i*m+j]):
// for each column, every item's rank by ascending value, ties broken by item
// id, and the values in rank order. MedianExemplars reads a cluster's median
// from it by marking its members' ranks in a bitmap and selecting the middle
// set bit, instead of gathering and sorting their values.
//
// Columns are built on first use, each on its own, and never change once
// published: concurrent readers share a column lock-free, and two goroutines
// that race to build one build the same column. The matrix must not change
// while the index is in use.
type RankIndex struct {
	n, m int
	vals []float64
	cols []atomic.Pointer[rankColumn]
}

// rankColumn is one column of a RankIndex. A column holding a NaN has no
// total order to rank by: nan is set and the slices are nil, and medians over
// it sort their members instead.
type rankColumn struct {
	rank   []int32   // item → rank
	sorted []float64 // rank → value
	nan    bool
}

// NewRankIndex returns an index over the n×m row-major matrix vals with no
// column built yet.
func NewRankIndex(vals []float64, n, m int) *RankIndex {
	return &RankIndex{n: n, m: m, vals: vals[:n*m], cols: make([]atomic.Pointer[rankColumn], m)}
}

// Extended returns an index over vals, a matrix of n ≥ ix's item count rows
// whose first rows are ix's matrix unchanged (a statistics store extended by
// new partitions). Every column ix has built is carried over by merging the
// new items into its rank order — O(n) per column instead of a sort — and the
// others stay unbuilt.
func (ix *RankIndex) Extended(vals []float64, n int) *RankIndex {
	out := NewRankIndex(vals, n, ix.m)
	var order []int32
	var fresh []rankPair
	for j := range ix.cols {
		old := ix.cols[j].Load()
		if old == nil {
			continue
		}
		fresh = out.pairs(fresh[:0], j, ix.n, n)
		col := &rankColumn{nan: old.nan}
		for _, p := range fresh {
			col.nan = col.nan || math.IsNaN(p.v)
		}
		if !col.nan {
			order = old.order(order)
			col.merge(order, old.sorted, fresh, n)
		}
		out.cols[j].Store(col)
	}
	return out
}

// column returns column j, building it on first use.
func (ix *RankIndex) column(j int) *rankColumn {
	if c := ix.cols[j].Load(); c != nil {
		return c
	}
	c := &rankColumn{}
	pairs := ix.pairs(nil, j, 0, ix.n)
	for _, p := range pairs {
		c.nan = c.nan || math.IsNaN(p.v)
	}
	if !c.nan {
		c.merge(nil, nil, pairs, ix.n)
	}
	if !ix.cols[j].CompareAndSwap(nil, c) {
		return ix.cols[j].Load()
	}
	return c
}

// rankPair is one item's value in a column being ranked.
type rankPair struct {
	v  float64
	id int32
}

// pairs appends items [lo, hi) of column j to dst, sorted by (value, id).
// −0 and +0 compare equal, so they order by id like any other tie.
func (ix *RankIndex) pairs(dst []rankPair, j, lo, hi int) []rankPair {
	for i := lo; i < hi; i++ {
		dst = append(dst, rankPair{ix.vals[i*ix.m+j], int32(i)})
	}
	slices.SortFunc(dst, func(a, b rankPair) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	return dst
}

// order returns the items of c in rank order, reusing dst.
func (c *rankColumn) order(dst []int32) []int32 {
	dst = slices.Grow(dst[:0], len(c.rank))[:len(c.rank)]
	for id, r := range c.rank {
		dst[r] = int32(id)
	}
	return dst
}

// merge fills c with the rank order of n items: the ones listed in order
// (values in sorted), all with lower ids than every item of fresh, merged
// with fresh, which is sorted by (value, id). An equal value keeps the old
// item first, which is the lower id.
func (c *rankColumn) merge(order []int32, sorted []float64, fresh []rankPair, n int) {
	c.rank = make([]int32, n)
	c.sorted = make([]float64, n)
	a, b := 0, 0
	for r := 0; r < n; r++ {
		if b == len(fresh) || (a < len(order) && !(fresh[b].v < sorted[a])) {
			c.rank[order[a]] = int32(r)
			c.sorted[r] = sorted[a]
			a++
		} else {
			c.rank[fresh[b].id] = int32(r)
			c.sorted[r] = fresh[b].v
			b++
		}
	}
}

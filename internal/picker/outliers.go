package picker

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"ps3/internal/query"
	"ps3/internal/stats"
)

// outlierMemo remembers findOutliers' split per statistics store, outlier
// configuration and group-by column list: nothing else a query carries
// changes it, and recomputing it read every partition's bitmaps and sorted
// them on every pick. A Picker is copied by value (lesion variants), so the
// memo sits behind a pointer the copies share — the key carries the
// configuration they may differ in — and Rebound hands its copy a fresh one.
type outlierMemo struct {
	mu sync.RWMutex
	m  map[outlierKey]outlierSplit
}

// outlierMemoCols and outlierMemoCap bound what the memo keeps: a group-by
// list of more bitmap-bearing columns than fit the key, or a split past the
// entry cap (an ad-hoc workload naming ever new column lists), is computed
// and not remembered.
const (
	outlierMemoCols = 8
	outlierMemoCap  = 256
)

type outlierKey struct {
	ts      *stats.TableStats
	total   int
	absSize int
	relSize uint64 // math.Float64bits of OutlierRelSize
	ncols   int
	cols    [outlierMemoCols]int32
}

// outlierSplit is one remembered answer; its slices are shared by every pick
// that reads it and are capacity-clipped, so an append copies.
type outlierSplit struct{ outliers, rest []int }

// findOutliers groups partitions by their group-by-column occurrence
// bitmaps and flags partitions in small groups (absolute < OutlierAbsSize
// and relative < OutlierRelSize × largest). Returns (outliers sorted by
// ascending group size, then by first member, members ascending; remaining
// partitions ascending). Callers must not modify the returned slices: they
// may be the memo's.
func (p *Picker) findOutliers(q *query.Query, total int) (outliers, rest []int) {
	if len(q.GroupBy) == 0 {
		return nil, allParts(total)
	}
	// Bitmap-bearing group-by columns.
	var cols []int
	for _, name := range q.GroupBy {
		ci := p.TS.Schema.ColIndex(name)
		if ci < 0 {
			continue
		}
		if _, ok := p.TS.GlobalHH[ci]; ok {
			cols = append(cols, ci)
		}
	}
	if len(cols) == 0 {
		return nil, allParts(total)
	}
	memo := p.outliers
	if memo == nil || len(cols) > outlierMemoCols {
		return p.groupOutliers(cols, total)
	}
	key := outlierKey{
		ts:      p.TS,
		total:   total,
		absSize: p.Cfg.OutlierAbsSize,
		relSize: math.Float64bits(p.Cfg.OutlierRelSize),
		ncols:   len(cols),
	}
	for i, ci := range cols {
		key.cols[i] = int32(ci)
	}
	memo.mu.RLock()
	sp, ok := memo.m[key]
	memo.mu.RUnlock()
	if ok {
		return sp.outliers, sp.rest
	}
	outliers, rest = p.groupOutliers(cols, total)
	sp = outlierSplit{slices.Clip(outliers), slices.Clip(rest)}
	memo.mu.Lock()
	if memo.m == nil {
		memo.m = make(map[outlierKey]outlierSplit)
	}
	if len(memo.m) < outlierMemoCap {
		memo.m[key] = sp
	}
	memo.mu.Unlock()
	return sp.outliers, sp.rest
}

// groupOutliers is findOutliers' computation over the resolved columns.
// Partitions group by the exact tuple of their bitmaps over cols — one sort
// of the partitions by (tuple, partition) makes each group a contiguous run
// with ascending members.
func (p *Picker) groupOutliers(cols []int, total int) (outliers, rest []int) {
	w := len(cols)
	tuples := make([]uint32, total*w)
	for i := 0; i < total; i++ {
		for a, ci := range cols {
			tuples[i*w+a] = p.TS.Parts[i].Bitmap[ci]
		}
	}
	tuple := func(i int) []uint32 { return tuples[i*w : (i+1)*w] }
	order := allParts(total)
	slices.SortFunc(order, func(a, b int) int {
		if c := slices.Compare(tuple(a), tuple(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	type span struct{ lo, hi int } // order[lo:hi] is one bitmap group
	var groups []span
	largest := 0
	for lo := 0; lo < total; {
		hi := lo + 1
		for hi < total && slices.Equal(tuple(order[hi]), tuple(order[lo])) {
			hi++
		}
		groups = append(groups, span{lo, hi})
		largest = max(largest, hi-lo)
		lo = hi
	}
	var outGroups []span
	for _, g := range groups {
		if n := g.hi - g.lo; n < p.Cfg.OutlierAbsSize &&
			float64(n) < p.Cfg.OutlierRelSize*float64(largest) {
			outGroups = append(outGroups, g)
		}
	}
	slices.SortFunc(outGroups, func(a, b span) int {
		if c := cmp.Compare(a.hi-a.lo, b.hi-b.lo); c != 0 {
			return c
		}
		return cmp.Compare(order[a.lo], order[b.lo])
	})
	isOutlier := make([]bool, total)
	for _, g := range outGroups {
		for _, part := range order[g.lo:g.hi] {
			outliers = append(outliers, part)
			isOutlier[part] = true
		}
	}
	for i := 0; i < total; i++ {
		if !isOutlier[i] {
			rest = append(rest, i)
		}
	}
	return outliers, rest
}

package cluster

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
)

// Exemplar is one selected representative: the index of the chosen point and
// the weight it carries (its cluster's size, §4.2).
type Exemplar struct {
	Point  int
	Weight float64
}

// MedianIndex lets MedianExemplars read medians from a RankIndex instead of
// sorting: point k is the index's item Items[k] (no item twice), and point
// column a is the index's column Cols[a], or −1 for a column the index does
// not hold (a per-query value).
type MedianIndex struct {
	Ranks *RankIndex
	Items []int
	Cols  []int32
}

// medScratch is the pooled working set of MedianExemplars: the counting sort
// of members by cluster, the median vector and sort column, the rank bitmap,
// the resolved index columns and one cluster's indexed items.
type medScratch struct {
	counts, next, idx []int
	med, col          []float64
	bm                []uint64
	cols              []*rankColumn
	items             []int32
}

var medPool sync.Pool

// medianVector computes the coordinate-wise median of the given points into
// med, using col (len ≥ len(members)) as sorting scratch. A column with an
// entry in cols (non-nil) is read from the rank index instead: items holds
// the members' indexed items, and bm (one bit per indexed item, all zero) is
// the rank bitmap, left all zero again.
func medianVector(points [][]float64, members []int, med, col []float64, cols []*rankColumn, items []int32, bm []uint64) {
	n := len(members)
	for j := range med {
		if j < len(cols) && cols[j] != nil {
			med[j] = indexedMedian(cols[j], items, bm)
			continue
		}
		c := col[:n]
		for i, m := range members {
			c[i] = points[m][j]
		}
		sortSmall(c)
		if n%2 == 1 {
			med[j] = c[n/2]
		} else {
			med[j] = (c[n/2-1] + c[n/2]) / 2
		}
	}
}

// indexedMedian is the median of the items' values in one ranked column:
// each item's rank becomes one set bit, and the middle set bit (for an even
// count, the two middle ones) is found by popcount over the words between
// the lowest and the highest rank. The values at those ranks are the middle
// values of the sorted members, so the median is the one sorting computes,
// bit for bit up to the sign of a zero, which no distance to it can see.
func indexedMedian(c *rankColumn, items []int32, bm []uint64) float64 {
	lo, hi := int32(math.MaxInt32), int32(0)
	for _, it := range items {
		r := c.rank[it]
		bm[r>>6] |= 1 << (r & 63)
		lo, hi = min(lo, r), max(hi, r)
	}
	words := bm[lo>>6 : hi>>6+1]
	base := int(lo>>6) << 6
	n := len(items)
	r := selectBit(words, (n-1)/2)
	v := c.sorted[base+r]
	if n%2 == 0 {
		v = (v + c.sorted[base+nextBit(words, r)]) / 2
	}
	clear(words)
	return v
}

// selectBit returns the position of the t-th set bit of bm (0-based), which
// must exist.
func selectBit(bm []uint64, t int) int {
	for w, x := range bm {
		c := bits.OnesCount64(x)
		if t >= c {
			t -= c
			continue
		}
		for ; t > 0; t-- {
			x &= x - 1
		}
		return w<<6 | bits.TrailingZeros64(x)
	}
	panic("cluster: rank bitmap holds fewer set bits than members")
}

// nextBit returns the position of the first set bit of bm after r, which
// must exist.
func nextBit(bm []uint64, r int) int {
	w := r >> 6
	if x := bm[w] &^ (2<<(r&63) - 1); x != 0 {
		return w<<6 | bits.TrailingZeros64(x)
	}
	for w++; bm[w] == 0; w++ {
	}
	return w<<6 | bits.TrailingZeros64(bm[w])
}

// bitmapCheaper reports whether a cluster of n members reads its medians
// from a rank index over items indexed items more cheaply than it sorts
// them. Per column, marking and clearing the ranks costs about 6n word
// operations and the popcount scan about 2 per bitmap word it spans, against
// about n² for insertion sort's shifts behind hard-to-predict branches
// (slices.Sort, past 64 members, costs more still); measured at 64 to 6 400
// items. So clusters of up to 6 members always sort, and a table of many
// items sorts its small clusters.
func bitmapCheaper(n, items int) bool {
	return 6*n+2*((items+63)/64) < n*n
}

// sortSmall sorts c ascending. Median columns are one cluster's members —
// about ten values at serving budgets — where a plain insertion sort beats
// the general sort's dispatch; longer columns take slices.Sort. On NaN-free
// columns both leave the same sorted values, so the medians do not depend
// on which ran.
func sortSmall(c []float64) {
	if len(c) > 64 {
		slices.Sort(c)
		return
	}
	for i := 1; i < len(c); i++ {
		v := c[i]
		j := i
		for ; j > 0 && c[j-1] > v; j-- {
			c[j] = c[j-1]
		}
		c[j] = v
	}
}

// MedianExemplars picks, for each cluster, the member closest to the
// cluster's median feature vector — the paper's (biased, zero-variance)
// estimator. Weights equal cluster sizes. Cluster membership is gathered by
// a counting pass into one backing array, and the scratch is pooled, so the
// only retained allocation is the result.
//
// ix, when non-nil, supplies the medians of the columns it indexes from a
// RankIndex (see MedianIndex) for every cluster the bitmap serves more
// cheaply than a sort (bitmapCheaper); a column holding a NaN, a column the
// index does not hold and a cluster too small for the bitmap sort their
// members. Either way the medians, and so the exemplars, are the same bit for
// bit. A cluster of one member is its own exemplar without a median.
func MedianExemplars(points [][]float64, a Assignment, ix *MedianIndex) []Exemplar {
	n := len(a.Labels)
	if n == 0 {
		return nil
	}
	dim := len(points[0])
	sc, _ := medPool.Get().(*medScratch)
	if sc == nil {
		sc = &medScratch{}
	}
	defer medPool.Put(sc)
	// Counting-sort members by cluster: counts[c] marks each cluster's
	// segment in the shared index array.
	counts := grow(sc.counts, a.K+1)
	clear(counts)
	for _, l := range a.Labels {
		counts[l+1]++
	}
	for c := 1; c <= a.K; c++ {
		counts[c] += counts[c-1]
	}
	idx := grow(sc.idx, n)
	next := grow(sc.next, a.K)
	clear(next)
	for i, l := range a.Labels {
		idx[counts[l]+next[l]] = i
		next[l]++
	}
	sc.counts, sc.idx, sc.next = counts, idx, next
	med := grow(sc.med, dim)
	col := grow(sc.col, n)
	sc.med, sc.col = med, col
	var cols []*rankColumn
	var bm []uint64
	if ix != nil {
		cols = grow(sc.cols, dim)
		for j := range cols {
			cols[j] = nil
			if ic := ix.Cols[j]; ic >= 0 {
				if rc := ix.Ranks.column(int(ic)); !rc.nan {
					cols[j] = rc
				}
			}
		}
		sc.cols = cols
		bm = grow(sc.bm, (ix.Ranks.n+63)/64)
		clear(bm)
		sc.bm = bm
	}
	out := make([]Exemplar, 0, a.K)
	for c := 0; c < a.K; c++ {
		members := idx[counts[c]:counts[c+1]]
		if len(members) == 0 {
			continue
		}
		best := members[0]
		if len(members) > 1 {
			var mcols []*rankColumn
			var items []int32
			if ix != nil && bitmapCheaper(len(members), ix.Ranks.n) {
				items = grow(sc.items, len(members))
				for i, m := range members {
					items[i] = int32(ix.Items[m])
				}
				sc.items = items
				mcols = cols
			}
			medianVector(points, members, med, col, mcols, items, bm)
			bestD := sqDist(points[best], med)
			for _, m := range members[1:] {
				if d := sqDistBounded(points[m], med, bestD); d < bestD {
					best, bestD = m, d
				}
			}
		}
		out = append(out, Exemplar{Point: best, Weight: float64(len(members))})
	}
	if cols != nil {
		clear(cols) // drop the pool's references to the index
	}
	return out
}

// grow returns s resliced to length n, reallocated if its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// RandomExemplars picks a uniformly random member per cluster — the unbiased
// estimator of Appendix D, analyzed as stratified SRSWoR with one draw per
// stratum.
func RandomExemplars(points [][]float64, a Assignment, rng *rand.Rand) []Exemplar {
	var out []Exemplar
	for _, members := range a.Members() {
		if len(members) == 0 {
			continue
		}
		pick := members[rng.Intn(len(members))]
		out = append(out, Exemplar{Point: pick, Weight: float64(len(members))})
	}
	return out
}

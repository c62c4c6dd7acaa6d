package cluster

import (
	"container/heap"
	"math"
)

// Linkage selects the HAC merge criterion.
type Linkage uint8

const (
	// Single linkage merges the pair of clusters with the smallest minimum
	// inter-point distance.
	Single Linkage = iota
	// Ward linkage merges the pair minimizing the increase in total
	// within-cluster variance.
	Ward
)

// HAC performs bottom-up hierarchical agglomerative clustering down to k
// clusters using the Lance–Williams update for the chosen linkage. Intended
// for the picker's per-group budgets (hundreds of points); complexity is
// O(n² log n).
func HAC(points [][]float64, k int, linkage Linkage) Assignment {
	n := len(points)
	if k > n {
		k = n
	}
	if n == 0 || k <= 0 {
		return Assignment{Labels: make([]int, n), K: max(k, 1)}
	}
	// dist holds current inter-cluster distances; active marks live
	// clusters; size their cardinalities.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var d float64
			if linkage == Ward {
				// Ward over singletons starts from squared Euclidean / 2 *
				// (constant factors don't change merge order; use the
				// standard d² form).
				d = sqDist(points[i], points[j])
			} else {
				d = math.Sqrt(sqDist(points[i], points[j]))
			}
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	active := make([]bool, n)
	size := make([]int, n)
	parent := make([]int, n)
	for i := range active {
		active[i] = true
		size[i] = 1
		parent[i] = i
	}

	pq := &pairHeap{}
	heap.Init(pq)
	version := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			heap.Push(pq, pairItem{d: dist[i][j], a: i, b: j, va: 0, vb: 0})
		}
	}

	clusters := n
	for clusters > k && pq.Len() > 0 {
		it := heap.Pop(pq).(pairItem)
		a, b := it.a, it.b
		if !active[a] || !active[b] || version[a] != it.va || version[b] != it.vb {
			continue
		}
		// Merge b into a via Lance–Williams.
		na, nb := float64(size[a]), float64(size[b])
		for x := 0; x < n; x++ {
			if !active[x] || x == a || x == b {
				continue
			}
			var nd float64
			switch linkage {
			case Single:
				nd = math.Min(dist[a][x], dist[b][x])
			case Ward:
				nx := float64(size[x])
				t := na + nb + nx
				nd = ((na+nx)*dist[a][x] + (nb+nx)*dist[b][x] - nx*dist[a][b]) / t
			}
			dist[a][x] = nd
			dist[x][a] = nd
		}
		active[b] = false
		parent[b] = a
		size[a] += size[b]
		version[a]++
		clusters--
		for x := 0; x < n; x++ {
			if active[x] && x != a {
				heap.Push(pq, pairItem{d: dist[a][x], a: min(a, x), b: max(a, x),
					va: versionOf(version, min(a, x)), vb: versionOf(version, max(a, x))})
			}
		}
	}

	// Compress parents to roots, then relabel densely.
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	labelOf := map[int]int{}
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		r := find(i)
		l, ok := labelOf[r]
		if !ok {
			l = len(labelOf)
			labelOf[r] = l
		}
		labels[i] = l
	}
	return Assignment{Labels: labels, K: len(labelOf)}
}

func versionOf(v []int, i int) int { return v[i] }

// pairItem is a candidate merge with version stamps for lazy invalidation.
type pairItem struct {
	d      float64
	a, b   int
	va, vb int
}

type pairHeap []pairItem

func (h pairHeap) Len() int            { return len(h) }
func (h pairHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(pairItem)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

package cluster

import (
	"math/rand"
	"slices"
)

// Exemplar is one selected representative: the index of the chosen point and
// the weight it carries (its cluster's size, §4.2).
type Exemplar struct {
	Point  int
	Weight float64
}

// medianVector computes the coordinate-wise median of the given points into
// med, using col (len ≥ len(members)) as sorting scratch.
func medianVector(points [][]float64, members []int, med, col []float64) {
	for j := range med {
		c := col[:len(members)]
		for i, m := range members {
			c[i] = points[m][j]
		}
		sortSmall(c)
		n := len(c)
		if n%2 == 1 {
			med[j] = c[n/2]
		} else {
			med[j] = (c[n/2-1] + c[n/2]) / 2
		}
	}
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
// a counting pass into one backing array, and the median/sort scratch is
// shared across clusters, so the only retained allocation is the result.
func MedianExemplars(points [][]float64, a Assignment) []Exemplar {
	n := len(a.Labels)
	if n == 0 {
		return nil
	}
	// Counting-sort members by cluster: starts[c] marks each cluster's
	// segment in the shared index array.
	counts := make([]int, a.K+1)
	for _, l := range a.Labels {
		counts[l+1]++
	}
	for c := 1; c <= a.K; c++ {
		counts[c] += counts[c-1]
	}
	idx := make([]int, n)
	next := make([]int, a.K)
	for i, l := range a.Labels {
		idx[counts[l]+next[l]] = i
		next[l]++
	}
	dim := len(points[0])
	scratch := make([]float64, dim+n)
	med, col := scratch[:dim], scratch[dim:]
	out := make([]Exemplar, 0, a.K)
	for c := 0; c < a.K; c++ {
		members := idx[counts[c]:counts[c+1]]
		if len(members) == 0 {
			continue
		}
		medianVector(points, members, med, col)
		best, bestD := members[0], sqDist(points[members[0]], med)
		for _, m := range members[1:] {
			if d := sqDistBounded(points[m], med, bestD); d < bestD {
				best, bestD = m, d
			}
		}
		out = append(out, Exemplar{Point: best, Weight: float64(len(members))})
	}
	return out
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

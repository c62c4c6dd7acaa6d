// Package cluster implements the clustering-based sample selection of paper
// §4.2: k-means++ and hierarchical agglomerative clustering (single and Ward
// linkage) over normalized partition feature vectors, exemplar selection
// (biased closest-to-median or unbiased random member, Appendix D), and the
// greedy leave-one-out feature selection of Algorithm 3.
//
// Two k-means implementations share the k-means++ seeding and the in-place
// Lloyd center update: KMeansReference is the frozen exact sweep (every
// point scans every center each iteration), and KMeans is the
// triangle-inequality-bounded production path (bounded.go) that skips the
// vast majority of those scans while assigning identical labels whenever
// nearest centers are unique.
package cluster

import (
	"math"
	"math/rand"
)

// Assignment maps each input point to a cluster id in [0, K).
type Assignment struct {
	Labels []int
	K      int
}

// Members returns the point indexes of each cluster.
func (a Assignment) Members() [][]int {
	out := make([][]int, a.K)
	for i, l := range a.Labels {
		out[l] = append(out[l], i)
	}
	return out
}

// sqDist is the squared Euclidean distance, summed in four independent
// lanes: element i accumulates into lane i%4 (the ≤ 3 elements past the last
// full group of four go to lane 0) and the lanes combine as
// (s0+s1)+(s2+s3). One serial chain of floating adds — add latency per
// dimension — was the price of every distance; four chains overlap. The
// loop takes two groups per pass, the shape sqDistBounded shares.
func sqDist(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 8 && len(b) >= 8 {
		d0, d1, d2, d3 := a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d0, d1, d2, d3 = a[4]-b[4], a[5]-b[5], a[6]-b[6], a[7]-b[7]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		a, b = a[8:], b[8:]
	}
	if len(a) >= 4 && len(b) >= 4 {
		d0, d1, d2, d3 := a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		a, b = a[4:], b[4:]
	}
	for i := range a {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// sqDistBounded is sqDist with early abandoning: every 8 dimensions it
// combines the lanes and returns the partial sum if that reached bound. The
// lane assignment and combine are exactly sqDist's, so a call that never
// abandons returns sqDist(a, b) bit for bit. Each lane only ever adds
// non-negative terms and so is monotone non-decreasing under IEEE
// round-to-nearest, and a rounded sum is monotone in each operand, so the
// combine of the partial lanes never exceeds the combine of the full lanes:
// "partial ≥ bound ⇒ full sum ≥ bound" holds exactly. A caller testing
// d < bound takes the same branch as with the full distance, making this a
// bit-exact drop-in for nearest-neighbor searches; an abandoned call returns
// a value in [bound, sqDist(a, b)].
func sqDistBounded(a, b []float64, bound float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 8 && len(b) >= 8 {
		d0, d1, d2, d3 := a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d0, d1, d2, d3 = a[4]-b[4], a[5]-b[5], a[6]-b[6], a[7]-b[7]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		a, b = a[8:], b[8:]
		if s := (s0 + s1) + (s2 + s3); s >= bound {
			return s
		}
	}
	if len(a) >= 4 && len(b) >= 4 {
		d0, d1, d2, d3 := a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		a, b = a[4:], b[4:]
	}
	for i := range a {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// seedKMeansPP fills centers (k rows, each len(points[0]) wide) with the
// k-means++ seeds. The rng consumption sequence — one Intn for the first
// seed, then per additional seed either an Intn (degenerate all-zero
// distance mass) or a Float64 — and every floating-point comparison are
// exactly those of the historical inline seeding, so both k-means
// implementations start from bit-identical centers given the same rng.
// d2 is caller-provided scratch of len(points).
//
// When labels is non-nil (all zeros on entry), it receives the index of
// each point's nearest seed. Per point, the seeding's running-min updates
// are exactly the first Lloyd sweep's scan over the final centers —
// center 0 exact, then each added center early-abandoned at the running
// best with a strict-< improvement test — so on return labels and d2 ARE
// that sweep's assignment and best squared distances, bit for bit, without
// computing a single extra distance.
//
// When lbsq is non-nil (n×k row-major), entry [i*k+c] receives the partial
// sum the scan of center c accumulated — a valid lower bound on the true
// squared distance, and the exact distance whenever the scan completed.
// Seeds never move once placed, so these bounds hold for the final seed
// positions; the bounded path turns them into its initial lower-bound
// matrix for free.
//
// When seedScr is non-nil (len ≥ k scratch; requires labels and lbsq), the
// per-point scans are additionally pruned with the triangle inequality:
// each new seed first measures its distance to every prior seed, and a point
// whose nearest seed a satisfies d(seed, a) ≥ 2·d(p, a) is skipped outright
// — d(p, seed) ≥ d(seed, a) − d(p, a) ≥ d(p, a), so the strict-< running-min
// update could not fire, and d2/labels are unchanged; lbsq banks d2[i],
// which the same inequality proves is a valid (squared) lower bound. The
// comparison runs on rounded sums, so in principle a skip decision can
// differ from the computed distance by ulps when d(seed, a) sits exactly at
// 2·d(p, a); like movement-delta drift this is an ulp-level tie-break-only
// effect, covered by the documented divergence contract of KMeansBounded.
// The reference path (seedScr == nil) is untouched.
func seedKMeansPP(points [][]float64, k int, rng *rand.Rand, centers [][]float64, d2 []float64, labels []int, lbsq, seedScr []float64) {
	n := len(points)
	first := rng.Intn(n)
	copy(centers[0], points[first])
	for i := range d2 {
		d2[i] = sqDist(points[i], centers[0])
		if lbsq != nil {
			lbsq[i*k] = d2[i]
		}
	}
	for c := 1; c < k; c++ {
		var sum float64
		for _, d := range d2 {
			sum += d
		}
		var pick int
		if sum <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * sum
			acc := 0.0
			pick = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		}
		copy(centers[c], points[pick])
		if seedScr != nil {
			// seedScr[s] = ¼·d²(new seed, seed s): the skip test
			// d(seed, a) ≥ 2·d(p, a) in squared form is seedScr[a] ≥ d2[i]
			// (both scalings by powers of two are exact).
			for s := 0; s < c; s++ {
				seedScr[s] = 0.25 * sqDist(centers[c], centers[s])
			}
			for i := range d2 {
				if seedScr[labels[i]] >= d2[i] {
					lbsq[i*k+c] = d2[i]
					continue
				}
				d := sqDistBounded(points[i], centers[c], d2[i])
				lbsq[i*k+c] = d
				if d < d2[i] {
					d2[i] = d
					labels[i] = c
				}
			}
			continue
		}
		for i := range d2 {
			d := sqDistBounded(points[i], centers[c], d2[i])
			if lbsq != nil {
				lbsq[i*k+c] = d
			}
			if d < d2[i] {
				d2[i] = d
				if labels != nil {
					labels[i] = c
				}
			}
		}
	}
}

// updateCenters recomputes centers in place as the mean of their members
// (accumulating in point order, so the arithmetic is reproducible), and
// re-seeds any empty cluster at the point farthest from its current center,
// relabeling that point. The farthest-point search compares exact distances
// with a strict > (ties keep the earliest point), so the selected point is
// well-defined; early abandoning is useless for a max search (every loser
// scans all dimensions anyway) and is deliberately not used. Returns the
// indexes of re-seeded (relabeled) points, if any.
//
// The scan deliberately mirrors the historical in-place update: clusters
// before c hold finalized means while clusters after c still hold raw sums
// when c's re-seed scan runs. Both k-means implementations share it, which
// is what keeps their center trajectories bit-identical.
func updateCenters(points [][]float64, labels []int, centers [][]float64, counts []int) (reseeded []int) {
	if len(points) == 0 {
		return nil
	}
	dim := len(points[0])
	for c := range counts {
		counts[c] = 0
	}
	for c := range centers {
		for j := 0; j < dim; j++ {
			centers[c][j] = 0
		}
	}
	for i, p := range points {
		c := labels[i]
		counts[c]++
		row := centers[c]
		for j, v := range p {
			row[j] += v
		}
	}
	// dcache memoizes each point's squared distance to its cluster's center
	// across the call's re-seed scans: between two scans only the clusters
	// divided in between (stale) and the relabeled point change, so later
	// scans refresh just those entries. Allocated only when a re-seed
	// happens.
	var dcache []float64
	var stale []bool
	for c := range centers {
		if counts[c] == 0 {
			// Re-seed empty cluster at the farthest point (exact distances,
			// strict >, so ties keep the earliest point).
			if dcache == nil {
				dcache = make([]float64, len(points))
				stale = make([]bool, len(centers))
				for i, p := range points {
					dcache[i] = sqDist(p, centers[labels[i]])
				}
			} else {
				for i, p := range points {
					if stale[labels[i]] {
						dcache[i] = sqDist(p, centers[labels[i]])
					}
				}
				clear(stale)
			}
			far, farD := 0, -1.0
			for i, d := range dcache {
				if d > farD {
					far, farD = i, d
				}
			}
			copy(centers[c], points[far])
			labels[far] = c
			dcache[far] = 0 // sqDist(p, p) is exactly zero
			reseeded = append(reseeded, far)
			continue
		}
		inv := 1 / float64(counts[c])
		for j := range centers[c] {
			centers[c][j] *= inv
		}
		if stale != nil {
			stale[c] = true
		}
	}
	return reseeded
}

// KMeansReference clusters points into k clusters with k-means++ seeding and
// exact Lloyd iterations: every point computes its distance to every center
// each iteration. Deterministic given rng. k is clamped to len(points).
//
// This is the frozen baseline the bounded production path (KMeans) is
// equivalence-tested against; serving never calls it.
func KMeansReference(points [][]float64, k int, rng *rand.Rand, maxIter int) Assignment {
	n := len(points)
	if k > n {
		k = n
	}
	if k <= 0 || n == 0 {
		return Assignment{Labels: make([]int, n), K: max(k, 1)}
	}
	if maxIter <= 0 {
		maxIter = 25
	}
	dim := len(points[0])

	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
	}
	seedKMeansPP(points, k, rng, centers, make([]float64, n), nil, nil, nil)

	labels := make([]int, n)
	counts := make([]int, k)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := sqDistBounded(p, centers[c], bestD); d < bestD {
					best, bestD = c, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed = true
			}
		}
		if iter > 0 && !changed {
			// The centers are already the means of these labels (computed
			// by the previous iteration's update, whose reseeds would have
			// set changed), so the update would recompute them bit for bit.
			break
		}
		if len(updateCenters(points, labels, centers, counts)) > 0 {
			changed = true
		}
		if !changed {
			break
		}
	}
	return Assignment{Labels: labels, K: k}
}

// KMeans clusters points into k clusters on the triangle-inequality-bounded
// production path with default options. Deterministic given rng. k is
// clamped to len(points). See KMeansBounded for the bounds machinery and
// the (tie-break-only) divergence contract against KMeansReference.
func KMeans(points [][]float64, k int, rng *rand.Rand, maxIter int) Assignment {
	return KMeansBounded(points, k, rng, KMeansOpts{MaxIter: maxIter})
}

package cluster

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"ps3/internal/exec"
)

// KMeansOpts configures the bounded k-means production path.
type KMeansOpts struct {
	// MaxIter bounds Lloyd iterations (0 = 25, the reference default).
	MaxIter int
	// Parallelism bounds the worker goroutines of each assignment sweep
	// (0 = GOMAXPROCS). Labels are bit-identical at every setting: points
	// write only their own label/bound slots and read centers that are
	// immutable for the duration of a sweep.
	Parallelism int
	// Strict disables triangle-inequality pruning: every point scans every
	// center each iteration with exactly the reference's comparison
	// sequence, so the result is bit-identical to the exact sweep
	// (KMeansReference in the package tests) by construction. Training's
	// feature selection runs it, so an exclusion set never turns on a
	// near-tie the pruned sweeps break differently; the equivalence suite
	// uses it to prove the flat center storage, the parallel sweep and the
	// shared center update introduce no divergence of their own. Serving
	// always runs the default (pruned) mode.
	Strict bool
	// Stats, when non-nil, accumulates the assignment sweeps' work counters.
	Stats *KMeansStats
}

// KMeansStats counts the assignment sweeps' distance work. Seeding and
// center updates are identical between the bounded and reference paths and
// are not counted.
type KMeansStats struct {
	// Iterations is the number of Lloyd iterations run.
	Iterations int
	// PointDists is the number of point↔center distance evaluations the
	// assignment sweeps performed: the initial full sweep counts k per
	// point, a bound tightening or candidate check counts 1, a pruned
	// center counts 0.
	PointDists int64
	// PossibleDists is what the unbounded reference sweep computes: n×k
	// per iteration.
	PossibleDists int64
}

// add merges the counters of one KMeansBounded run (s accumulates across
// runs, e.g. the per-group clusterings of one pick).
func (s *KMeansStats) add(o KMeansStats) {
	s.Iterations += o.Iterations
	s.PointDists += o.PointDists
	s.PossibleDists += o.PossibleDists
}

// kmScratch is the pooled per-run working set of KMeansBounded: flat
// row-major center storage (current and previous positions), per-center
// member counts and movement deltas, the inter-center half-distance matrix,
// and the per-point upper bound plus per-point×center lower bound matrix.
type kmScratch struct {
	flat    []float64   // k*dim current centers, row-major
	old     []float64   // k*dim previous centers (movement deltas)
	views   [][]float64 // row views into flat
	oldView [][]float64 // row views into old
	counts  []int
	move    []float64 // per-center movement since last sweep
	moved   []int     // centers with move > 0, ascending
	ccHalf  []float64 // k*k: half inter-center distances, row-major
	half    []float64 // s(c): min over ccHalf row c
	ub      []float64 // per-point upper bound on d(p, center[label])
	lb      []float64 // n*k lower bounds on d(p, center[c]), row-major
	d2      []float64 // seeding scratch
	prev    []int     // the labels the centers were last computed from
	dirty   []bool    // per center: membership changed since prev
}

var kmPool sync.Pool

func getKMScratch(n, k, dim int) *kmScratch {
	sc, _ := kmPool.Get().(*kmScratch)
	if sc == nil {
		sc = &kmScratch{}
	}
	if cap(sc.flat) < k*dim {
		sc.flat = make([]float64, k*dim)
		sc.old = make([]float64, k*dim)
	}
	sc.flat = sc.flat[:k*dim]
	sc.old = sc.old[:k*dim]
	if cap(sc.views) < k {
		sc.views = make([][]float64, k)
		sc.oldView = make([][]float64, k)
		sc.counts = make([]int, k)
		sc.move = make([]float64, k)
		sc.moved = make([]int, 0, k)
		sc.half = make([]float64, k)
		sc.dirty = make([]bool, k)
	}
	sc.views = sc.views[:k]
	sc.oldView = sc.oldView[:k]
	sc.counts = sc.counts[:k]
	sc.move = sc.move[:k]
	sc.half = sc.half[:k]
	sc.dirty = sc.dirty[:k]
	if cap(sc.ccHalf) < k*k {
		sc.ccHalf = make([]float64, k*k)
	}
	sc.ccHalf = sc.ccHalf[:k*k]
	for c := 0; c < k; c++ {
		sc.views[c] = sc.flat[c*dim : (c+1)*dim : (c+1)*dim]
		sc.oldView[c] = sc.old[c*dim : (c+1)*dim : (c+1)*dim]
	}
	if cap(sc.ub) < n {
		sc.ub = make([]float64, n)
		sc.d2 = make([]float64, n)
		sc.prev = make([]int, n)
	}
	sc.ub = sc.ub[:n]
	sc.d2 = sc.d2[:n]
	sc.prev = sc.prev[:n]
	if cap(sc.lb) < n*k {
		sc.lb = make([]float64, n*k)
	}
	sc.lb = sc.lb[:n*k]
	return sc
}

func putKMScratch(sc *kmScratch) { kmPool.Put(sc) }

// kmBlock is the point-block granularity of the parallel assignment sweep.
const kmBlock = 64

// KMeansBounded is Lloyd k-means with k-means++ seeding and Elkan-style
// triangle-inequality pruning: each point carries an upper bound on the
// distance to its assigned center and one lower bound per center,
// maintained across iterations by the centers' movement deltas, and each
// center pair carries half its separation. A candidate center whose lower
// bound (or half-distance to the assigned center) exceeds the upper bound
// provably cannot win, so the sweep never computes its distance; a point
// whose upper bound is below half the distance to its assigned center's
// nearest peer skips the sweep entirely.
//
// Divergence contract vs the exact sweep (KMeansReference, in the package
// tests): the initial sweep is the reference's scan verbatim (ascending
// centers, strict-< tie-break, bit-exact early abandoning — whose partial
// sums are banked as initial lower bounds), and later sweeps compute exact
// squared distances for every candidate the bounds cannot eliminate,
// pruning strictly (an exact tie is computed, never skipped) and breaking
// ties toward the lower center index like the reference's ascending scan. Labels — and with
// them the shared center-update trajectory — are therefore identical
// whenever distance comparisons are decided by exact arithmetic,
// including exact ties (duplicate points). The one residual divergence:
// bound maintenance adds/subtracts movement deltas in floating point,
// which can overstate a lower bound (or understate the upper bound) by a
// few ulps and prune a candidate that is closer by less than that — a
// nearest-center near-tie at rounding scale. Strict mode
// (KMeansOpts.Strict) disables pruning and is bit-identical to the
// reference by construction.
func KMeansBounded(points [][]float64, k int, rng *rand.Rand, o KMeansOpts) Assignment {
	n := len(points)
	if k > n {
		k = n
	}
	if k <= 0 || n == 0 {
		return Assignment{Labels: make([]int, n), K: max(k, 1)}
	}
	maxIter := o.MaxIter
	if maxIter <= 0 {
		maxIter = 25
	}
	dim := len(points[0])

	sc := getKMScratch(n, k, dim)
	defer putKMScratch(sc)
	centers := sc.views

	labels := make([]int, n)
	var st KMeansStats
	eo := exec.Options{Parallelism: o.Parallelism}
	blocks := (n + kmBlock - 1) / kmBlock
	boundsValid := false
	// fullUpdate: the next center update recomputes every center. The
	// first does, and so does the one after an update that re-seeded an
	// empty cluster (its relabeled point left a center computed with it).
	fullUpdate := true

	if o.Strict {
		// Strict mode replays the reference verbatim, including its real
		// first sweep, so the seeding must not pre-assign labels.
		seedKMeansPP(points, k, rng, centers, sc.d2, nil, nil, nil)
	} else {
		// The seeding's running-min bookkeeping IS the first Lloyd sweep
		// over the final centers (see seedKMeansPP): its argmin provides
		// iteration 0's labels, its best distances the initial upper
		// bounds, and its early-abandoned partial sums the initial
		// lower-bound matrix — the bounded path never runs a full n×k
		// sweep at all.
		seedKMeansPP(points, k, rng, centers, sc.d2, labels, sc.lb, sc.half)
		for i := range sc.ub {
			sc.ub[i] = math.Sqrt(sc.d2[i])
		}
		for j := range sc.lb {
			sc.lb[j] = math.Sqrt(sc.lb[j])
		}
		boundsValid = true
	}

	for iter := 0; iter < maxIter; iter++ {
		st.Iterations++
		st.PossibleDists += int64(n) * int64(k)
		prune := !o.Strict && boundsValid
		seeded := !o.Strict && iter == 0
		var anyChanged atomic.Bool
		var dists atomic.Int64
		if seeded {
			// Iteration 0's assignment came from the seeding for free; the
			// reference's first sweep changed a label wherever the nearest
			// seed is not center 0 (labels start zeroed).
			for _, l := range labels {
				if l != 0 {
					anyChanged.Store(true)
					break
				}
			}
		}
		if prune && !seeded {
			// Iteration 1 fills the whole matrix; later ones refresh only the
			// rows of centers the previous update moved.
			updateHalfDists(centers, sc.ccHalf, sc.half, sc.move, iter == 1)
		}
		if !seeded {
			exec.ForEach(blocks, eo, func(b int) {
				lo := b * kmBlock
				hi := min(lo+kmBlock, n)
				var nd int64
				changed := false
				for i := lo; i < hi; i++ {
					p := points[i]
					lbRow := sc.lb[i*k : (i+1)*k]
					if !prune {
						// Reference scan verbatim (strict mode): ascending
						// centers, strict-< tie-break, early abandon at the
						// running best.
						best, bestD := 0, math.Inf(1)
						for c := range centers {
							if d := sqDistBounded(p, centers[c], bestD); d < bestD {
								best, bestD = c, d
							}
						}
						nd += int64(k)
						if labels[i] != best {
							labels[i] = best
							changed = true
						}
						continue
					}
					// Pruning is strict (u < bound, never u ≤ bound) so an exact
					// tie is always computed rather than skipped, and switch
					// decisions compare exact squared distances with the
					// reference's lower-index-wins tie-break: the sweep resolves
					// exact nearest-center ties identically to the reference scan.
					a := labels[i]
					u := sc.ub[i]
					if u < sc.half[a] {
						continue // no other center can be closer (Elkan lemma 1)
					}
					ccRow := sc.ccHalf[a*k:]
					tight := false
					var usq float64
					for c := range centers {
						if c == a || u < lbRow[c] || u < ccRow[c] {
							continue
						}
						if !tight {
							// Pay one exact distance to the assigned center
							// before considering any switch.
							usq = sqDist(p, centers[a])
							u = math.Sqrt(usq)
							nd++
							sc.ub[i] = u
							lbRow[a] = u
							tight = true
							if u < lbRow[c] || u < ccRow[c] {
								continue
							}
						}
						dsq := sqDist(p, centers[c])
						d := math.Sqrt(dsq)
						nd++
						lbRow[c] = d
						if dsq < usq || (dsq == usq && c < a) {
							a = c
							usq = dsq
							u = d
							sc.ub[i] = d
							ccRow = sc.ccHalf[a*k:]
						}
					}
					if labels[i] != a {
						labels[i] = a
						changed = true
					}
				}
				if changed {
					anyChanged.Store(true)
				}
				dists.Add(nd)
			})
		}
		st.PointDists += dists.Load()
		changed := anyChanged.Load()
		if iter > 0 && !changed {
			// Mirrors the reference's convergence cut: a no-change sweep
			// after iteration 0 cannot leave an empty cluster (the previous
			// update reseeded any), so the center update would recompute
			// the same means bit for bit.
			break
		}

		copy(sc.old, sc.flat)
		var reseeded []int
		if fullUpdate {
			reseeded = updateCenters(points, labels, centers, sc.counts)
		} else {
			reseeded = updateChangedCenters(points, labels, sc.prev, centers, sc.counts, sc.dirty)
		}
		copy(sc.prev, labels)
		fullUpdate = len(reseeded) > 0
		if len(reseeded) > 0 {
			changed = true
			for _, i := range reseeded {
				// The relabeled point's bounds describe its old cluster;
				// force a full recomputation next sweep.
				sc.ub[i] = math.Inf(1)
				for c := range centers {
					sc.lb[i*k+c] = 0
				}
			}
		}
		if !changed {
			break
		}
		// Propagate center movement into the bounds: the assigned center
		// moving by m can shrink its point's distance by at most m (upper
		// bound grows), and center c moving by move[c] can approach any
		// point by at most move[c] (its lower bounds shrink).
		// A center whose membership did not change is recomputed from the
		// same points in the same order, so its movement is exactly zero:
		// late iterations move few centers, and only those touch the bounds
		// (and, next sweep, the half-distance matrix).
		sc.moved = sc.moved[:0]
		for c := range centers {
			sc.move[c] = math.Sqrt(sqDist(sc.oldView[c], centers[c]))
			if sc.move[c] > 0 {
				sc.moved = append(sc.moved, c)
			}
		}
		for i := range labels {
			sc.ub[i] += sc.move[labels[i]]
			lbRow := sc.lb[i*k : (i+1)*k]
			for _, c := range sc.moved {
				lbRow[c] -= sc.move[c]
			}
		}
		boundsValid = true
	}
	if o.Stats != nil {
		o.Stats.add(st)
	}
	return Assignment{Labels: labels, K: k}
}

// updateChangedCenters is updateCenters after an update that re-seeded
// nothing, when centers and counts hold the means and sizes of the clusters
// of prev: it recomputes only the centers whose membership changed since. An
// unchanged cluster would sum the same points in the same order, so its
// center is already what updateCenters computes, bit for bit; a changed one
// is zeroed and re-summed in point order like there. If a cluster emptied,
// it leaves the whole update, re-seeds included, to updateCenters.
func updateChangedCenters(points [][]float64, labels, prev []int, centers [][]float64, counts []int, dirty []bool) (reseeded []int) {
	clear(dirty)
	for i, l := range labels {
		if p := prev[i]; p != l {
			dirty[p], dirty[l] = true, true
			counts[p]--
			counts[l]++
		}
	}
	if slices.Contains(counts, 0) {
		return updateCenters(points, labels, centers, counts)
	}
	if !slices.Contains(dirty, true) {
		return nil
	}
	for c, d := range dirty {
		if d {
			clear(centers[c])
		}
	}
	for i, p := range points {
		if c := labels[i]; dirty[c] {
			row := centers[c]
			for j, v := range p {
				row[j] += v
			}
		}
	}
	for c, d := range dirty {
		if d {
			inv := 1 / float64(counts[c])
			for j := range centers[c] {
				centers[c][j] *= inv
			}
		}
	}
	return nil
}

// updateHalfDists maintains ccHalf (k×k row-major), half the pairwise
// center distances, and half[c], the row minimum over other centers (Elkan's
// s(c)): a point within s(c) of its assigned center c cannot be closer to
// any other center. A pair is recomputed when either end moved since the
// last call (move > 0), or unconditionally when all is set (the first call,
// before which ccHalf holds nothing). An unmoved pair's stored value is the
// one a full recomputation would produce bit for bit, so the matrix — and
// the row minima, a min over the same values — equals the full
// recomputation's.
func updateHalfDists(centers [][]float64, ccHalf, half, move []float64, all bool) {
	k := len(centers)
	for a := 0; a < k; a++ {
		ccHalf[a*k+a] = 0
		for b := a + 1; b < k; b++ {
			if all || move[a] > 0 || move[b] > 0 {
				h := 0.5 * math.Sqrt(sqDist(centers[a], centers[b]))
				ccHalf[a*k+b] = h
				ccHalf[b*k+a] = h
			}
		}
	}
	for c := range half {
		h := math.Inf(1)
		for o, v := range ccHalf[c*k : (c+1)*k] {
			if o != c && v < h {
				h = v
			}
		}
		half[c] = h
	}
}

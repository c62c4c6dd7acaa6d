package cluster

import (
	"math"
	"math/rand"
)

// KMeansReference clusters points into k clusters with k-means++ seeding and
// exact Lloyd iterations: every point computes its distance to every center
// each iteration. Deterministic given rng. k is clamped to len(points).
//
// This is the frozen baseline the bounded production path (KMeansBounded)
// is equivalence-tested against.
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

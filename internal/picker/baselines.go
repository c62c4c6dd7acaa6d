package picker

import (
	"math/rand"

	"ps3/internal/query"
	"ps3/internal/stats"
)

// Uniform samples n partitions uniformly at random out of total, scaling
// weights by total/n (§5.1.3 "Random Sampling").
// A budget of everything reads every partition at weight 1, and one of
// nothing reads none; neither draws from rng.
func Uniform(total, n int, rng *rand.Rand) []query.WeightedPartition {
	if n >= total {
		return whole(allParts(total))
	}
	if n <= 0 {
		return nil
	}
	return randomSelect(allParts(total), n, rng)
}

// whole is the exact selection of parts: every one read, weight 1.
func whole(parts []int) []query.WeightedPartition {
	sel := make([]query.WeightedPartition, len(parts))
	for k, i := range parts {
		sel[k] = query.WeightedPartition{Part: i, Weight: 1}
	}
	return sel
}

// UniformFilter samples uniformly among partitions that pass the
// selectivity filter (selectivity_upper > 0), which requires summary
// statistics (§5.1.3 "Random+Filter"). Weights scale by the filtered
// population size.
func UniformFilter(ts *stats.TableStats, features [][]float64, n int, rng *rand.Rand) []query.WeightedPartition {
	upSlot, _, _, _ := ts.Space.SelectivitySlots()
	var candidates []int
	for i, f := range features {
		if f[upSlot] > 0 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	if n >= len(candidates) {
		return whole(candidates)
	}
	if n <= 0 {
		return nil
	}
	return randomSelect(candidates, n, rng)
}

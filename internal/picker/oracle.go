package picker

import (
	"math/rand"

	"ps3/internal/query"
)

// PickWithOracle is Algorithm 1 without outliers or clustering, and with
// the learned funnel replaced by an oracle that groups partitions by their
// *true* contributions using the same exponentially spaced thresholds the
// funnel targets. It upper-bounds the benefit of importance-style sampling
// (Fig 10, right).
func (p *Picker) PickWithOracle(q *query.Query, features [][]float64, contrib []float64, n int, rng *rand.Rand) []query.WeightedPartition {
	total := len(features)
	if n <= 0 || n >= total {
		return Uniform(total, n, rng)
	}
	if rng == nil {
		rng = newRand(p.Cfg.Seed)
	}
	var selection []query.WeightedPartition
	inliers := allParts(total)
	budget := n

	upSlot, _, _, _ := p.TS.Space.SelectivitySlots()
	var candidates []int
	for _, i := range inliers {
		if features[i][upSlot] > 0 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return selection
	}
	if budget >= len(candidates) {
		return whole(candidates)
	}

	// Oracle funnel: thresholds from true contributions over the candidate
	// set, identical spacing to trainFunnel.
	sub := make([]float64, len(candidates))
	for i, c := range candidates {
		sub[i] = contrib[c]
	}
	groups := [][]int{candidates}
	for stage := 0; stage < p.Cfg.K; stage++ {
		th := stageThreshold(sub, stage, p.Cfg.K, p.Cfg.TopFrac)
		last := groups[len(groups)-1]
		var stay, advance []int
		for _, i := range last {
			if contrib[i] > th {
				advance = append(advance, i)
			} else {
				stay = append(stay, i)
			}
		}
		if len(advance) == 0 {
			break
		}
		groups[len(groups)-1] = stay
		groups = append(groups, advance)
	}
	nonEmpty := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			nonEmpty = append(nonEmpty, g)
		}
	}
	groups = nonEmpty

	alloc := allocateSamples(groups, budget, p.Cfg.Alpha)
	for gi, g := range groups {
		ni := alloc[gi]
		if ni <= 0 {
			continue
		}
		if ni >= len(g) {
			selection = append(selection, whole(g)...)
			continue
		}
		selection = append(selection, randomSelect(g, ni, rng)...)
	}
	return selection
}

package picker

import (
	"math"
	"math/rand"

	"ps3/internal/cluster"
	"ps3/internal/metrics"
	"ps3/internal/query"
	"ps3/internal/stats"
)

// The frozen full-row pick: Algorithm 1 over a materialized feature matrix
// (stats.TableStats.Features), a per-row funnel walk and an allocating
// cluster preparation — full-width normalization, kind masking and
// constant-column compression as separate passes. It shares the selection
// logic that has one form only (findOutliers, allocateSamples, randomSelect,
// whole, tooComplex) with PickBatch and re-derives everything PickBatch
// computes from its pooled 4-wide rows, its fold tables and TableStats.Normalized. Every
// PickBatch equivalence test compares against it; nothing here may follow
// a change to the production path.

// pickReference is PickBatch computed the long way: features is the N×M
// matrix stats.TableStats.Features returns for q.
func (p *Picker) pickReference(q *query.Query, features [][]float64, n int, rng *rand.Rand) []query.WeightedPartition {
	total := len(features)
	if n <= 0 || n >= total {
		return Uniform(total, n, rng)
	}
	if rng == nil {
		rng = newRand(p.Cfg.Seed)
	}

	var selection []query.WeightedPartition
	inliers := allParts(total)
	if !p.Cfg.DisableOutlier {
		outliers, rest := p.findOutliers(q, total)
		budgetCap := int(math.Floor(p.Cfg.OutlierBudgetFrac * float64(n)))
		if len(outliers) > budgetCap {
			outliers = outliers[:budgetCap]
			rest = nil
		}
		if rest == nil {
			inOut := make(map[int]bool, len(outliers))
			for _, o := range outliers {
				inOut[o] = true
			}
			for i := 0; i < total; i++ {
				if !inOut[i] {
					rest = append(rest, i)
				}
			}
		}
		selection = whole(outliers)
		inliers = rest
	}
	budget := n - len(selection)
	if budget <= 0 {
		return selection
	}

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
		return append(selection, whole(candidates)...)
	}

	groups := p.refImportanceGroups(features, candidates)
	alloc := allocateSamples(groups, budget, p.Cfg.Alpha)
	for gi, g := range groups {
		ni := alloc[gi]
		if ni <= 0 || len(g) == 0 {
			continue
		}
		if ni >= len(g) {
			selection = append(selection, whole(g)...)
			continue
		}
		if p.Cfg.DisableCluster || tooComplex(q, p.Cfg.MaxPredClauses) {
			selection = append(selection, randomSelect(g, ni, rng)...)
			continue
		}
		selection = append(selection, p.refClusterSelect(features, g, ni, p.Excluded, rng)...)
	}
	return selection
}

// refImportanceGroups is the funnel (Algorithm 2) walked row by row over
// full feature rows with Model.Predict, which the gbt tests pin to the
// pointer-tree walk bit for bit. Ordered least → most important.
func (p *Picker) refImportanceGroups(features [][]float64, candidates []int) [][]int {
	if p.Cfg.DisableRegressor || len(p.Regs) == 0 {
		return [][]int{candidates}
	}
	groups := [][]int{candidates}
	for stage, reg := range p.Regs {
		last := groups[len(groups)-1]
		var stay, advance []int
		for _, i := range last {
			if reg.Predict(features[i]) > p.Thresholds[stage] {
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
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// refClusterSelect clusters the group's full feature rows into ni clusters
// and returns one weighted exemplar per cluster (§4.2), each preparation
// step its own allocating pass.
func (p *Picker) refClusterSelect(features [][]float64, group []int, ni int, excluded map[stats.Kind]bool, rng *rand.Rand) []query.WeightedPartition {
	rows := make([][]float64, len(group))
	for i, g := range group {
		rows[i] = refNormalize(p.TS.Space, features[g])
	}
	rows = maskKinds(p.TS.Space, rows, excluded)
	rows = compressActive(rows)
	asg := refClusterize(p.Cfg, rows, ni, rng)
	exs := p.Cfg.exemplars(rows, asg, rng, nil)
	out := make([]query.WeightedPartition, 0, len(exs))
	for _, e := range exs {
		out = append(out, query.WeightedPartition{Part: group[e.Point], Weight: e.Weight})
	}
	return out
}

// refNormalize maps a raw feature row into normalized space, slot by slot.
func refNormalize(space *stats.FeatureSpace, row []float64) []float64 {
	out := make([]float64, len(row))
	for j, x := range row {
		out[j] = space.NormalizeValue(j, x)
	}
	return out
}

// maskKinds zeroes the feature slots whose kind is in excluded.
func maskKinds(space *stats.FeatureSpace, rows [][]float64, excluded map[stats.Kind]bool) [][]float64 {
	if len(excluded) == 0 {
		return rows
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		m := append([]float64(nil), r...)
		for j, meta := range space.Meta {
			if excluded[meta.Kind] {
				m[j] = 0
			}
		}
		out[i] = m
	}
	return out
}

// compressActive drops the feature dimensions that hold one value across
// all rows: masked columns and excluded kinds (all zero), and statistics the
// group happens to share.
func compressActive(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return rows
	}
	m := len(rows[0])
	var active []int
	for j := 0; j < m; j++ {
		for _, r := range rows[1:] {
			if r[j] != rows[0][j] {
				active = append(active, j)
				break
			}
		}
	}
	if len(active) == m {
		return rows
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		c := make([]float64, len(active))
		for k, j := range active {
			c[k] = r[j]
		}
		out[i] = c
	}
	return out
}

// refClusterize runs the configured algorithm with exact k-means sweeps:
// strict KMeansBounded, which the cluster tests pin to the exact reference
// sweep bit for bit.
func refClusterize(c Config, points [][]float64, k int, rng *rand.Rand) cluster.Assignment {
	switch c.Algo {
	case AlgoHACWard:
		return cluster.HAC(points, k, cluster.Ward)
	case AlgoHACSingle:
		return cluster.HAC(points, k, cluster.Single)
	default:
		return cluster.KMeansBounded(points, k, rng, cluster.KMeansOpts{Strict: true})
	}
}

// refSelectFeatures is Algorithm 3 as training ran it on the full-row
// cluster preparation: the exclusion set selectFeatures must find from the
// same examples under the same config.
func (p *Picker) refSelectFeatures(examples []Example) map[stats.Kind]bool {
	candidates := clusteringKindIDs()
	probe := min(len(examples), 20)
	exs := examples[:probe]
	n := len(examples[0].Features)
	budgets := []int{max(n/20, 2), max(n/8, 3)}
	rng := newRand(p.Cfg.Seed + 977)

	eval := func(excluded map[int]bool) float64 {
		exSet := make(map[stats.Kind]bool, len(excluded))
		for id := range excluded { //lint:mapiter-ok map-to-set copy; key set is order-free
			exSet[stats.Kind(id)] = true
		}
		var sum float64
		cnt := 0
		for qi, ex := range exs {
			for bi, budget := range budgets {
				pairedRng := newRand(p.Cfg.Seed + int64(qi*17+bi))
				sel := p.refClusterSelect(ex.Features, allParts(n), budget, exSet, pairedRng)
				est := EstimateFromPerPart(ex.Compiled, ex.PerPart, sel)
				sum += metrics.Compare(ex.TruthVals, est).AvgRelErr
				cnt++
			}
		}
		return sum / float64(cnt)
	}

	best := cluster.GreedyFeatureSelection(candidates, eval, p.Cfg.FeatureSelRestarts, rng)
	out := make(map[stats.Kind]bool, len(best))
	for _, id := range best {
		out[stats.Kind(id)] = true
	}
	return out
}

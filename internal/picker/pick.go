package picker

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"ps3/internal/cluster"
	"ps3/internal/exec"
	"ps3/internal/gbt"
	"ps3/internal/query"
	"ps3/internal/stats"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// PickStats reports where picking time went (Table 5's overhead metrics).
type PickStats struct {
	Total   time.Duration
	Cluster time.Duration
	// Featurize is the time spent on the per-query feature fill (the
	// selectivity estimates of every partition).
	Featurize time.Duration
	// KMeans accumulates the bounded k-means distance-work counters across
	// the pick's per-group clusterings.
	KMeans cluster.KMeansStats
}

// selWidth is the width of a batched pick's per-partition row: the four
// selectivity estimates, which lead the feature vector
// (FeatureSpace.SelectivitySlots) and are the only slots a query changes.
const selWidth = 4

// pickScratch is the reusable per-Pick working set: the row-major N×selWidth
// selectivity matrix, per-row slice views into it, and the funnel's and
// cluster preparation's buffers. Scratches are pooled package-wide so
// sustained serving reaches a steady state of zero per-pick matrix
// allocations regardless of how many Picker values (or copies — the
// experiment harness copies pickers to apply lesion flags) are live.
type pickScratch struct {
	x     []float64
	rows  [][]float64
	preds []float64
	// Cluster-preparation scratch: the per-pick excluded-slot and masked-slot
	// lookups, the active-slot list of the group being clustered, its
	// normalized selectivity columns (4 per row), and the compact normalized
	// matrix handed to the clustering algorithm.
	excluded []bool
	masked   []bool
	active   []int32
	selNorm  []float64
	normBuf  []float64
	normRows [][]float64
	medCols  []int32 // per active slot: its Normalized column, or −1 for a selectivity slot
	// Funnel scratch: the query's named columns (by schema column index, what
	// a stage's fold table is bound with), the scorer rebound stage by stage,
	// and the one full-width row a stage without a fold table is walked over.
	named   []bool
	scorer  gbt.BatchScorer
	fullRow []float64
}

var pickScratchPool sync.Pool

// getPickScratch returns a scratch sized for an n-partition, m-feature pick,
// growing the pooled buffers only when a larger table is seen.
func getPickScratch(n, m int) *pickScratch {
	sc, _ := pickScratchPool.Get().(*pickScratch)
	if sc == nil {
		sc = &pickScratch{}
	}
	if cap(sc.x) < n*selWidth {
		sc.x = make([]float64, n*selWidth)
	}
	sc.x = sc.x[:n*selWidth]
	if cap(sc.rows) < n {
		sc.rows = make([][]float64, n)
	}
	sc.rows = sc.rows[:n]
	for i := 0; i < n; i++ {
		// Capacity-capped: a read past the selectivity slots panics instead of
		// returning a neighbour's estimate.
		sc.rows[i] = sc.x[i*selWidth : (i+1)*selWidth : (i+1)*selWidth]
	}
	if cap(sc.preds) < n {
		sc.preds = make([]float64, n)
	}
	sc.preds = sc.preds[:n]
	if cap(sc.excluded) < m {
		sc.excluded = make([]bool, m)
		sc.masked = make([]bool, m)
	}
	sc.excluded = sc.excluded[:m]
	sc.masked = sc.masked[:m]
	return sc
}

func putPickScratch(sc *pickScratch) { pickScratchPool.Put(sc) }

// setMasks fills the two lookups cluster preparation reads (scratch is
// pooled across pickers and training runs): the slots whose kind is in
// excluded, and the slots masked to zero because their column is not named.
// named (the query's FeaturePlan.UsedCols) is also what the funnel's fold
// tables are bound with.
func (sc *pickScratch) setMasks(space *stats.FeatureSpace, excluded map[stats.Kind]bool, named []bool) {
	sc.named = named
	for j, meta := range space.Meta {
		sc.excluded[j] = excluded[meta.Kind]
		sc.masked[j] = meta.Col >= 0 && !named[meta.Col]
	}
}

// PickBatch runs Algorithm 1: outliers → importance funnel → α-decayed
// budget allocation → per-group clustering selection. Budget n is the number
// of partitions to read; the returned weights combine per §2.4. It computes
// only what the query changes about a partition's feature row — the four
// selectivity estimates — into a pooled N×4 scratch matrix (in parallel over
// partition blocks on the shared exec pool, bounded by eo.Parallelism);
// everything else in a row is the partition's base feature or a masked
// zero, which the funnel scores from per-binding fold tables (tables.go) and
// cluster preparation reads from TableStats.Normalized. Zero allocations per
// partition in the steady state. The selection is the same at every
// parallelism setting: estimates are filled into disjoint rows indexed by
// partition, and the selection logic consumes them in partition order.
func (p *Picker) PickBatch(q *query.Query, n int, rng *rand.Rand, eo exec.Options) []query.WeightedPartition {
	sel, _ := p.PickBatchWithStats(q, n, rng, eo)
	return sel
}

// pickFillBlock is the partition-block granularity of parallel
// featurization: big enough to amortize work distribution, small enough to
// load-balance uneven selectivity estimates.
const pickFillBlock = 32

// PickBatchWithStats is PickBatch with timing instrumentation.
func (p *Picker) PickBatchWithStats(q *query.Query, n int, rng *rand.Rand, eo exec.Options) (selection []query.WeightedPartition, st PickStats) {
	start := time.Now()
	defer func() { st.Total = time.Since(start) }()
	total := len(p.TS.Parts)
	if n <= 0 || n >= total {
		// Nothing to pick, or an exact answer: every partition at weight 1,
		// without featurizing.
		return Uniform(total, n, rng), st
	}
	if rng == nil {
		rng = newRand(p.Cfg.Seed)
	}
	plan := p.TS.NewFeaturePlan(q)
	sc := getPickScratch(total, plan.Dim())
	defer putPickScratch(sc)
	sc.setMasks(p.TS.Space, p.Excluded, plan.UsedCols())
	blocks := (total + pickFillBlock - 1) / pickFillBlock
	exec.ForEach(blocks, eo, func(b int) {
		lo := b * pickFillBlock
		hi := lo + pickFillBlock
		if hi > total {
			hi = total
		}
		for i := lo; i < hi; i++ {
			plan.FillSel(sc.rows[i], i)
		}
	})
	st.Featurize = time.Since(start)
	features := sc.rows

	// 1. Outliers (§4.4): partitions with rare group-by bitmap signatures
	// are evaluated exactly, weight 1, consuming up to OutlierBudgetFrac of
	// the budget.
	var inliers []int
	if p.Cfg.DisableOutlier {
		inliers = allParts(total)
	} else {
		outliers, rest := p.findOutliers(q, total)
		budgetCap := int(math.Floor(p.Cfg.OutlierBudgetFrac * float64(n)))
		if len(outliers) > budgetCap {
			outliers = outliers[:budgetCap]
			rest = nil // recompute below
		}
		if rest == nil {
			inOut := make([]bool, total)
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
		return selection, st
	}

	// 2. Predicate filter: keep only partitions that may contain matching
	// rows (selectivity_upper > 0; perfect recall per §3.2). Filtered-out
	// partitions contribute nothing and are skipped entirely.
	upSlot, _, _, _ := p.TS.Space.SelectivitySlots()
	var candidates []int
	for _, i := range inliers {
		if features[i][upSlot] > 0 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return selection, st
	}
	if budget >= len(candidates) {
		return append(selection, whole(candidates)...), st
	}

	// 3. Importance funnel (Algorithm 2), least-important group first.
	groups := p.importanceGroups(candidates, sc)

	// 4. Allocate budget across groups with rate decaying by α from more to
	// less important groups.
	alloc := allocateSamples(groups, budget, p.Cfg.Alpha)

	// 5. Select within each group via clustering (or random fallback).
	ko := cluster.KMeansOpts{Parallelism: eo.Parallelism, Stats: &st.KMeans}
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
		cstart := time.Now()
		selection = append(selection, p.clusterSelectFast(features, g, ni, rng, sc, ko)...)
		st.Cluster += time.Since(cstart)
	}
	return selection, st
}

// tooComplex reports whether the predicate exceeds the clause budget beyond
// which clustering features stop being representative (Appendix B.1).
func tooComplex(q *query.Query, maxClauses int) bool {
	return len(query.Clauses(q.Pred)) > maxClauses
}

// importanceGroups runs the funnel (Algorithm 2) over the pick's
// selWidth-wide rows in sc: candidates that pass more regressors advance
// further. The result is ordered least → most important.
func (p *Picker) importanceGroups(candidates []int, sc *pickScratch) [][]int {
	if p.Cfg.DisableRegressor || len(p.Regs) == 0 {
		return [][]int{candidates}
	}
	groups := [][]int{candidates}
	tables := p.foldTables()
	for stage, reg := range p.Regs {
		last := groups[len(groups)-1]
		preds := sc.preds[:len(last)]
		if stage < len(tables) && tables[stage] != nil {
			// One sweep per stage over the advancing group: per row, one
			// word-AND per tree per named column plus the selectivity
			// conditions.
			sc.scorer.Bind(tables[stage], sc.named)
			sc.scorer.Predict(preds, last, sc.rows)
		} else {
			p.walkFullRows(preds, reg, last, sc)
		}
		var stay, advance []int
		for k, i := range last {
			if preds[k] > p.Thresholds[stage] {
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
	// Drop empty groups.
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// walkFullRows scores a funnel stage that has no fold table — a model too
// large for a fold table (more than 128 trees or 16 leaves a tree;
// training never builds one, a foreign snapshot can hold one), or a picker
// assembled without a table holder. Each partition's full feature row is
// gathered into one scratch row — base features of named columns, zeros for
// masked slots, the pick's selectivity estimates — and walked tree by tree.
func (p *Picker) walkFullRows(preds []float64, reg *gbt.Model, parts []int, sc *pickScratch) {
	m := p.TS.Space.Dim()
	if cap(sc.fullRow) < m {
		sc.fullRow = make([]float64, m)
	}
	row := sc.fullRow[:m]
	base := p.TS.Base()
	for k, i := range parts {
		for j, x := range base[i*m : (i+1)*m] {
			if sc.masked[j] {
				x = 0
			}
			row[j] = x
		}
		copy(row, sc.rows[i])
		preds[k] = reg.Predict(row)
	}
}

// allocateSamples splits budget across importance groups so the sampling
// rate of group i+1 (more important) is α × that of group i, capped at 1,
// with leftover budget redistributed. groups are ordered least → most
// important.
func allocateSamples(groups [][]int, budget int, alpha float64) []int {
	k := len(groups)
	alloc := make([]int, k)
	if k == 0 || budget <= 0 {
		return alloc
	}
	// Binary search the base rate r so Σ min(1, r·α^i)·|g_i| ≈ budget.
	need := func(r float64) float64 {
		var s float64
		for i, g := range groups {
			rate := r * math.Pow(alpha, float64(i))
			if rate > 1 {
				rate = 1
			}
			s += rate * float64(len(g))
		}
		return s
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if need(mid) < float64(budget) {
			lo = mid
		} else {
			hi = mid
		}
	}
	r := hi
	used := 0
	// Assign floor allocations, most-important first so high-value groups
	// don't starve on rounding.
	type frac struct {
		idx int
		f   float64
	}
	var fracs []frac
	for i := k - 1; i >= 0; i-- {
		rate := r * math.Pow(alpha, float64(i))
		if rate > 1 {
			rate = 1
		}
		exact := rate * float64(len(groups[i]))
		a := int(exact)
		if a > len(groups[i]) {
			a = len(groups[i])
		}
		alloc[i] = a
		used += a
		fracs = append(fracs, frac{i, exact - float64(a)})
	}
	// Distribute the remainder by largest fractional part (ties favor more
	// important groups, which come first in fracs).
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for _, fr := range fracs {
		if used >= budget {
			break
		}
		if alloc[fr.idx] < len(groups[fr.idx]) {
			alloc[fr.idx]++
			used++
		}
	}
	// Any remaining budget (groups saturated) goes to whoever has room.
	for i := k - 1; i >= 0 && used < budget; i-- {
		for alloc[i] < len(groups[i]) && used < budget {
			alloc[i]++
			used++
		}
	}
	return alloc
}

// randomSelect samples ni partitions uniformly without replacement; each
// carries weight |group|/ni so the estimator stays unbiased.
func randomSelect(group []int, ni int, rng *rand.Rand) []query.WeightedPartition {
	perm := rng.Perm(len(group))
	w := float64(len(group)) / float64(ni)
	out := make([]query.WeightedPartition, 0, ni)
	for _, pi := range perm[:ni] {
		out = append(out, query.WeightedPartition{Part: group[pi], Weight: w})
	}
	return out
}

// clusterSelectFast clusters the group's feature rows into ni clusters and
// returns one weighted exemplar per cluster (§4.2). The points it clusters
// are the normalized rows (FeatureSpace.NormalizeValue per slot) restricted
// to the active columns: neither an excluded kind (sc.excluded) nor a slot
// masked for the query (sc.masked), and not constant over the group. A
// constant column adds exactly zero to every point-to-point distance
// (seeding, re-seeds) and to every distance from a member to its cluster's
// median, and at most a rounding residue to distances from Lloyd means, so
// dropping it leaves the clustering as it is while its cost shrinks to the
// columns that tell the group's partitions apart.
//
// It reads nothing from features but the four selectivity estimates, which
// lead the row: every other unmasked slot is the partition's base feature,
// whose normalized value is a lookup in the precomputed
// TableStats.Normalized matrix, whose rank index also serves the exemplars'
// medians of those columns.
// So features may be a pick's selWidth-wide rows or the full rows of
// TableStats.Features (training's feature selection), and o is the k-means
// mode: a pick's pruned, parallel, counted sweeps, or training's Strict
// ones. Bit for bit, the points are what the full-row reference preparation
// in the package tests builds — normalize, zero the excluded kinds, drop
// the constant columns.
func (p *Picker) clusterSelectFast(features [][]float64, group []int, ni int, rng *rand.Rand, sc *pickScratch, o cluster.KMeansOpts) []query.WeightedPartition {
	m := p.TS.Space.Dim()
	norm := p.TS.Normalized()
	nb := norm.Vals
	upper, indep, minS, maxS := p.TS.Space.SelectivitySlots()
	selSlots := [4]int{upper, indep, minS, maxS}
	// The four selectivity columns are per-query values: normalize them once
	// (a cube root each), for the constancy test and the fill below.
	if cap(sc.selNorm) < 4*len(group) {
		sc.selNorm = make([]float64, 4*len(group))
	}
	selNorm := sc.selNorm[:4*len(group)]
	for k, g := range group {
		for s, j := range selSlots {
			selNorm[4*k+s] = p.TS.Space.NormalizeValue(j, features[g][j])
		}
	}
	active := sc.active[:0]
	var selBuf [4][2]int
	selActive := selBuf[:0] // (position in active, selectivity index)
	for j := 0; j < m; j++ {
		if sc.excluded[j] || sc.masked[j] {
			continue
		}
		varies := false
		if s := slices.Index(selSlots[:], j); s >= 0 {
			for k := 1; k < len(group) && !varies; k++ {
				varies = selNorm[4*k+s] != selNorm[s]
			}
			if varies {
				selActive = append(selActive, [2]int{len(active), s})
			}
		} else {
			first := nb[group[0]*m+j]
			for _, g := range group[1:] {
				if nb[g*m+j] != first {
					varies = true
					break
				}
			}
		}
		if varies {
			active = append(active, int32(j))
		}
	}
	sc.active = active
	na := len(active)
	// The exemplars read the medians of base columns from the rank index;
	// the selectivity columns are the query's and are sorted.
	medCols := slices.Grow(sc.medCols[:0], na)[:na]
	for a, j := range active {
		medCols[a] = j
	}
	for _, as := range selActive {
		medCols[as[0]] = -1
	}
	sc.medCols = medCols
	if cap(sc.normBuf) < len(group)*na {
		sc.normBuf = make([]float64, len(group)*na)
	}
	buf := sc.normBuf[:len(group)*na]
	if cap(sc.normRows) < len(group) {
		sc.normRows = make([][]float64, len(group))
	}
	rows := sc.normRows[:len(group)]
	for k, g := range group {
		row := buf[k*na : (k+1)*na : (k+1)*na]
		base := nb[g*m : (g+1)*m]
		for a, j := range active {
			row[a] = base[j]
		}
		for _, as := range selActive {
			row[as[0]] = selNorm[4*k+as[1]]
		}
		rows[k] = row
	}
	asg := p.Cfg.clusterize(rows, ni, rng, o)
	exs := p.Cfg.exemplars(rows, asg, rng, &cluster.MedianIndex{Ranks: norm.Ranks, Items: group, Cols: medCols})
	out := make([]query.WeightedPartition, 0, len(exs))
	for _, e := range exs {
		out = append(out, query.WeightedPartition{Part: group[e.Point], Weight: e.Weight})
	}
	return out
}

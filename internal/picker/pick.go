package picker

import (
	"cmp"
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

// clusterGreedy adapts cluster.GreedyFeatureSelection for the trainer.
func clusterGreedy(candidates []int, eval func(map[int]bool) float64, restarts int, rng *rand.Rand) []int {
	return cluster.GreedyFeatureSelection(candidates, eval, restarts, rng)
}

// PickStats reports where picking time went (Table 5's overhead metrics).
type PickStats struct {
	Total   time.Duration
	Cluster time.Duration
	// Featurize is the time spent on the per-query feature fill (the
	// selectivity estimates of every partition); only populated by
	// PickBatch, where featurization is part of the pick.
	Featurize time.Duration
	// KMeans accumulates the bounded k-means distance-work counters across
	// the pick's per-group clusterings; only populated by PickBatch (the
	// reference paths run exact sweeps and count nothing).
	KMeans cluster.KMeansStats
}

// funnelEval selects which evaluator the importance funnel runs on.
type funnelEval uint8

const (
	// evalFlat predicts row-at-a-time on the compiled flat ensembles (the
	// path behind the legacy Pick signature).
	evalFlat funnelEval = iota
	// evalReference predicts on the retained pointer-tree evaluator; the
	// baseline the batch path is equivalence-tested against.
	evalReference
	// evalBatch predicts each funnel group in one sweep over the binding's
	// fold tables (tables.go) and the four per-query selectivity columns,
	// allocating nothing per partition. Rows are selWidth wide.
	evalBatch
)

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

// setMasks rebuilds the per-pick lookups (scratch is pooled across pickers):
// the feature-selection exclusion set, the query's named columns, and the
// feature slots masked to zero because their column is not named.
func (sc *pickScratch) setMasks(p *Picker, plan *stats.FeaturePlan) {
	sc.named = plan.UsedCols()
	for j, meta := range p.TS.Space.Meta {
		sc.excluded[j] = p.Excluded[meta.Kind]
		sc.masked[j] = meta.Col >= 0 && !sc.named[meta.Col]
	}
}

// Pick runs Algorithm 1: outliers → importance funnel → α-decayed budget
// allocation → per-group clustering selection. features is the raw N×M
// matrix for q from stats.TableStats.Features; budget n is the number of
// partitions to read. The returned weights combine per §2.4.
//
// Callers that do not already hold a feature matrix should prefer PickBatch,
// which featurizes into pooled scratch (in parallel) instead of allocating
// an N×M matrix per query.
func (p *Picker) Pick(q *query.Query, features [][]float64, n int, rng *rand.Rand) []query.WeightedPartition {
	sel, _ := p.PickWithStats(q, features, n, rng)
	return sel
}

// PickWithStats is Pick with timing instrumentation.
func (p *Picker) PickWithStats(q *query.Query, features [][]float64, n int, rng *rand.Rand) ([]query.WeightedPartition, PickStats) {
	var st PickStats
	start := time.Now()
	sel := p.pick(q, features, n, rng, &st, evalFlat, nil, exec.Options{})
	st.Total = time.Since(start)
	return sel, st
}

// PickReference is Pick evaluated end to end on the reference
// implementations: per-partition feature rows and the pointer-tree funnel
// evaluator. It exists as the equivalence baseline for PickBatch; serving
// paths never call it.
func (p *Picker) PickReference(q *query.Query, features [][]float64, n int, rng *rand.Rand) []query.WeightedPartition {
	var st PickStats
	return p.pick(q, features, n, rng, &st, evalReference, nil, exec.Options{})
}

// PickBatch is the batched fast path of Algorithm 1. It computes only what
// the query changes about a partition's feature row — the four selectivity
// estimates — into a pooled N×4 scratch matrix (in parallel over partition
// blocks on the shared exec pool, bounded by eo.Parallelism); everything
// else in a row is the partition's base feature or a masked zero, which the
// funnel scores from per-binding fold tables (tables.go) and cluster
// preparation reads from TableStats.NormBase. Zero allocations per partition
// in the steady state. The selection is bit-identical to
// Pick(q, p.TS.Features(q), n, rng) — and to PickReference — at every
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
func (p *Picker) PickBatchWithStats(q *query.Query, n int, rng *rand.Rand, eo exec.Options) ([]query.WeightedPartition, PickStats) {
	var st PickStats
	start := time.Now()
	total := len(p.TS.Parts)
	if n >= total {
		// Budget covers everything (mirrors pick's first branch without
		// featurizing): exact answer, weight 1 each.
		sel := make([]query.WeightedPartition, total)
		for i := range sel {
			sel[i] = query.WeightedPartition{Part: i, Weight: 1}
		}
		st.Total = time.Since(start)
		return sel, st
	}
	if n <= 0 {
		st.Total = time.Since(start)
		return nil, st
	}
	plan := p.TS.NewFeaturePlan(q)
	sc := getPickScratch(total, plan.Dim())
	defer putPickScratch(sc)
	sc.setMasks(p, plan)
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
	sel := p.pick(q, sc.rows, n, rng, &st, evalBatch, sc, eo)
	st.Total = time.Since(start)
	return sel, st
}

func (p *Picker) pick(q *query.Query, features [][]float64, n int, rng *rand.Rand, st *PickStats, ev funnelEval, sc *pickScratch, eo exec.Options) []query.WeightedPartition {
	total := len(features)
	if n >= total {
		// Budget covers everything: exact answer, weight 1 each.
		sel := make([]query.WeightedPartition, total)
		for i := range sel {
			sel[i] = query.WeightedPartition{Part: i, Weight: 1}
		}
		return sel
	}
	if n <= 0 {
		return nil
	}
	if rng == nil {
		rng = newRand(p.Cfg.Seed)
	}

	var selection []query.WeightedPartition

	// 1. Outliers (§4.4): partitions with rare group-by bitmap signatures
	// are evaluated exactly, weight 1, consuming up to OutlierBudgetFrac of
	// the budget.
	inliers := allParts(total)
	if !p.Cfg.DisableOutlier {
		outliers, rest := p.findOutliers(q, total)
		budgetCap := int(math.Floor(p.Cfg.OutlierBudgetFrac * float64(n)))
		if len(outliers) > budgetCap {
			outliers = outliers[:budgetCap]
			rest = nil // recompute below
		}
		if rest == nil {
			inOut := make(map[int]bool, len(outliers))
			for _, o := range outliers {
				inOut[o] = true
			}
			rest = rest[:0]
			for i := 0; i < total; i++ {
				if !inOut[i] {
					rest = append(rest, i)
				}
			}
		}
		for _, o := range outliers {
			selection = append(selection, query.WeightedPartition{Part: o, Weight: 1})
		}
		inliers = rest
	}
	budget := n - len(selection)
	if budget <= 0 {
		return selection
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
		return selection
	}
	if budget >= len(candidates) {
		for _, i := range candidates {
			selection = append(selection, query.WeightedPartition{Part: i, Weight: 1})
		}
		return selection
	}

	// 3. Importance funnel (Algorithm 2), least-important group first.
	groups := p.importanceGroups(features, candidates, ev, sc)

	// 4. Allocate budget across groups with rate decaying by α from more to
	// less important groups.
	alloc := allocateSamples(groups, budget, p.Cfg.Alpha)

	// 5. Select within each group via clustering (or random fallback).
	for gi, g := range groups {
		ni := alloc[gi]
		if ni <= 0 || len(g) == 0 {
			continue
		}
		if ni >= len(g) {
			for _, i := range g {
				selection = append(selection, query.WeightedPartition{Part: i, Weight: 1})
			}
			continue
		}
		if p.Cfg.DisableCluster || tooComplex(q, p.Cfg.MaxPredClauses) {
			selection = append(selection, randomSelect(g, ni, rng)...)
			continue
		}
		cstart := time.Now()
		if sc != nil {
			selection = append(selection, p.clusterSelectFast(features, g, ni, rng, sc, eo, &st.KMeans)...)
		} else {
			selection = append(selection, p.clusterSelect(features, g, ni, p.Excluded, rng)...)
		}
		st.Cluster += time.Since(cstart)
	}
	return selection
}

// tooComplex reports whether the predicate exceeds the clause budget beyond
// which clustering features stop being representative (Appendix B.1).
func tooComplex(q *query.Query, maxClauses int) bool {
	return len(query.Clauses(q.Pred)) > maxClauses
}

// findOutliers groups partitions by their group-by-column occurrence
// bitmaps and flags partitions in small groups (absolute < OutlierAbsSize
// and relative < OutlierRelSize × largest). Returns (outliers sorted by
// ascending group size, remaining partitions).
func (p *Picker) findOutliers(q *query.Query, total int) (outliers, rest []int) {
	if len(q.GroupBy) == 0 {
		return nil, allParts(total)
	}
	// Bitmap-bearing group-by columns.
	var cols []int
	for _, name := range q.GroupBy {
		ci := p.TS.Schema.ColIndex(name)
		if ci < 0 {
			continue
		}
		if _, ok := p.TS.GlobalHH[ci]; ok {
			cols = append(cols, ci)
		}
	}
	if len(cols) == 0 {
		return nil, allParts(total)
	}
	// Group partitions by bitmap signature with one sort instead of a map:
	// pairs ordered by (signature, partition) make each group a contiguous
	// run with ascending members, exactly the membership and order the
	// map-based grouping produced.
	type sigPart struct {
		sig  uint64
		part int
	}
	pairs := make([]sigPart, total)
	for i := 0; i < total; i++ {
		var sig uint64
		for _, ci := range cols {
			sig = sig*1000003 + uint64(p.TS.Parts[i].Bitmap[ci]) + 1
		}
		pairs[i] = sigPart{sig, i}
	}
	slices.SortFunc(pairs, func(a, b sigPart) int {
		if c := cmp.Compare(a.sig, b.sig); c != 0 {
			return c
		}
		return cmp.Compare(a.part, b.part)
	})
	type span struct{ lo, hi int } // pairs[lo:hi] is one signature group
	var groups []span
	largest := 0
	for lo := 0; lo < total; {
		hi := lo + 1
		for hi < total && pairs[hi].sig == pairs[lo].sig {
			hi++
		}
		groups = append(groups, span{lo, hi})
		if hi-lo > largest {
			largest = hi - lo
		}
		lo = hi
	}
	var outGroups []span
	for _, g := range groups {
		if n := g.hi - g.lo; n < p.Cfg.OutlierAbsSize &&
			float64(n) < p.Cfg.OutlierRelSize*float64(largest) {
			outGroups = append(outGroups, g)
		}
	}
	slices.SortFunc(outGroups, func(a, b span) int {
		if c := cmp.Compare(a.hi-a.lo, b.hi-b.lo); c != 0 {
			return c
		}
		return cmp.Compare(pairs[a.lo].part, pairs[b.lo].part)
	})
	isOutlier := make([]bool, total)
	for _, g := range outGroups {
		for _, pr := range pairs[g.lo:g.hi] {
			outliers = append(outliers, pr.part)
			isOutlier[pr.part] = true
		}
	}
	for i := 0; i < total; i++ {
		if !isOutlier[i] {
			rest = append(rest, i)
		}
	}
	return outliers, rest
}

// importanceGroups runs the funnel (Algorithm 2): candidates that pass more
// regressors advance further. The result is ordered least → most important.
// All three evaluators visit the same rows in the same order and score with
// bit-identical ensemble outputs, so grouping is evaluator-independent.
// Under evalBatch, features holds selWidth-wide rows and sc the pick's
// scratch; the other evaluators read full rows.
func (p *Picker) importanceGroups(features [][]float64, candidates []int, ev funnelEval, sc *pickScratch) [][]int {
	if p.Cfg.DisableRegressor || len(p.Regs) == 0 {
		return [][]int{candidates}
	}
	groups := [][]int{candidates}
	var tables []*gbt.FoldTable
	if ev == evalBatch {
		tables = p.foldTables()
	}
	for stage, reg := range p.Regs {
		last := groups[len(groups)-1]
		var preds []float64
		if ev == evalBatch {
			preds = sc.preds[:len(last)]
			if stage < len(tables) && tables[stage] != nil {
				// One sweep per stage over the advancing group: per row, one
				// word-AND per tree per named column plus the selectivity
				// conditions.
				sc.scorer.Bind(tables[stage], sc.named)
				sc.scorer.Predict(preds, last, features)
			} else {
				p.walkFullRows(preds, reg, last, features, sc)
			}
		}
		var stay, advance []int
		for k, i := range last {
			var pred float64
			switch {
			case preds != nil:
				pred = preds[k]
			case ev == evalReference:
				pred = reg.PredictReference(features[i])
			default:
				pred = reg.Predict(features[i])
			}
			if pred > p.Thresholds[stage] {
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
func (p *Picker) walkFullRows(preds []float64, reg *gbt.Model, parts []int, sel [][]float64, sc *pickScratch) {
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
		copy(row, sel[i])
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

// compressActive drops feature dimensions that hold one value across all
// rows: masked columns and excluded kinds (all zero), and statistics the
// group happens to share. A constant column adds exactly zero to every
// point-to-point distance (seeding, re-seeds) and to every distance from a
// member to its cluster's median, and at most a rounding residue to
// distances from Lloyd means, so the clustering is the same while its cost
// shrinks to the columns that tell the group's partitions apart.
// clusterSelectFast applies the same test to the same normalized values;
// the two must keep dropping the same columns.
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

// clusterSelect clusters the group's feature vectors into ni clusters and
// returns one weighted exemplar per cluster (§4.2). This is the reference
// implementation — full-width normalization, kind masking and active-column
// compression as separate allocating passes — retained for training-time
// feature selection and the equivalence baseline; the batched pick path
// runs clusterSelectFast instead.
func (p *Picker) clusterSelect(features [][]float64, group []int, ni int, excluded map[stats.Kind]bool, rng *rand.Rand) []query.WeightedPartition {
	rows := make([][]float64, len(group))
	for i, g := range group {
		rows[i] = p.TS.Space.Normalize(features[g])
	}
	rows = maskKinds(p.TS.Space, rows, excluded)
	rows = compressActive(rows)
	asg := p.Cfg.clusterizeRef(rows, ni, rng)
	exs := p.Cfg.exemplars(rows, asg, rng)
	out := make([]query.WeightedPartition, 0, len(exs))
	for _, e := range exs {
		out = append(out, query.WeightedPartition{Part: group[e.Point], Weight: e.Weight})
	}
	return out
}

// clusterSelectFast is clusterSelect fused into one scratch-backed pass over
// selWidth-wide rows. It exploits two invariants of the full rows a
// FeaturePlan stands for: masked slots are exactly zero in every row (so
// they can never be active), and every other non-selectivity slot equals the
// partition's base feature (so its normalized value is a lookup in the
// precomputed TableStats.NormBase matrix instead of a transform + division)
// — it reads nothing from features but the four selectivity estimates. The
// compact matrix it hands to the clustering algorithm is bit-identical to
// the reference pipeline's: NormBase and NormalizeValue produce Normalize's
// values bit for bit, and a column is active exactly when compressActive
// keeps it — some row's normalized value differs from the first row's.
func (p *Picker) clusterSelectFast(features [][]float64, group []int, ni int, rng *rand.Rand, sc *pickScratch, eo exec.Options, ks *cluster.KMeansStats) []query.WeightedPartition {
	m := p.TS.Space.Dim()
	nb := p.TS.NormBase()
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
	asg := p.Cfg.clusterize(rows, ni, rng, eo, ks)
	exs := p.Cfg.exemplars(rows, asg, rng)
	out := make([]query.WeightedPartition, 0, len(exs))
	for _, e := range exs {
		out = append(out, query.WeightedPartition{Part: group[e.Point], Weight: e.Weight})
	}
	return out
}

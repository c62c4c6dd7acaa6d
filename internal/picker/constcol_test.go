package picker

import (
	"math/rand"
	"testing"

	"ps3/internal/cluster"
	"ps3/internal/exec"
	"ps3/internal/query"
)

// newDupEnv builds a table whose partitions are copies of a few templates:
// partitions 0–5 are row-for-row identical, so are 6–8, and 9–13 are each
// their own. Identical partitions have identical statistics, which gives
// clustering groups every feature column of which is constant.
func newDupEnv(t testing.TB, cfg Config) *testEnv {
	t.Helper()
	const rowsPer = 20
	template := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 3, 4, 5, 6}
	return newEnvFromRows(t, len(template), rowsPer, cfg, func(part, i int) (float64, float64, string) {
		// Rows are a function of (template, row within partition) only.
		rng := rand.New(rand.NewSource(int64(template[part]*rowsPer + i%rowsPer)))
		g := "common"
		if i%2 == 0 {
			g = "even"
		}
		return float64(template[part]+1) * (1 + rng.Float64()), rng.NormFloat64(), g
	})
}

// selectBoth runs the reference and the production cluster selection over
// one group of env's partitions, featurized for q with mutate applied to the
// feature rows — the reference over full rows, production over the batched
// path's four selectivity columns — and checks the contract that lets the
// two stand in for each other: the same selection from the same rng
// consumption, weights summing to the group size. It returns the production
// path's active column count.
func selectBoth(t *testing.T, env *testEnv, q *query.Query, group []int, ni int, mutate func(rows [][]float64)) int {
	t.Helper()
	p := env.p
	plan := p.TS.NewFeaturePlan(q)
	total, m := len(p.TS.Parts), plan.Dim()
	sc := getPickScratch(total, m)
	defer putPickScratch(sc)
	sc.setMasks(p.TS.Space, p.Excluded, plan.UsedCols())
	full := make([][]float64, total)
	for i := 0; i < total; i++ {
		full[i] = make([]float64, m)
		plan.FillRow(full[i], i)
		plan.FillSel(sc.rows[i], i)
	}
	if mutate != nil {
		mutate(full)
		mutate(sc.rows)
	}
	refRng, fastRng := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	ref := p.refClusterSelect(full, group, ni, p.Excluded, refRng)
	var ks cluster.KMeansStats
	fast := p.clusterSelectFast(sc.rows, group, ni, fastRng, sc, cluster.KMeansOpts{Parallelism: 1, Stats: &ks})
	if !selectionsEqual(ref, fast) {
		t.Fatalf("clusterSelectFast diverges from refClusterSelect\nref:  %v\nfast: %v", ref, fast)
	}
	if a, b := refRng.Int63(), fastRng.Int63(); a != b {
		t.Fatalf("the two paths consumed the rng differently (next draw %d vs %d)", a, b)
	}
	var w float64
	for _, wp := range fast {
		w += wp.Weight
	}
	if w != float64(len(group)) {
		t.Fatalf("weights sum to %v, want the group size %d", w, len(group))
	}
	return len(sc.active)
}

// TestClusterSelectConstantColumns drives both cluster-selection paths over
// groups that constant-column elimination reduces to nothing, to a single
// column, and to a matrix with duplicated rows.
func TestClusterSelectConstantColumns(t *testing.T) {
	env := newDupEnv(t, Config{Seed: 5})
	upper, _, _, _ := env.p.TS.Space.SelectivitySlots()
	identical := []int{0, 1, 2, 3, 4, 5}
	all := allParts(len(env.p.TS.Parts))
	for qi, ex := range env.exs[:8] {
		for _, ni := range []int{1, 2, 4} {
			if na := selectBoth(t, env, ex.Query, identical, ni, nil); na != 0 {
				t.Fatalf("query %d: %d active columns over identical partitions, want 0", qi, na)
			}
			// Identical partitions told apart by one per-query column only.
			na := selectBoth(t, env, ex.Query, identical, ni, func(rows [][]float64) {
				for k, g := range identical {
					rows[g][upper] = 0.1 * float64(k/2+1)
				}
			})
			if na != 1 {
				t.Fatalf("query %d: %d active columns with one varying column, want 1", qi, na)
			}
			selectBoth(t, env, ex.Query, all, ni+3, nil)
		}
	}
}

// TestPickBatchMatchesReferenceWithDuplicates is the end-to-end bit-identity
// contract on the duplicated-partition fixture, where importance groups hold
// runs of identical rows and often no varying column at all.
func TestPickBatchMatchesReferenceWithDuplicates(t *testing.T) {
	env := newDupEnv(t, Config{Seed: 5})
	for qi, ex := range env.exs {
		for _, n := range []int{1, 2, 3, 5, 8, 13} {
			ref := env.p.pickReference(ex.Query, ex.Features, n, rand.New(rand.NewSource(int64(qi*100+n))))
			for _, par := range []int{1, 3, 0} {
				got := env.p.PickBatch(ex.Query, n, rand.New(rand.NewSource(int64(qi*100+n))), exec.Options{Parallelism: par})
				if !selectionsEqual(ref, got) {
					t.Fatalf("query %d budget %d parallelism %d: PickBatch diverges from reference\nref: %v\ngot: %v",
						qi, n, par, ref, got)
				}
			}
		}
	}
}

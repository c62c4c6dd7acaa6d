package stats

import (
	"math"
	"testing"

	"ps3/internal/query"
)

// testPreds returns a battery of predicate shapes covering every compiled
// node kind: single clauses (numeric and categorical, every operator),
// negations of both, general negations, conjunctions with multi-clause
// per-column ranges (bounds, equalities, inequalities, contradictions),
// disjunctions, nesting, unknown columns, and dictionary misses.
func testPreds() []query.Pred {
	return []query.Pred{
		nil,
		&query.Clause{Col: "x", Op: query.OpGt, Num: 15},
		&query.Clause{Col: "x", Op: query.OpLe, Num: 8},
		&query.Clause{Col: "x", Op: query.OpEq, Num: 20.5},
		&query.Clause{Col: "x", Op: query.OpNe, Num: 20.5},
		&query.Clause{Col: "cat", Op: query.OpEq, Strs: []string{"a"}},
		&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "rare"}},
		&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"nowhere", "b"}},
		&query.Clause{Col: "cat", Op: query.OpNe, Strs: []string{"b"}},
		&query.Clause{Col: "ghost", Op: query.OpEq, Num: 1},
		&query.Not{Child: &query.Clause{Col: "x", Op: query.OpLt, Num: 12}},
		&query.Not{Child: query.NewAnd(
			&query.Clause{Col: "x", Op: query.OpGt, Num: 5},
			&query.Clause{Col: "y", Op: query.OpLt, Num: 4},
		)},
		query.NewAnd(
			&query.Clause{Col: "x", Op: query.OpGe, Num: 10},
			&query.Clause{Col: "x", Op: query.OpLt, Num: 30},
			&query.Clause{Col: "y", Op: query.OpGt, Num: 2},
		),
		query.NewAnd( // equality inside range, plus inequality point
			&query.Clause{Col: "x", Op: query.OpEq, Num: 20.2},
			&query.Clause{Col: "x", Op: query.OpGe, Num: 10},
			&query.Clause{Col: "x", Op: query.OpNe, Num: 25},
		),
		query.NewAnd( // conflicting equalities → 0
			&query.Clause{Col: "x", Op: query.OpEq, Num: 1},
			&query.Clause{Col: "x", Op: query.OpEq, Num: 2},
		),
		query.NewAnd( // equality outside the merged range → 0
			&query.Clause{Col: "x", Op: query.OpEq, Num: 50},
			&query.Clause{Col: "x", Op: query.OpLt, Num: 40},
		),
		query.NewAnd( // mixed numeric + categorical + unknown column
			&query.Clause{Col: "x", Op: query.OpGt, Num: 12},
			&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "b"}},
			&query.Clause{Col: "ghost", Op: query.OpGt, Num: 0},
		),
		query.NewOr(
			&query.Clause{Col: "x", Op: query.OpLt, Num: 5},
			&query.Clause{Col: "x", Op: query.OpGt, Num: 45},
		),
		query.NewOr(
			query.NewAnd(
				&query.Clause{Col: "x", Op: query.OpGt, Num: 10},
				&query.Clause{Col: "y", Op: query.OpLt, Num: 3},
			),
			&query.Clause{Col: "cat", Op: query.OpEq, Strs: []string{"rare"}},
			&query.Not{Child: &query.Clause{Col: "y", Op: query.OpGe, Num: 5}},
		),
	}
}

// featuresReference is the reference featurizer FeaturePlan is
// equivalence-tested against: one fresh slice per partition, the column mask
// resolved through a map, and the per-partition selectivity estimator that
// re-walks the predicate for every partition.
func featuresReference(ts *TableStats, q *query.Query) [][]float64 {
	used := make(map[int]bool)
	for _, name := range q.Columns() {
		if ci := ts.Schema.ColIndex(name); ci >= 0 {
			used[ci] = true
		}
	}
	m := ts.Space.Dim()
	out := make([][]float64, len(ts.Parts))
	est := newSelEstimator(ts, q.Pred)
	for i, ps := range ts.Parts {
		v := make([]float64, m)
		copy(v, ts.base[i*m:(i+1)*m])
		// Mask features of unused columns.
		for j, meta := range ts.Space.Meta {
			if meta.Col >= 0 && !used[meta.Col] {
				v[j] = 0
			}
		}
		upper, indep, minS, maxS := est.estimate(ps)
		v[0], v[1], v[2], v[3] = upper, indep, minS, maxS
		out[i] = v
	}
	return out
}

// TestSelProgramMatchesReference: the compiled selectivity program must
// reproduce the reference estimator bit for bit on every partition, for
// every predicate shape.
func TestSelProgramMatchesReference(t *testing.T) {
	tbl := buildTestTable(t, 6, 40)
	ts := buildStats(t, tbl)
	for pi, pred := range testPreds() {
		ref := newSelEstimator(ts, pred)
		prog := ts.compileSel(pred)
		for i, ps := range ts.Parts {
			ru, rind, rmin, rmax := ref.estimate(ps)
			gu, gind, gmin, gmax := prog.estimate(ps)
			if ru != gu || rind != gind || rmin != gmin || rmax != gmax {
				t.Fatalf("pred %d partition %d: program (%v,%v,%v,%v) != reference (%v,%v,%v,%v)",
					pi, i, gu, gind, gmin, gmax, ru, rind, rmin, rmax)
			}
		}
	}
}

// TestFeaturePlanMatchesFeatures: FillRow, and Features built from it, must
// reproduce the reference matrix bit for bit, across queries that mask
// different column subsets.
func TestFeaturePlanMatchesFeatures(t *testing.T) {
	tbl := buildTestTable(t, 6, 40)
	ts := buildStats(t, tbl)
	queries := []*query.Query{
		{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}}},
		{Aggs: []query.Aggregate{{Kind: query.Count}}, GroupBy: []string{"cat"}},
		{
			Aggs:    []query.Aggregate{{Kind: query.Avg, Expr: query.Col("y")}},
			GroupBy: []string{"cat"},
			Pred: query.NewAnd(
				&query.Clause{Col: "x", Op: query.OpGt, Num: 12},
				&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "rare"}},
			),
		},
	}
	for _, pred := range testPreds() {
		queries = append(queries, &query.Query{
			Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}},
			GroupBy: []string{"cat"},
			Pred:    pred,
		})
	}
	for qi, q := range queries {
		want := featuresReference(ts, q)
		features := ts.Features(q)
		plan := ts.NewFeaturePlan(q)
		if len(plan.ts.Parts) != len(want) || plan.Dim() != ts.Space.Dim() {
			t.Fatalf("query %d: plan shape %dx%d, want %dx%d", qi, len(plan.ts.Parts), plan.Dim(), len(want), ts.Space.Dim())
		}
		dst := make([]float64, plan.Dim())
		for i := range want {
			plan.FillRow(dst, i)
			for j := range dst {
				if math.Float64bits(dst[j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("query %d partition %d slot %d: plan %v != reference %v", qi, i, j, dst[j], want[i][j])
				}
				if math.Float64bits(features[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("query %d partition %d slot %d: Features %v != reference %v", qi, i, j, features[i][j], want[i][j])
				}
			}
		}
	}
}

// TestFillRowZeroAllocs: after plan compilation, featurizing a partition
// must not allocate.
func TestFillRowZeroAllocs(t *testing.T) {
	tbl := buildTestTable(t, 6, 40)
	ts := buildStats(t, tbl)
	q := &query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}},
		GroupBy: []string{"cat"},
		Pred: query.NewAnd(
			&query.Clause{Col: "x", Op: query.OpGt, Num: 12},
			&query.Clause{Col: "x", Op: query.OpLt, Num: 44},
			&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "b"}},
		),
	}
	plan := ts.NewFeaturePlan(q)
	dst := make([]float64, plan.Dim())
	part := 0
	allocs := testing.AllocsPerRun(50, func() {
		plan.FillRow(dst, part)
		part = (part + 1) % len(ts.Parts)
	})
	if allocs != 0 {
		t.Fatalf("FillRow allocates %.0f objects per call, want 0", allocs)
	}
}

// TestFeaturePlanConcurrentFill: one plan, many goroutines filling disjoint
// rows — results must match the sequential reference (run under -race).
func TestFeaturePlanConcurrentFill(t *testing.T) {
	tbl := buildTestTable(t, 8, 30)
	ts := buildStats(t, tbl)
	q := &query.Query{
		Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}},
		Pred: &query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "rare"}},
	}
	want := featuresReference(ts, q)
	plan := ts.NewFeaturePlan(q)
	m := plan.Dim()
	got := make([]float64, len(ts.Parts)*m)
	done := make(chan int, len(ts.Parts))
	for i := 0; i < len(ts.Parts); i++ {
		go func(i int) {
			plan.FillRow(got[i*m:(i+1)*m], i)
			done <- i
		}(i)
	}
	for i := 0; i < len(ts.Parts); i++ {
		<-done
	}
	for i := range want {
		for j := range want[i] {
			if got[i*m+j] != want[i][j] {
				t.Fatalf("partition %d slot %d: concurrent fill %v != %v", i, j, got[i*m+j], want[i][j])
			}
		}
	}
}

// BenchmarkFeaturize compares the reference matrix build against a compiled
// plan filling a reused scratch matrix for the same query.
func BenchmarkFeaturize(b *testing.B) {
	tbl := buildTestTable(b, 64, 500)
	ts, err := Build(tbl, Options{GroupableCols: []string{"cat"}})
	if err != nil {
		b.Fatal(err)
	}
	q := &query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}},
		GroupBy: []string{"cat"},
		Pred: query.NewAnd(
			&query.Clause{Col: "x", Op: query.OpGt, Num: 100},
			&query.Clause{Col: "x", Op: query.OpLt, Num: 500},
			&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "b"}},
		),
	}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			featuresReference(ts, q)
		}
	})
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		plan := ts.NewFeaturePlan(q)
		scratch := make([]float64, len(ts.Parts)*plan.Dim())
		m := plan.Dim()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for part := 0; part < len(ts.Parts); part++ {
				plan.FillRow(scratch[part*m:(part+1)*m], part)
			}
		}
	})
}

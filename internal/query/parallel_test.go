package query

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ps3/internal/exec"
	"ps3/internal/table"
	"ps3/internal/testutil"
)

// noisyFixture builds a table of irregular floating-point values: if the
// parallel scan merged answers in any order other than the sequential one,
// non-associative float addition would change low-order bits and the
// byte-identity assertions below would catch it.
func noisyFixture(t *testing.T, rows, rowsPerPart int, seed int64) *table.Table {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "x", Kind: table.Numeric},
		table.Column{Name: "y", Kind: table.Numeric},
		table.Column{Name: "cat", Kind: table.Categorical},
	)
	b, err := table.NewBuilder(s, rowsPerPart)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	cats := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < rows; i++ {
		num := []float64{
			rng.NormFloat64() * math.Exp(rng.NormFloat64()*8),
			rng.Float64() * 1e6,
			0,
		}
		cat := []string{"", "", cats[rng.Intn(len(cats))]}
		if err := b.Append(num, cat); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

// equivalenceQueries covers the aggregate kinds, grouping, filters, and
// predicate shapes whose accumulators must merge identically.
func equivalenceQueries() []*Query {
	return []*Query{
		{Aggs: []Aggregate{{Kind: Sum, Expr: Col("x")}}},
		{Aggs: []Aggregate{{Kind: Avg, Expr: Col("x")}, {Kind: Count}}, GroupBy: []string{"cat"}},
		{
			Aggs: []Aggregate{
				{Kind: Sum, Expr: Col("x").Add(Col("y"))},
				{Kind: Count, Filter: &Clause{Col: "cat", Op: OpIn, Strs: []string{"a", "c"}}},
			},
			Pred:    &Clause{Col: "y", Op: OpGt, Num: 2e5},
			GroupBy: []string{"cat"},
		},
		{
			Aggs: []Aggregate{{Kind: Sum, Expr: Col("y")}},
			Pred: NewOr(&Clause{Col: "x", Op: OpLt, Num: 0}, &Clause{Col: "cat", Op: OpEq, Strs: []string{"b"}}),
		},
	}
}

// parallelismLevels are the worker counts every scan must agree across.
func parallelismLevels() []int {
	return []int{1, 2, 3, runtime.GOMAXPROCS(0)}
}

// requireIdenticalAnswers asserts got and want are byte-identical: same
// groups, same accumulator bits.
func requireIdenticalAnswers(t *testing.T, label string, want, got *Answer) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(want.Groups))
	}
	for g, wv := range want.Groups {
		gv, ok := got.Groups[g]
		if !ok {
			t.Fatalf("%s: missing group %x", label, g)
		}
		for j := range wv {
			if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) {
				t.Fatalf("%s: group %x comp %d: %v (bits %x) != %v (bits %x)",
					label, g, j, gv[j], math.Float64bits(gv[j]), wv[j], math.Float64bits(wv[j]))
			}
		}
	}
}

func TestGroundTruthParallelEquivalence(t *testing.T) {
	tbl := noisyFixture(t, 3000, 100, 11)
	for qi, q := range equivalenceQueries() {
		c := mustCompile(t, q, tbl)
		c.Exec = exec.Options{Parallelism: 1}
		wantTotal, wantPer := c.GroundTruth(tbl)
		for _, par := range parallelismLevels() {
			c.Exec = exec.Options{Parallelism: par}
			gotTotal, gotPer := c.GroundTruth(tbl)
			label := q.String()
			requireIdenticalAnswers(t, label, wantTotal, gotTotal)
			if len(gotPer) != len(wantPer) {
				t.Fatalf("q%d par=%d: %d per-part answers, want %d", qi, par, len(gotPer), len(wantPer))
			}
			for i := range wantPer {
				requireIdenticalAnswers(t, label, wantPer[i], gotPer[i])
			}
		}
	}
}

func TestEstimateParallelEquivalence(t *testing.T) {
	tbl := noisyFixture(t, 3000, 100, 12)
	rng := rand.New(rand.NewSource(5))
	var sel []WeightedPartition
	var selParts []int
	for i := 0; i < tbl.NumParts(); i += 2 {
		sel = append(sel, WeightedPartition{Part: i, Weight: 1 + rng.Float64()*3})
		selParts = append(selParts, i)
	}
	for _, q := range equivalenceQueries() {
		c := mustCompile(t, q, tbl)
		c.Exec = exec.Options{Parallelism: 1}
		want, err := c.EstimateCtx(context.Background(), tbl, sel)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parallelismLevels() {
			c.Exec = exec.Options{Parallelism: par}
			src := testutil.CountReads(tbl)
			got, err := c.EstimateCtx(context.Background(), src, sel)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalAnswers(t, q.String(), want, got)
			if reads := src.Reads(); !slices.Equal(reads, selParts) {
				t.Fatalf("par=%d: read partitions %v, want %v", par, reads, selParts)
			}
		}
	}
}

func TestSelectivityParallelEquivalence(t *testing.T) {
	tbl := noisyFixture(t, 3000, 100, 13)
	for _, q := range equivalenceQueries() {
		c := mustCompile(t, q, tbl)
		c.Exec = exec.Options{Parallelism: 1}
		want := c.Selectivity(tbl)
		for _, par := range parallelismLevels() {
			c.Exec = exec.Options{Parallelism: par}
			if got := c.Selectivity(tbl); got != want {
				t.Fatalf("q=%s par=%d: Selectivity = %v, want %v", q, par, got, want)
			}
		}
	}
}

// Generator-sampled queries widen the shapes the equivalence property is
// checked on beyond the hand-written cases.
func TestGeneratedQueriesParallelEquivalence(t *testing.T) {
	tbl := noisyFixture(t, 2000, 80, 14)
	wl := Workload{
		GroupableCols: []string{"cat"},
		PredicateCols: []string{"x", "y", "cat"},
		AggCols:       []string{"x", "y"},
	}
	gen, err := NewGenerator(wl, tbl, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.SampleN(25) {
		c := mustCompile(t, q, tbl)
		c.Exec = exec.Options{Parallelism: 1}
		want, _ := c.GroundTruth(tbl)
		for _, par := range parallelismLevels() {
			c.Exec = exec.Options{Parallelism: par}
			got, _ := c.GroundTruth(tbl)
			requireIdenticalAnswers(t, q.String(), want, got)
		}
	}
}

func TestAnswerMergeMatchesAddWeighted(t *testing.T) {
	tbl := noisyFixture(t, 1000, 50, 15)
	q := &Query{Aggs: []Aggregate{{Kind: Sum, Expr: Col("x")}, {Kind: Avg, Expr: Col("y")}}, GroupBy: []string{"cat"}}
	c := mustCompile(t, q, tbl)
	_, perPart := c.GroundTruth(tbl)
	viaMerge, viaAdd := c.NewAnswer(), c.NewAnswer()
	for _, pa := range perPart {
		viaMerge.Merge(pa)
		viaAdd.AddWeighted(pa, 1)
	}
	requireIdenticalAnswers(t, "merge-vs-addweighted", viaAdd, viaMerge)
}

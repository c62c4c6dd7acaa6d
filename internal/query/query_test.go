package query

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ps3/internal/table"
	"ps3/internal/testutil"
)

// fixture builds a small table:
//
//	x: 0..99, cat: a/b cycling, d: x/10, y: 2x
func fixture(t *testing.T, rowsPerPart int) *table.Table {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "x", Kind: table.Numeric},
		table.Column{Name: "y", Kind: table.Numeric},
		table.Column{Name: "cat", Kind: table.Categorical},
		table.Column{Name: "d", Kind: table.Date},
	)
	b, err := table.NewBuilder(s, rowsPerPart)
	if err != nil {
		t.Fatal(err)
	}
	cats := []string{"a", "b"}
	for i := 0; i < 100; i++ {
		num := []float64{float64(i), float64(2 * i), 0, math.Floor(float64(i) / 10)}
		cat := []string{"", "", cats[i%2], ""}
		if err := b.Append(num, cat); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

func mustCompile(t *testing.T, q *Query, tbl *table.Table) *Compiled {
	t.Helper()
	c, err := Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCountStar(t *testing.T) {
	tbl := fixture(t, 25)
	c := mustCompile(t, &Query{Aggs: []Aggregate{{Kind: Count}}}, tbl)
	total, perPart := c.GroundTruth(tbl)
	vals := c.FinalValues(total)
	if len(vals) != 1 {
		t.Fatalf("ungrouped query has %d groups, want 1", len(vals))
	}
	for _, v := range vals {
		if v[0] != 100 {
			t.Errorf("COUNT(*) = %g, want 100", v[0])
		}
	}
	if len(perPart) != 4 {
		t.Fatalf("perPart has %d answers, want 4", len(perPart))
	}
}

func TestSumWithPredicate(t *testing.T) {
	tbl := fixture(t, 25)
	q := &Query{
		Aggs: []Aggregate{{Kind: Sum, Expr: Col("x")}},
		Pred: &Clause{Col: "x", Op: OpLt, Num: 10},
	}
	c := mustCompile(t, q, tbl)
	total, _ := c.GroundTruth(tbl)
	for _, v := range c.FinalValues(total) {
		if v[0] != 45 { // 0+1+...+9
			t.Errorf("SUM(x) WHERE x<10 = %g, want 45", v[0])
		}
	}
}

func TestAvgIsWeightedCorrectly(t *testing.T) {
	tbl := fixture(t, 25)
	q := &Query{Aggs: []Aggregate{{Kind: Avg, Expr: Col("x")}}}
	c := mustCompile(t, q, tbl)
	_, perPart := c.GroundTruth(tbl)
	// EstimateCtx from two partitions with weight 2 each: AVG must still be
	// the ratio of weighted sums, not the average of averages.
	ans := c.NewAnswer()
	ans.AddWeighted(perPart[0], 2) // rows 0..24
	ans.AddWeighted(perPart[3], 2) // rows 75..99
	for _, v := range c.FinalValues(ans) {
		want := (2*(24.0*25/2) + 2*(75.0+99)*25/2) / 100
		if math.Abs(v[0]-want) > 1e-9 {
			t.Errorf("weighted AVG = %g, want %g", v[0], want)
		}
	}
}

func TestGroupBy(t *testing.T) {
	tbl := fixture(t, 25)
	q := &Query{
		GroupBy: []string{"cat"},
		Aggs:    []Aggregate{{Kind: Count}},
	}
	c := mustCompile(t, q, tbl)
	total, _ := c.GroundTruth(tbl)
	vals := c.FinalValues(total)
	if len(vals) != 2 {
		t.Fatalf("got %d groups, want 2", len(vals))
	}
	for g, v := range vals {
		if v[0] != 50 {
			t.Errorf("group %s count = %g, want 50", c.GroupLabel(g), v[0])
		}
		if !strings.HasPrefix(c.GroupLabel(g), "cat=") {
			t.Errorf("label %q should start with cat=", c.GroupLabel(g))
		}
	}
}

func TestGroupByNumericColumn(t *testing.T) {
	tbl := fixture(t, 25)
	q := &Query{
		GroupBy: []string{"d"},
		Aggs:    []Aggregate{{Kind: Sum, Expr: Col("y")}},
	}
	c := mustCompile(t, q, tbl)
	total, _ := c.GroundTruth(tbl)
	vals := c.FinalValues(total)
	if len(vals) != 10 {
		t.Fatalf("got %d groups, want 10 decades", len(vals))
	}
}

func TestLinearExpression(t *testing.T) {
	tbl := fixture(t, 50)
	q := &Query{Aggs: []Aggregate{{Kind: Sum, Expr: Col("y").Sub(Col("x"))}}}
	c := mustCompile(t, q, tbl)
	total, _ := c.GroundTruth(tbl)
	for _, v := range c.FinalValues(total) {
		// y - x = x, so SUM = 0+1+...+99 = 4950.
		if v[0] != 4950 {
			t.Errorf("SUM(y-x) = %g, want 4950", v[0])
		}
	}
}

func TestFilteredAggregate(t *testing.T) {
	tbl := fixture(t, 50)
	q := &Query{Aggs: []Aggregate{
		{Kind: Count, Filter: &Clause{Col: "cat", Op: OpEq, Strs: []string{"a"}}},
		{Kind: Count},
	}}
	c := mustCompile(t, q, tbl)
	total, _ := c.GroundTruth(tbl)
	for _, v := range c.FinalValues(total) {
		if v[0] != 50 || v[1] != 100 {
			t.Errorf("filtered/unfiltered counts = %g/%g, want 50/100", v[0], v[1])
		}
	}
}

func TestPredicateOperators(t *testing.T) {
	tbl := fixture(t, 50)
	cases := []struct {
		pred Pred
		want float64
	}{
		{&Clause{Col: "x", Op: OpEq, Num: 5}, 1},
		{&Clause{Col: "x", Op: OpNe, Num: 5}, 99},
		{&Clause{Col: "x", Op: OpLe, Num: 5}, 6},
		{&Clause{Col: "x", Op: OpGt, Num: 95}, 4},
		{&Clause{Col: "x", Op: OpGe, Num: 95}, 5},
		{&Clause{Col: "cat", Op: OpEq, Strs: []string{"a"}}, 50},
		{&Clause{Col: "cat", Op: OpNe, Strs: []string{"a"}}, 50},
		{&Clause{Col: "cat", Op: OpIn, Strs: []string{"a", "b"}}, 100},
		{&Clause{Col: "cat", Op: OpIn, Strs: []string{"zzz"}}, 0},
		{&Not{Child: &Clause{Col: "x", Op: OpLt, Num: 10}}, 90},
		{NewAnd(&Clause{Col: "x", Op: OpGe, Num: 10}, &Clause{Col: "x", Op: OpLt, Num: 20}), 10},
		{NewOr(&Clause{Col: "x", Op: OpLt, Num: 5}, &Clause{Col: "x", Op: OpGe, Num: 95}), 10},
	}
	for _, tc := range cases {
		q := &Query{Aggs: []Aggregate{{Kind: Count}}, Pred: tc.pred}
		c := mustCompile(t, q, tbl)
		total, _ := c.GroundTruth(tbl)
		vals := c.FinalValues(total)
		if tc.want == 0 {
			if len(vals) != 0 {
				t.Errorf("pred %s: expected empty answer", tc.pred)
			}
			continue
		}
		for _, v := range vals {
			if v[0] != tc.want {
				t.Errorf("pred %s: count = %g, want %g", tc.pred, v[0], tc.want)
			}
		}
	}
}

func TestSelectivity(t *testing.T) {
	tbl := fixture(t, 25)
	q := &Query{
		Aggs: []Aggregate{{Kind: Count}},
		Pred: &Clause{Col: "x", Op: OpLt, Num: 25},
	}
	c := mustCompile(t, q, tbl)
	if got := c.Selectivity(tbl); got != 0.25 {
		t.Errorf("Selectivity = %g, want 0.25", got)
	}
}

func TestSelectivityZeroRowTable(t *testing.T) {
	empty := &table.Table{Schema: fixture(t, 25).Schema, Dict: table.NewDict()}
	q := &Query{
		Aggs: []Aggregate{{Kind: Count}},
		Pred: &Clause{Col: "x", Op: OpLt, Num: 25},
	}
	c := mustCompile(t, q, empty)
	if got := c.Selectivity(empty); got != 0 {
		t.Errorf("Selectivity on zero-row table = %g, want 0", got)
	}
	total, perPart := c.GroundTruth(empty)
	if len(total.Groups) != 0 || len(perPart) != 0 {
		t.Errorf("GroundTruth on zero-row table: %d groups / %d partitions, want 0/0",
			len(total.Groups), len(perPart))
	}
}

func TestUnseenCategoricalPredicates(t *testing.T) {
	tbl := fixture(t, 25)
	cases := []struct {
		pred Pred
		want float64 // selectivity
	}{
		{&Clause{Col: "cat", Op: OpEq, Strs: []string{"zzz"}}, 0},
		{&Clause{Col: "cat", Op: OpNe, Strs: []string{"zzz"}}, 1},
		{&Clause{Col: "cat", Op: OpIn, Strs: []string{"zzz", "a"}}, 0.5},
		{&Not{Child: &Clause{Col: "cat", Op: OpIn, Strs: []string{"zzz"}}}, 1},
	}
	for _, tc := range cases {
		q := &Query{Aggs: []Aggregate{{Kind: Count}}, Pred: tc.pred}
		c := mustCompile(t, q, tbl)
		if got := c.Selectivity(tbl); got != tc.want {
			t.Errorf("pred %s: selectivity = %g, want %g", tc.pred, got, tc.want)
		}
		if got, want := c.Selectivity(tbl), c.SelectivityReference(tbl); got != want {
			t.Errorf("pred %s: vectorized selectivity %g != reference %g", tc.pred, got, want)
		}
	}
}

func TestFilterRejectsAllSelectedRows(t *testing.T) {
	tbl := fixture(t, 25)
	q := &Query{
		GroupBy: []string{"cat"},
		Aggs: []Aggregate{
			{Kind: Count, Filter: &Clause{Col: "x", Op: OpLt, Num: -1}},
			{Kind: Sum, Expr: Col("x"), Filter: &Clause{Col: "x", Op: OpLt, Num: -1}},
			{Kind: Avg, Expr: Col("x"), Filter: &Clause{Col: "x", Op: OpLt, Num: -1}},
			{Kind: Count},
		},
	}
	c := mustCompile(t, q, tbl)
	total, _ := c.GroundTruth(tbl)
	vals := c.FinalValues(total)
	if len(vals) != 2 {
		t.Fatalf("got %d groups, want 2 (groups exist even when filters reject all rows)", len(vals))
	}
	for g, v := range vals {
		if v[0] != 0 || v[1] != 0 || v[2] != 0 {
			t.Errorf("group %s: filtered aggs = %v, want zeros", c.GroupLabel(g), v[:3])
		}
		if v[3] != 50 {
			t.Errorf("group %s: unfiltered count = %g, want 50", c.GroupLabel(g), v[3])
		}
	}
}

func TestGroupLabelMalformedKey(t *testing.T) {
	tbl := fixture(t, 25)
	q := &Query{
		GroupBy: []string{"cat", "x"},
		Aggs:    []Aggregate{{Kind: Count}},
	}
	c := mustCompile(t, q, tbl)
	// A well-formed key is 4 (categorical code) + 8 (numeric) bytes.
	for _, key := range []string{"", "xx", "0123456789a", "0123456789abcdef0"} {
		if got := c.GroupLabel(key); !strings.Contains(got, "malformed") {
			t.Errorf("GroupLabel(%d bytes) = %q, want diagnostic label", len(key), got)
		}
	}
	// A key carrying an out-of-range dictionary code must not panic.
	bad := string([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	if got := c.GroupLabel(bad); !strings.Contains(got, "bad code") {
		t.Errorf("GroupLabel(bad code) = %q, want bad-code diagnostic", got)
	}
	// Ungrouped queries keep the sentinel label.
	c2 := mustCompile(t, &Query{Aggs: []Aggregate{{Kind: Count}}}, tbl)
	if got := c2.GroupLabel(""); got != "<all>" {
		t.Errorf("ungrouped GroupLabel = %q, want <all>", got)
	}
}

func TestCompileErrors(t *testing.T) {
	tbl := fixture(t, 50)
	cases := []*Query{
		{Aggs: []Aggregate{{Kind: Sum, Expr: Col("missing")}}},
		{Aggs: []Aggregate{{Kind: Sum, Expr: Col("cat")}}}, // categorical aggregate
		{Aggs: []Aggregate{{Kind: Count}}, GroupBy: []string{"nope"}},
		{Aggs: []Aggregate{{Kind: Count}}, Pred: &Clause{Col: "nope", Op: OpEq, Num: 1}},
		{Aggs: []Aggregate{{Kind: Count}}, Pred: &Clause{Col: "cat", Op: OpLt, Num: 1}}, // < on categorical
		{Aggs: []Aggregate{{Kind: Count}}, Pred: &Clause{Col: "x", Op: OpIn, Strs: []string{"a"}}},
		{}, // no aggregates
	}
	for i, q := range cases {
		if _, err := Compile(q, tbl); err == nil {
			t.Errorf("case %d: Compile should have failed for %s", i, q)
		}
	}
}

func TestEstimateChargesIO(t *testing.T) {
	tbl := fixture(t, 25)
	q := &Query{Aggs: []Aggregate{{Kind: Count}}}
	c := mustCompile(t, q, tbl)
	src := testutil.CountReads(tbl)
	ans, err := c.EstimateCtx(context.Background(), src, []WeightedPartition{{Part: 0, Weight: 4}, {Part: 2, Weight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Reads(); !slices.Equal(got, []int{0, 2}) {
		t.Errorf("EstimateCtx read partitions %v, want [0 2]", got)
	}
	for _, v := range c.FinalValues(ans) {
		if v[0] != 200 { // 2 partitions × 25 rows × weight 4
			t.Errorf("weighted COUNT = %g, want 200", v[0])
		}
	}
}

func TestWeightedCombinationLinearity(t *testing.T) {
	tbl := fixture(t, 20)
	q := &Query{
		GroupBy: []string{"cat"},
		Aggs:    []Aggregate{{Kind: Sum, Expr: Col("x")}, {Kind: Count}},
	}
	c := mustCompile(t, q, tbl)
	total, perPart := c.GroundTruth(tbl)
	// Reconstructing with all weights 1 must equal ground truth exactly.
	ans := c.NewAnswer()
	for i := range perPart {
		ans.AddWeighted(perPart[i], 1)
	}
	want := c.FinalValues(total)
	got := c.FinalValues(ans)
	if len(want) != len(got) {
		t.Fatalf("group count mismatch: %d vs %d", len(got), len(want))
	}
	for g, wv := range want {
		for j := range wv {
			if math.Abs(got[g][j]-wv[j]) > 1e-9 {
				t.Errorf("group %s agg %d: %g vs %g", c.GroupLabel(g), j, got[g][j], wv[j])
			}
		}
	}
}

func TestQueryString(t *testing.T) {
	q := &Query{
		GroupBy: []string{"cat"},
		Aggs: []Aggregate{
			{Kind: Sum, Expr: Col("x"), Name: "s"},
			{Kind: Count},
			{Kind: Avg, Expr: Col("y")},
		},
		Pred: NewAnd(
			&Clause{Col: "x", Op: OpGt, Num: 1},
			&Clause{Col: "cat", Op: OpIn, Strs: []string{"a", "b"}},
		),
	}
	s := q.String()
	for _, want := range []string{"SELECT", "SUM(x) AS s", "COUNT(*)", "AVG(y)", "WHERE", "GROUP BY cat", "IN (a, b)"} {
		if !strings.Contains(s, want) {
			t.Errorf("query string %q missing %q", s, want)
		}
	}
}

func TestQueryColumns(t *testing.T) {
	q := &Query{
		GroupBy: []string{"cat"},
		Aggs: []Aggregate{
			{Kind: Sum, Expr: Col("x"), Filter: &Clause{Col: "d", Op: OpGt, Num: 1}},
		},
		Pred: &Clause{Col: "y", Op: OpGt, Num: 1},
	}
	cols := q.Columns()
	want := map[string]bool{"x": true, "d": true, "y": true, "cat": true}
	if len(cols) != len(want) {
		t.Fatalf("Columns() = %v, want 4 distinct", cols)
	}
	for _, c := range cols {
		if !want[c] {
			t.Errorf("unexpected column %q", c)
		}
	}
}

func TestGeneratorProducesValidQueries(t *testing.T) {
	tbl := fixture(t, 25)
	wl := Workload{
		GroupableCols: []string{"cat", "d"},
		PredicateCols: []string{"x", "y", "cat", "d"},
		AggCols:       []string{"x", "y"},
	}
	gen, err := NewGenerator(wl, tbl, 7)
	if err != nil {
		t.Fatal(err)
	}
	qs := gen.SampleN(50)
	if len(qs) != 50 {
		t.Fatalf("SampleN(50) produced %d queries", len(qs))
	}
	seen := map[string]bool{}
	for _, q := range qs {
		if seen[q.String()] {
			t.Errorf("duplicate query: %s", q)
		}
		seen[q.String()] = true
		if _, err := Compile(q, tbl); err != nil {
			t.Errorf("generated query does not compile: %s: %v", q, err)
		}
		if len(q.Aggs) < 1 || len(q.Aggs) > 3 {
			t.Errorf("query has %d aggregates, want 1..3", len(q.Aggs))
		}
		if len(Clauses(q.Pred)) > wl.MaxPredClauses+5 {
			t.Errorf("query has too many clauses: %s", q)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	tbl := fixture(t, 25)
	if _, err := NewGenerator(Workload{AggCols: []string{"cat"}}, tbl, 1); err == nil {
		t.Error("categorical aggregate column should be rejected")
	}
	if _, err := NewGenerator(Workload{AggCols: []string{"x"}, GroupableCols: []string{"zzz"}}, tbl, 1); err == nil {
		t.Error("unknown groupable column should be rejected")
	}
	if _, err := NewGenerator(Workload{}, tbl, 1); err == nil {
		t.Error("empty aggregate columns should be rejected")
	}
}

// Property: for any weights, the weighted combination of per-partition
// counts equals the weighted sum of partition row counts (linearity, §2.4).
func TestWeightedCountProperty(t *testing.T) {
	tbl := fixture(t, 10)
	q := &Query{Aggs: []Aggregate{{Kind: Count}}}
	c := mustCompile(t, q, tbl)
	_, perPart := c.GroundTruth(tbl)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ans := c.NewAnswer()
		var want float64
		for i := range perPart {
			w := rng.Float64() * 5
			ans.AddWeighted(perPart[i], w)
			want += w * 10 // 10 rows per partition
		}
		for _, v := range c.FinalValues(ans) {
			if math.Abs(v[0]-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestExprString(t *testing.T) {
	e := Col("a").Add(Col("b")).Sub(Col("c"))
	if got := e.String(); got != "a + b - c" {
		t.Errorf("expr string = %q, want %q", got, "a + b - c")
	}
	if got := (LinearExpr{Const: 3}).String(); got != "3" {
		t.Errorf("const expr = %q", got)
	}
}

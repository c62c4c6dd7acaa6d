package diagnose

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ps3/internal/query"
	"ps3/internal/stats"
	"ps3/internal/table"
)

// buildTable creates a table with a sorted numeric column "v" (informative
// layout), an iid column "noise", a low-cardinality categorical "g" and a
// high-cardinality categorical "id".
func buildTable(t *testing.T, parts, rowsPer int) *table.Table {
	t.Helper()
	schema := table.MustSchema(
		table.Column{Name: "v", Kind: table.Numeric, Positive: true},
		table.Column{Name: "noise", Kind: table.Numeric},
		table.Column{Name: "g", Kind: table.Categorical},
		table.Column{Name: "id", Kind: table.Categorical},
	)
	b, err := table.NewBuilder(schema, rowsPer)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	total := parts * rowsPer
	for i := 0; i < total; i++ {
		part := i / rowsPer
		v := float64(part*100) + rng.Float64()
		if err := b.Append(
			[]float64{v, rng.NormFloat64(), 0, 0},
			[]string{"", "", fmt.Sprint("g", i%4), fmt.Sprint("row-", i)},
		); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

func buildStats(t *testing.T, tbl *table.Table) *stats.TableStats {
	t.Helper()
	ts, err := stats.Build(tbl, stats.Options{GroupableCols: []string{"g", "id"}})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func workload() query.Workload {
	return query.Workload{
		GroupableCols: []string{"g"},
		PredicateCols: []string{"v", "g"},
		AggCols:       []string{"v"},
	}
}

func findCode(fs []Finding, code Code) *Finding {
	for i := range fs {
		if fs[i].Code == code {
			return &fs[i]
		}
	}
	return nil
}

func TestCleanQueryHasNoFindings(t *testing.T) {
	tbl := buildTable(t, 10, 2000)
	ts := buildStats(t, tbl)
	q := &query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("v")}},
		Pred:    &query.Clause{Col: "v", Op: query.OpGt, Num: 100},
		GroupBy: []string{"g"},
	}
	if fs := Query(q, ts, workload(), Options{}); len(fs) != 0 {
		t.Fatalf("clean query produced findings: %v", fs)
	}
}

func TestHighCardinalityGroupByFlagged(t *testing.T) {
	tbl := buildTable(t, 10, 2000)
	ts := buildStats(t, tbl)
	q := &query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Count}},
		GroupBy: []string{"id"}, // 20k distinct values
	}
	f := findCode(Query(q, ts, query.Workload{}, Options{}), CodeHighCardinalityGroupBy)
	if f == nil {
		t.Fatal("high-cardinality group-by not flagged")
	}
	if f.Severity != Critical {
		t.Fatalf("severity = %v, want critical", f.Severity)
	}
}

func TestComplexPredicateFlagged(t *testing.T) {
	tbl := buildTable(t, 6, 500)
	ts := buildStats(t, tbl)
	var clauses []query.Pred
	for i := 0; i < 12; i++ {
		clauses = append(clauses, &query.Clause{Col: "v", Op: query.OpGt, Num: float64(i)})
	}
	q := &query.Query{
		Aggs: []query.Aggregate{{Kind: query.Count}},
		Pred: query.NewAnd(clauses...),
	}
	if findCode(Query(q, ts, workload(), Options{}), CodeComplexPredicate) == nil {
		t.Fatal("12-clause predicate not flagged")
	}
}

func TestHighlySelectivePredicateFlagged(t *testing.T) {
	tbl := buildTable(t, 6, 2000)
	ts := buildStats(t, tbl)
	// v spans [0, 600); a range of width 0.001 matches almost nothing.
	q := &query.Query{
		Aggs: []query.Aggregate{{Kind: query.Count}},
		Pred: query.NewAnd(
			&query.Clause{Col: "v", Op: query.OpGt, Num: 100.000},
			&query.Clause{Col: "v", Op: query.OpLt, Num: 100.001},
		),
	}
	if findCode(Query(q, ts, workload(), Options{}), CodeHighlySelective) == nil {
		t.Fatal("highly selective predicate not flagged")
	}
}

func TestNoMatchingPartitionsInfo(t *testing.T) {
	tbl := buildTable(t, 6, 500)
	ts := buildStats(t, tbl)
	q := &query.Query{
		Aggs: []query.Aggregate{{Kind: query.Count}},
		Pred: &query.Clause{Col: "v", Op: query.OpGt, Num: 1e12},
	}
	f := findCode(Query(q, ts, workload(), Options{}), CodeNoMatchingPartitions)
	if f == nil {
		t.Fatal("impossible predicate not flagged")
	}
	if f.Severity != Info {
		t.Fatalf("severity = %v, want info", f.Severity)
	}
}

func TestUntrainedColumnsFlagged(t *testing.T) {
	tbl := buildTable(t, 6, 500)
	ts := buildStats(t, tbl)
	q := &query.Query{
		Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("noise")}}, // not in workload
	}
	f := findCode(Query(q, ts, workload(), Options{}), CodeUntrainedColumns)
	if f == nil {
		t.Fatal("untrained column not flagged")
	}
	if !strings.Contains(f.Message, "noise") {
		t.Fatalf("message does not name the column: %s", f.Message)
	}
}

func TestUntrainedColumnsSkippedWithEmptyWorkload(t *testing.T) {
	tbl := buildTable(t, 6, 500)
	ts := buildStats(t, tbl)
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("noise")}}}
	if f := findCode(Query(q, ts, query.Workload{}, Options{}), CodeUntrainedColumns); f != nil {
		t.Fatalf("empty workload should not flag columns: %v", f)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Severity: Warn, Code: CodeComplexPredicate, Message: "m"}
	s := f.String()
	if !strings.Contains(s, "warn") || !strings.Contains(s, string(CodeComplexPredicate)) {
		t.Fatalf("rendered finding: %q", s)
	}
	if Info.String() != "info" || Critical.String() != "critical" {
		t.Fatal("severity strings")
	}
}

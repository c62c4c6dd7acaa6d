package sql

import (
	"math/rand"
	"strings"
	"testing"

	"ps3/internal/query"
	"ps3/internal/table"
)

func parseOK(t *testing.T, src string) (*query.Query, string) {
	t.Helper()
	q, tbl, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q, tbl
}

func TestParseMinimal(t *testing.T) {
	q, tbl := parseOK(t, "SELECT COUNT(*) FROM logs")
	if tbl != "logs" {
		t.Fatalf("table = %q", tbl)
	}
	if len(q.Aggs) != 1 || q.Aggs[0].Kind != query.Count {
		t.Fatalf("aggs = %+v", q.Aggs)
	}
	if q.Pred != nil || len(q.GroupBy) != 0 {
		t.Fatalf("unexpected predicate/group-by: %v", q)
	}
}

func TestParseFullQuery(t *testing.T) {
	q, _ := parseOK(t, `
		SELECT region, SUM(price) AS revenue, AVG(price + tax), COUNT(*)
		FROM sales
		WHERE price > 10 AND region IN ('east', 'west') OR NOT qty <= 5
		GROUP BY region`)
	if len(q.Aggs) != 3 {
		t.Fatalf("%d aggregates, want 3", len(q.Aggs))
	}
	if q.Aggs[0].Name != "revenue" {
		t.Fatalf("alias = %q", q.Aggs[0].Name)
	}
	if q.Aggs[1].Kind != query.Avg {
		t.Fatalf("agg1 kind = %v", q.Aggs[1].Kind)
	}
	if got := len(q.GroupBy); got != 1 || q.GroupBy[0] != "region" {
		t.Fatalf("group by = %v", q.GroupBy)
	}
	// Predicate tree: OR(AND(price>10, region IN ...), NOT(qty<=5)).
	or, ok := q.Pred.(*query.Or)
	if !ok {
		t.Fatalf("top-level predicate is %T, want Or", q.Pred)
	}
	if len(or.Children) != 2 {
		t.Fatalf("OR has %d children", len(or.Children))
	}
	if _, ok := or.Children[1].(*query.Not); !ok {
		t.Fatalf("second OR child is %T, want Not", or.Children[1])
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, _ := parseOK(t, "select sum(x) from t where x >= 1 group by g")
	_ = q
	q2, _ := parseOK(t, "SELECT SUM(x) FROM t WHERE x >= 1 GROUP BY g")
	if q.String() != q2.String() {
		t.Fatalf("case-sensitivity leak: %q vs %q", q, q2)
	}
}

func TestParsePrecedenceAndParens(t *testing.T) {
	// AND binds tighter than OR.
	q, _ := parseOK(t, "SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := q.Pred.(*query.Or)
	if !ok || len(or.Children) != 2 {
		t.Fatalf("precedence broken: %v", q.Pred)
	}
	if _, ok := or.Children[1].(*query.And); !ok {
		t.Fatalf("b=2 AND c=3 not grouped: %T", or.Children[1])
	}
	// Parens override.
	q2, _ := parseOK(t, "SELECT COUNT(*) FROM t WHERE (a = 1 OR b = 2) AND c = 3")
	and, ok := q2.Pred.(*query.And)
	if !ok || len(and.Children) != 2 {
		t.Fatalf("parens broken: %v", q2.Pred)
	}
	if _, ok := and.Children[0].(*query.Or); !ok {
		t.Fatalf("(a OR b) not grouped: %T", and.Children[0])
	}
}

func TestParseBetween(t *testing.T) {
	q, _ := parseOK(t, "SELECT COUNT(*) FROM t WHERE x BETWEEN 1 AND 10")
	and, ok := q.Pred.(*query.And)
	if !ok || len(and.Children) != 2 {
		t.Fatalf("BETWEEN desugar: %v", q.Pred)
	}
	lo := and.Children[0].(*query.Clause)
	hi := and.Children[1].(*query.Clause)
	if lo.Op != query.OpGe || lo.Num != 1 || hi.Op != query.OpLe || hi.Num != 10 {
		t.Fatalf("BETWEEN bounds: %v / %v", lo, hi)
	}
}

func TestParseNotIn(t *testing.T) {
	q, _ := parseOK(t, "SELECT COUNT(*) FROM t WHERE c NOT IN ('a', 'b')")
	not, ok := q.Pred.(*query.Not)
	if !ok {
		t.Fatalf("NOT IN: %T", q.Pred)
	}
	in := not.Child.(*query.Clause)
	if in.Op != query.OpIn || len(in.Strs) != 2 {
		t.Fatalf("IN clause: %v", in)
	}
}

func TestParseNumericIn(t *testing.T) {
	q, _ := parseOK(t, "SELECT COUNT(*) FROM t WHERE x IN (1, 2, 3)")
	or, ok := q.Pred.(*query.Or)
	if !ok || len(or.Children) != 3 {
		t.Fatalf("numeric IN should desugar to OR of =: %v", q.Pred)
	}
	for i, c := range or.Children {
		cl := c.(*query.Clause)
		if cl.Op != query.OpEq || cl.Num != float64(i+1) {
			t.Fatalf("child %d: %v", i, cl)
		}
	}
}

func TestParseStringEqualityAndInequality(t *testing.T) {
	q, _ := parseOK(t, "SELECT COUNT(*) FROM t WHERE c = 'x'")
	cl := q.Pred.(*query.Clause)
	if cl.Op != query.OpEq || cl.Strs[0] != "x" {
		t.Fatalf("string eq: %v", cl)
	}
	q2, _ := parseOK(t, "SELECT COUNT(*) FROM t WHERE c != 'x'")
	if _, ok := q2.Pred.(*query.Not); !ok {
		t.Fatalf("string != should desugar to NOT(=): %T", q2.Pred)
	}
	q3, _ := parseOK(t, "SELECT COUNT(*) FROM t WHERE c <> 'x'")
	if q2.Pred.String() != q3.Pred.String() {
		t.Fatal("<> and != differ")
	}
}

func TestParseQuotedStringEscapes(t *testing.T) {
	q, _ := parseOK(t, "SELECT COUNT(*) FROM t WHERE c = 'it''s'")
	cl := q.Pred.(*query.Clause)
	if cl.Strs[0] != "it's" {
		t.Fatalf("escaped quote: %q", cl.Strs[0])
	}
}

func TestParseFilterClause(t *testing.T) {
	q, _ := parseOK(t, "SELECT SUM(price) FILTER (WHERE promo = 'yes') AS promo_rev FROM t")
	if q.Aggs[0].Filter == nil {
		t.Fatal("FILTER predicate missing")
	}
	if q.Aggs[0].Name != "promo_rev" {
		t.Fatalf("alias = %q", q.Aggs[0].Name)
	}
}

func TestParseLinearExpressions(t *testing.T) {
	q, _ := parseOK(t, "SELECT SUM(a + b - c), SUM(x - 1), SUM(-y + 2) FROM t")
	if len(q.Aggs) != 3 {
		t.Fatal("aggregates missing")
	}
	cols0 := q.Aggs[0].Expr.Columns()
	if len(cols0) != 3 {
		t.Fatalf("expr columns: %v", cols0)
	}
	if q.Aggs[1].Expr.Const != -1 {
		t.Fatalf("const = %v, want -1", q.Aggs[1].Expr.Const)
	}
	if q.Aggs[2].Expr.Const != 2 {
		t.Fatalf("const = %v, want 2", q.Aggs[2].Expr.Const)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	q, _ := parseOK(t, "SELECT COUNT(*) FROM t WHERE x > -5")
	cl := q.Pred.(*query.Clause)
	if cl.Num != -5 {
		t.Fatalf("negative literal: %v", cl.Num)
	}
}

func TestParseGroupByMultiple(t *testing.T) {
	q, _ := parseOK(t, "SELECT a, b, COUNT(*) FROM t GROUP BY a, b")
	if len(q.GroupBy) != 2 {
		t.Fatalf("group by: %v", q.GroupBy)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                         // empty
		"SELECT FROM t",                            // no select list
		"SELECT COUNT(*)",                          // no FROM
		"SELECT x FROM t",                          // bare column not in GROUP BY
		"SELECT x, COUNT(*) FROM t",                // ditto with aggregate present
		"SELECT region FROM t GROUP BY region",     // no aggregate at all
		"SELECT MAX(x) FROM t",                     // MAX out of scope (parsed as function call → error)
		"SELECT COUNT(*) FROM t WHERE",             // dangling WHERE
		"SELECT COUNT(*) FROM t WHERE x >",         // dangling comparison
		"SELECT COUNT(*) FROM t WHERE x > 'a'",     // ordered comparison on string
		"SELECT COUNT(*) FROM t WHERE c NOT = 1",   // NOT without IN/BETWEEN
		"SELECT COUNT(*) FROM t WHERE x IN ()",     // empty IN list
		"SELECT COUNT(*) FROM t WHERE x BETWEEN 1", // dangling BETWEEN
		"SELECT SUM() FROM t",                      // empty aggregate expression
		"SELECT COUNT(*) FROM t trailing",          // trailing tokens
		"SELECT COUNT(*) FROM t WHERE c = 'unterm", // unterminated string
		"SELECT COUNT(*) FROM t WHERE a ! b",       // bad operator
	}
	for _, src := range cases {
		if _, _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParsedQueriesCompileAndRun(t *testing.T) {
	// End-to-end: parse → compile → evaluate against a real table.
	schema := table.MustSchema(
		table.Column{Name: "price", Kind: table.Numeric, Positive: true},
		table.Column{Name: "qty", Kind: table.Numeric},
		table.Column{Name: "region", Kind: table.Categorical},
	)
	b, err := table.NewBuilder(schema, 50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	regions := []string{"east", "west"}
	for i := 0; i < 500; i++ {
		if err := b.Append(
			[]float64{rng.Float64() * 100, float64(rng.Intn(10)), 0},
			[]string{"", "", regions[i%2]},
		); err != nil {
			t.Fatal(err)
		}
	}
	tbl := b.Finish()

	queries := []string{
		"SELECT COUNT(*) FROM t",
		"SELECT SUM(price) FROM t WHERE price > 50",
		"SELECT region, AVG(price) FROM t GROUP BY region",
		"SELECT region, SUM(price + qty) FROM t WHERE region = 'east' OR qty >= 5 GROUP BY region",
		"SELECT SUM(price) FILTER (WHERE qty > 3) FROM t WHERE price BETWEEN 10 AND 90",
		"SELECT COUNT(*) FROM t WHERE region NOT IN ('north')",
		"SELECT COUNT(*) FROM t WHERE NOT (price < 10 AND qty = 0)",
	}
	for _, src := range queries {
		q, _, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		c, err := query.Compile(q, tbl)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		total, _ := c.GroundTruth(tbl)
		if len(total.Groups) == 0 && !strings.Contains(src, "north") {
			// Only the NOT IN ('north') query could plausibly be empty (it
			// isn't — all rows pass), so any empty answer is a bug.
			t.Fatalf("%q produced no groups", src)
		}
	}
}

func TestParsedPredicateMatchesHandBuilt(t *testing.T) {
	parsed, _ := parseOK(t, "SELECT COUNT(*) FROM t WHERE a >= 3 AND b = 'x'")
	hand := &query.Query{
		Aggs: []query.Aggregate{{Kind: query.Count}},
		Pred: query.NewAnd(
			&query.Clause{Col: "a", Op: query.OpGe, Num: 3},
			&query.Clause{Col: "b", Op: query.OpEq, Strs: []string{"x"}},
		),
	}
	if parsed.String() != hand.String() {
		t.Fatalf("parsed %q != hand-built %q", parsed, hand)
	}
}

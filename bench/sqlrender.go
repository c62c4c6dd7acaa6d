package main

import (
	"fmt"
	"strconv"
	"strings"

	"ps3/internal/query"
	"ps3/internal/sql"
)

// renderSQL renders a generated query as SQL text sql.Parse accepts.
// query.Query.String() is the canonical cache key, not a wire format: it
// double-quotes string literals and leaves IN lists bare, both of which the
// lexer rejects. The renderer emits single-quoted literals and otherwise
// mirrors String() token for token, so parsing the result reproduces a
// query with the identical canonical text — and therefore the identical
// per-query pick RNG stream (checkRoundTrip enforces it).
func renderSQL(q *query.Query) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, g := range q.GroupBy {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(g)
	}
	for i, a := range q.Aggs {
		if i > 0 || len(q.GroupBy) > 0 {
			sb.WriteString(", ")
		}
		switch a.Kind {
		case query.Count:
			sb.WriteString("COUNT(*)")
		default:
			// LinearExpr.String() is already parseable for the ±1
			// coefficients the workload generator draws.
			fmt.Fprintf(&sb, "%s(%s)", a.Kind, a.Expr)
		}
		if a.Filter != nil {
			sb.WriteString(" FILTER (WHERE ")
			renderPred(&sb, a.Filter)
			sb.WriteString(")")
		}
		if a.Name != "" {
			sb.WriteString(" AS " + a.Name)
		}
	}
	sb.WriteString(" FROM t")
	if q.Pred != nil {
		sb.WriteString(" WHERE ")
		renderPred(&sb, q.Pred)
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(q.GroupBy, ", "))
	}
	return sb.String()
}

func renderPred(sb *strings.Builder, p query.Pred) {
	switch n := p.(type) {
	case *query.And:
		renderJoined(sb, n.Children, " AND ")
	case *query.Or:
		renderJoined(sb, n.Children, " OR ")
	case *query.Not:
		sb.WriteString("NOT ")
		renderPred(sb, n.Child)
	case *query.Clause:
		switch {
		case n.Op == query.OpIn:
			sb.WriteString(n.Col + " IN (")
			for i, s := range n.Strs {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(quote(s))
			}
			sb.WriteString(")")
		case len(n.Strs) == 1:
			fmt.Fprintf(sb, "%s %s %s", n.Col, n.Op, quote(n.Strs[0]))
		default:
			fmt.Fprintf(sb, "%s %s %s", n.Col, n.Op, strconv.FormatFloat(n.Num, 'g', -1, 64))
		}
	}
}

func renderJoined(sb *strings.Builder, children []query.Pred, sep string) {
	sb.WriteString("(")
	for i, c := range children {
		if i > 0 {
			sb.WriteString(sep)
		}
		renderPred(sb, c)
	}
	sb.WriteString(")")
}

// quote renders a SQL string literal; an embedded quote is doubled.
func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// checkRoundTrip verifies that the rendered text parses back to a query
// with the same canonical form as the generated one.
func checkRoundTrip(q *query.Query, text string) error {
	back, _, err := sql.Parse(text)
	if err != nil {
		return fmt.Errorf("rendered SQL does not parse: %w\n  sql: %s", err, text)
	}
	if got, want := back.String(), q.String(); got != want {
		return fmt.Errorf("rendered SQL changes the query:\n  generated: %s\n  reparsed:  %s", want, got)
	}
	return nil
}

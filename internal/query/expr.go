// Package query defines the query model PS3 supports (paper §2.2) and the
// execution engine that evaluates queries on partitions:
//
//   - Aggregates: SUM and COUNT(*) (hence AVG) over linear (+,-) projections
//     of numeric columns, plus CASE-conditioned aggregates expressed as an
//     aggregate over a predicate filter.
//   - Predicates: conjunctions, disjunctions and negations of single-column
//     clauses (=, !=, <, <=, >, >= on numeric/date columns; =, !=, IN on
//     categorical columns).
//   - GROUP BY on one or more stored columns of moderate distinctness.
//
// Per-partition answers are combined with weights per §2.4:
// Ã_g = Σ_j w_j · A_{g,p_j}.
package query

import (
	"fmt"
	"strings"

	"ps3/internal/table"
)

// Term is one coefficient*column term of a linear expression.
type Term struct {
	Col  string
	Coef float64
}

// LinearExpr is a linear projection over numeric columns:
// Const + Σ Coef_i · col_i. It covers the paper's "+,-" arithmetic on one or
// more columns (coefficients ±1 in generated workloads; arbitrary here).
type LinearExpr struct {
	Terms []Term
	Const float64
}

// Col returns an expression selecting a single column.
func Col(name string) LinearExpr { return LinearExpr{Terms: []Term{{Col: name, Coef: 1}}} }

// Add returns e + other.
func (e LinearExpr) Add(other LinearExpr) LinearExpr {
	out := LinearExpr{Const: e.Const + other.Const}
	out.Terms = append(out.Terms, e.Terms...)
	out.Terms = append(out.Terms, other.Terms...)
	return out
}

// Sub returns e - other.
func (e LinearExpr) Sub(other LinearExpr) LinearExpr {
	out := LinearExpr{Const: e.Const - other.Const}
	out.Terms = append(out.Terms, e.Terms...)
	for _, t := range other.Terms {
		out.Terms = append(out.Terms, Term{Col: t.Col, Coef: -t.Coef})
	}
	return out
}

// Columns returns the distinct column names used by the expression.
func (e LinearExpr) Columns() []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range e.Terms {
		if !seen[t.Col] {
			seen[t.Col] = true
			out = append(out, t.Col)
		}
	}
	return out
}

// String renders the expression in SQL-ish form.
func (e LinearExpr) String() string {
	if len(e.Terms) == 0 {
		return fmt.Sprintf("%g", e.Const)
	}
	var sb strings.Builder
	for i, t := range e.Terms {
		switch {
		case i == 0 && t.Coef == 1:
			sb.WriteString(t.Col)
		case i == 0:
			fmt.Fprintf(&sb, "%g*%s", t.Coef, t.Col)
		case t.Coef == 1:
			fmt.Fprintf(&sb, " + %s", t.Col)
		case t.Coef == -1:
			fmt.Fprintf(&sb, " - %s", t.Col)
		case t.Coef < 0:
			fmt.Fprintf(&sb, " - %g*%s", -t.Coef, t.Col)
		default:
			fmt.Fprintf(&sb, " + %g*%s", t.Coef, t.Col)
		}
	}
	if e.Const != 0 {
		fmt.Fprintf(&sb, " + %g", e.Const)
	}
	return sb.String()
}

// cterm is one compiled expression term: resolved column index + coefficient.
type cterm struct {
	col  int
	coef float64
}

// exprKernel is a LinearExpr resolved against a schema, evaluable either
// row-at-a-time (the reference path) or vectorized into a scratch buffer.
type exprKernel struct {
	terms []cterm
	konst float64
}

// compile resolves column names to indexes, validating that every term
// references a numeric column.
func (e LinearExpr) compile(s *table.Schema) (*exprKernel, error) {
	k := &exprKernel{terms: make([]cterm, 0, len(e.Terms)), konst: e.Const}
	for _, t := range e.Terms {
		ci := s.ColIndex(t.Col)
		if ci < 0 {
			return nil, fmt.Errorf("query: unknown column %q in expression", t.Col)
		}
		if !s.Col(ci).IsNumeric() {
			return nil, fmt.Errorf("query: column %q is categorical; cannot aggregate", t.Col)
		}
		k.terms = append(k.terms, cterm{ci, t.Coef})
	}
	return k, nil
}

// evalRow evaluates the expression on one row.
func (k *exprKernel) evalRow(p *table.Partition, r int) float64 {
	v := k.konst
	for _, t := range k.terms {
		v += t.coef * p.NumCol(t.col)[r]
	}
	return v
}

// evalInto fills dst[i] with the expression value at row sel[i], one tight
// column loop per term. Each dst entry is built as constant first, then
// terms in declaration order — the same addition sequence as evalRow — so
// per-row results are bit-identical to the row-at-a-time path.
//
// A term whose column this evaluation is the first to read (scratch.touch) is
// evaluated on the encoded column, over the selected rows only: a
// frame-of-reference value as Min + float64(At(r)), the expression
// DecodeNum stores, and a raw numeric one from the block's bytes — the same
// float64 in either case, so which arm ran never shows in the result.
func (k *exprKernel) evalInto(p *table.Partition, sel []int32, dst []float64, sc *scratch) {
	for i := range dst {
		dst[i] = k.konst
	}
	for _, t := range k.terms {
		coef := t.coef
		if e := sc.touch(p, t.col); e != nil {
			if e.Kind == table.EncFoR {
				min := e.Min
				for i, r := range sel {
					dst[i] += coef * (min + float64(e.At(int(r))))
				}
			} else {
				for i, r := range sel {
					dst[i] += coef * e.Float(int(r))
				}
			}
			continue
		}
		col := p.NumCol(t.col)
		for i, r := range sel {
			dst[i] += coef * col[r]
		}
	}
}

// AggKind enumerates supported aggregate functions.
type AggKind uint8

const (
	// Sum is SUM(expr).
	Sum AggKind = iota
	// Count is COUNT(*).
	Count
	// Avg is AVG(expr), computed as SUM(expr)/COUNT(*) so that weighted
	// partition combination stays linear.
	Avg
)

func (k AggKind) String() string {
	switch k {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// Aggregate is one aggregate in the SELECT list. Filter, when non-nil,
// restricts the aggregate to rows matching it — the rewrite of CASE
// conditions as "an aggregate over a predicate" (§2.2).
type Aggregate struct {
	Kind   AggKind
	Expr   LinearExpr // ignored for Count
	Filter Pred
	Name   string
}

// components returns how many linear accumulator slots the aggregate needs:
// SUM and COUNT need one, AVG needs two (sum and count).
func (a Aggregate) components() int {
	if a.Kind == Avg {
		return 2
	}
	return 1
}

// String renders the aggregate in SQL-ish form.
func (a Aggregate) String() string {
	body := ""
	switch a.Kind {
	case Count:
		body = "COUNT(*)"
	case Sum:
		body = fmt.Sprintf("SUM(%s)", a.Expr)
	case Avg:
		body = fmt.Sprintf("AVG(%s)", a.Expr)
	}
	if a.Filter != nil {
		body += fmt.Sprintf(" FILTER (WHERE %s)", a.Filter)
	}
	if a.Name != "" {
		body += " AS " + a.Name
	}
	return body
}

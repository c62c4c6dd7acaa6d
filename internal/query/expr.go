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
// row-at-a-time (the reference path) or vectorized: added straight into the
// accumulators (addInto), or, for the shapes addInto does not fuse, into a
// scratch buffer first (evalInto).
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

// sink is where an aggregate's per-row values go: accumulator at of the row's
// group in accs, a flat [group][stride] slab. idx maps the i-th selected row
// to its group slot; nil means one group, slot 0. count (AVG) also counts
// each row, in accumulator at+1.
type sink struct {
	accs   []float64
	idx    []int32
	stride int
	at     int
	count  bool
}

// store finishes an ungrouped aggregate: sum is accumulator at after n rows
// were added into it.
func (d *sink) store(sum float64, n int) {
	d.accs[d.at] = sum
	if d.count {
		// One integral add equals n repeated ++s exactly (counts stay far
		// below 2^53).
		d.accs[d.at+1] += float64(n)
	}
}

// addInto adds the expression's value at every row of rows into the row's
// accumulator in d. The common shapes are fused: one loop over the selection
// forms each row's value in a register and adds it straight where it belongs
// — an ungrouped sum into a local that is stored once. The fused shapes are
// one term, whatever form this evaluation reads its column in (the decoded
// slice or, on the column's first touch, a frame-of-reference column as
// Min + float64(At(r)), the expression DecodeNum stores, or a raw one as
// Float(r): the same float64 either way), and two terms whose columns are
// both decoded. Every other shape — no term, three terms or more, or two
// where a column is read encoded on its first touch — is evaluated into the
// scratch buffer by evalInto and added from there (addBuffered), and only
// those: a shape takes exactly one of the two routes.
//
// Each row's value is built as the reference's evalRow builds it, with the same operations
// in the same order — konst + c1*x1, then + c2*x2 — and each accumulator
// receives one addition per row in row order, as in the reference: the
// result is bit-identical. Every column read goes through scratch.touch.
func (k *exprKernel) addInto(p *table.Partition, rows []int32, d *sink, sc *scratch) {
	switch len(k.terms) {
	case 1:
		t := k.terms[0]
		switch e := sc.touch(p, t.col); {
		case e == nil:
			d.addCol(k.konst, t.coef, p.NumCol(t.col), rows)
		case e.Kind == table.EncFoR:
			d.addFoR(k.konst, t.coef, e, rows)
		default:
			d.addRaw(k.konst, t.coef, e, rows)
		}
		return
	case 2:
		t1, t2 := k.terms[0], k.terms[1]
		if sc.touch(p, t1.col) == nil && sc.touch(p, t2.col) == nil {
			d.addCols2(k.konst, t1.coef, p.NumCol(t1.col), t2.coef, p.NumCol(t2.col), rows)
			return
		}
	}
	buf := sc.exprBuf(len(rows))
	k.evalInto(p, rows, buf, sc)
	d.addBuffered(buf)
}

// addCol is addInto for one term over a decoded column.
func (d *sink) addCol(konst, coef float64, col []float64, rows []int32) {
	accs, at := d.accs, d.at
	if d.idx == nil {
		sum := accs[at]
		for _, r := range rows {
			sum += konst + coef*col[r]
		}
		d.store(sum, len(rows))
		return
	}
	idx, stride, count := d.idx[:len(rows)], d.stride, d.count
	for i, r := range rows {
		j := int(idx[i])*stride + at
		accs[j] += konst + coef*col[r]
		if count {
			accs[j+1]++
		}
	}
}

// addFoR is addInto for one term over a frame-of-reference column on its
// first touch.
func (d *sink) addFoR(konst, coef float64, e *table.EncodedCol, rows []int32) {
	accs, at, min := d.accs, d.at, e.Min
	if d.idx == nil {
		sum := accs[at]
		for _, r := range rows {
			sum += konst + coef*(min+float64(e.At(int(r))))
		}
		d.store(sum, len(rows))
		return
	}
	idx, stride, count := d.idx[:len(rows)], d.stride, d.count
	for i, r := range rows {
		j := int(idx[i])*stride + at
		accs[j] += konst + coef*(min+float64(e.At(int(r))))
		if count {
			accs[j+1]++
		}
	}
}

// addRaw is addInto for one term over a raw numeric column on its first
// touch.
func (d *sink) addRaw(konst, coef float64, e *table.EncodedCol, rows []int32) {
	accs, at := d.accs, d.at
	if d.idx == nil {
		sum := accs[at]
		for _, r := range rows {
			sum += konst + coef*e.Float(int(r))
		}
		d.store(sum, len(rows))
		return
	}
	idx, stride, count := d.idx[:len(rows)], d.stride, d.count
	for i, r := range rows {
		j := int(idx[i])*stride + at
		accs[j] += konst + coef*e.Float(int(r))
		if count {
			accs[j+1]++
		}
	}
}

// addCols2 is addInto for two terms over decoded columns.
func (d *sink) addCols2(konst, c1 float64, x1 []float64, c2 float64, x2 []float64, rows []int32) {
	accs, at := d.accs, d.at
	if d.idx == nil {
		sum := accs[at]
		for _, r := range rows {
			sum += konst + c1*x1[r] + c2*x2[r]
		}
		d.store(sum, len(rows))
		return
	}
	idx, stride, count := d.idx[:len(rows)], d.stride, d.count
	for i, r := range rows {
		j := int(idx[i])*stride + at
		accs[j] += konst + c1*x1[r] + c2*x2[r]
		if count {
			accs[j+1]++
		}
	}
}

// addBuffered adds the values evalInto left in buf, one per selected row:
// the one general route of addInto.
func (d *sink) addBuffered(buf []float64) {
	accs, at := d.accs, d.at
	if d.idx == nil {
		sum := accs[at]
		for _, v := range buf {
			sum += v
		}
		d.store(sum, len(buf))
		return
	}
	idx, stride, count := d.idx[:len(buf)], d.stride, d.count
	for i, v := range buf {
		j := int(idx[i])*stride + at
		accs[j] += v
		if count {
			accs[j+1]++
		}
	}
}

// evalInto fills dst[i] with the expression value at row sel[i], one tight
// column loop per term: the route of the shapes addInto does not fuse — no
// term, three terms or more, or two terms one of whose columns this
// evaluation reads encoded on its first touch. Each dst entry is built as constant
// first, then terms in declaration order — the same addition sequence as
// evalRow — so per-row results are bit-identical to the row-at-a-time path.
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

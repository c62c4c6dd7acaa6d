package stats

import (
	"math"
	"sort"

	"ps3/internal/query"
)

// This file is the compiled form of the selectivity estimator: the
// query-static half of featurization. The reference estimator, selEstimator
// (in the package tests), re-walks the predicate tree for every partition,
// resolving column names, building per-conjunction range maps and looking
// categorical values up in the table dictionary each time — all work that
// depends only on the query. A selProgram does that analysis once per query
// at compile time and keeps only the partition-varying work (histogram,
// dictionary-frequency and heavy-hitter lookups) in the per-partition eval,
// which runs with zero allocations.
//
// Determinism contract: eval mirrors selEstimator.evalNode operation for
// operation — same traversal order, same fold order (columns sorted by
// index, then remaining children in predicate order), same clamping — so the
// four selectivity features are bit-identical to the reference estimator.
// The equivalence is enforced by TestSelProgramMatchesReference.

// selKind discriminates compiled predicate nodes.
type selKind uint8

const (
	selKConst1    selKind = iota // unknown node type: selectivity 1
	selKClause                   // single clause
	selKNotClause                // NOT over a single clause
	selKNot                      // NOT over a general subtree
	selKAnd
	selKOr
)

// selProgram is a predicate compiled against one statistics store.
type selProgram struct {
	// always is set for nil predicates: every partition scores (1,1,1,1).
	always bool
	root   selCompiled
}

// selCompiled is one compiled predicate node.
type selCompiled struct {
	kind     selKind
	clause   selClauseC    // selKClause / selKNotClause
	cols     []selColRange // selKAnd: merged numeric per-column ranges
	children []selCompiled // selKAnd rest / selKOr / selKNot child
}

// selClauseC is a clause with its column resolved and categorical values
// translated to dictionary codes.
type selClauseC struct {
	ci      int // -1: unknown column, selectivity 1
	numeric bool
	op      query.Op
	num     float64
	// codes holds the dictionary code of each categorical value, or -1 for
	// values that exist nowhere in the table (frequency 0).
	codes []int64
}

// selColRange is the merged numeric constraint of one column inside a
// conjunction: bounds, equality points and inequality points, all
// query-static.
type selColRange struct {
	ci     int
	lo, hi float64
	eqs    []float64
	nes    []float64
}

// compileSel builds the program for pred; pred may be nil.
func (ts *TableStats) compileSel(pred query.Pred) *selProgram {
	if pred == nil {
		return &selProgram{always: true}
	}
	return &selProgram{root: ts.compileSelNode(pred)}
}

func (ts *TableStats) compileSelNode(p query.Pred) selCompiled {
	switch n := p.(type) {
	case *query.Clause:
		return selCompiled{kind: selKClause, clause: ts.compileSelClause(n)}
	case *query.Not:
		if c, ok := n.Child.(*query.Clause); ok {
			return selCompiled{kind: selKNotClause, clause: ts.compileSelClause(c)}
		}
		return selCompiled{kind: selKNot, children: []selCompiled{ts.compileSelNode(n.Child)}}
	case *query.And:
		return ts.compileSelAnd(n)
	case *query.Or:
		out := selCompiled{kind: selKOr, children: make([]selCompiled, 0, len(n.Children))}
		for _, c := range n.Children {
			out.children = append(out.children, ts.compileSelNode(c))
		}
		return out
	default:
		return selCompiled{kind: selKConst1}
	}
}

func (ts *TableStats) compileSelClause(c *query.Clause) selClauseC {
	cl := selClauseC{ci: ts.Schema.ColIndex(c.Col), op: c.Op, num: c.Num}
	if cl.ci < 0 {
		return cl
	}
	cl.numeric = ts.Schema.Col(cl.ci).IsNumeric()
	if !cl.numeric {
		cl.codes = make([]int64, len(c.Strs))
		for i, v := range c.Strs {
			if code, ok := ts.Dict.Lookup(v); ok {
				cl.codes[i] = int64(code)
			} else {
				cl.codes[i] = -1
			}
		}
	}
	return cl
}

// compileSelAnd mirrors selEstimator.evalAnd's query-static half: numeric
// clauses on known columns merge into per-column ranges (folded in ascending
// column order), everything else stays a child in predicate order.
func (ts *TableStats) compileSelAnd(n *query.And) selCompiled {
	out := selCompiled{kind: selKAnd}
	ranges := make(map[int]*selColRange)
	for _, child := range n.Children {
		c, ok := child.(*query.Clause)
		if !ok {
			out.children = append(out.children, ts.compileSelNode(child))
			continue
		}
		ci := ts.Schema.ColIndex(c.Col)
		if ci < 0 || !ts.Schema.Col(ci).IsNumeric() {
			out.children = append(out.children, ts.compileSelNode(child))
			continue
		}
		cr, ok := ranges[ci]
		if !ok {
			cr = &selColRange{ci: ci, lo: math.Inf(-1), hi: math.Inf(1)}
			ranges[ci] = cr
		}
		switch c.Op {
		case query.OpLt, query.OpLe:
			if c.Num < cr.hi {
				cr.hi = c.Num
			}
		case query.OpGt, query.OpGe:
			if c.Num > cr.lo {
				cr.lo = c.Num
			}
		case query.OpEq:
			cr.eqs = append(cr.eqs, c.Num)
		case query.OpNe:
			cr.nes = append(cr.nes, c.Num)
		}
	}
	cols := make([]int, 0, len(ranges))
	for ci := range ranges {
		cols = append(cols, ci)
	}
	sort.Ints(cols)
	for _, ci := range cols {
		out.cols = append(out.cols, *ranges[ci])
	}
	return out
}

// estimate returns (upper, indep, min, max) for one partition; the compiled
// counterpart of selEstimator.estimate.
func (sp *selProgram) estimate(ps *PartitionStats) (upper, indep, minS, maxS float64) {
	if sp.always {
		return 1, 1, 1, 1
	}
	node := sp.root.eval(ps)
	return node.upper, node.indep, node.minSel, node.maxSel
}

// foldAnd merges a child into a conjunction accumulator: upper = min,
// indep = product, min/max over children. Identical to the fold closure in
// selEstimator.evalAnd.
func (out *selNode) foldAnd(ch selNode) {
	if ch.upper < out.upper {
		out.upper = ch.upper
	}
	out.indep *= ch.indep
	if ch.minSel < out.minSel {
		out.minSel = ch.minSel
	}
	if ch.maxSel > out.maxSel {
		out.maxSel = ch.maxSel
	}
}

func (sc *selCompiled) eval(ps *PartitionStats) selNode {
	switch sc.kind {
	case selKClause:
		return leaf(sc.clause.sel(ps))
	case selKNotClause:
		return leaf(1 - sc.clause.sel(ps))
	case selKNot:
		child := sc.children[0].eval(ps)
		s := clamp01(1 - child.indep)
		// A sound upper bound for a general negation needs a lower bound on
		// the child, which we do not track; fall back to 1.
		return selNode{upper: 1, indep: s, minSel: s, maxSel: s}
	case selKAnd:
		return sc.evalAnd(ps)
	case selKOr:
		out := selNode{upper: 0, indep: 1, minSel: math.Inf(1), maxSel: 0}
		for i := range sc.children {
			ch := sc.children[i].eval(ps)
			out.upper += ch.upper
			if ch.indep < out.indep {
				out.indep = ch.indep
			}
			if ch.minSel < out.minSel {
				out.minSel = ch.minSel
			}
			if ch.maxSel > out.maxSel {
				out.maxSel = ch.maxSel
			}
		}
		out.upper = clamp01(out.upper)
		if math.IsInf(out.minSel, 1) {
			out.minSel = 0
		}
		if out.upper < out.maxSel {
			out.upper = out.maxSel
		}
		return out
	default:
		return leaf(1)
	}
}

func (sc *selCompiled) evalAnd(ps *PartitionStats) selNode {
	out := selNode{upper: 1, indep: 1, minSel: math.Inf(1), maxSel: 0}
	for i := range sc.cols {
		cr := &sc.cols[i]
		cs := &ps.Cols[cr.ci]
		var s float64
		switch {
		case len(cr.eqs) > 1:
			same := true
			for _, e := range cr.eqs[1:] {
				if e != cr.eqs[0] {
					same = false
					break
				}
			}
			if !same {
				s = 0
			} else if cr.eqs[0] < cr.lo || cr.eqs[0] > cr.hi {
				s = 0
			} else {
				s = cs.Hist.EstimateEq(cr.eqs[0])
			}
		case len(cr.eqs) == 1:
			if cr.eqs[0] < cr.lo || cr.eqs[0] > cr.hi {
				s = 0
			} else {
				s = cs.Hist.EstimateEq(cr.eqs[0])
			}
		default:
			s = cs.Hist.EstimateRange(cr.lo, cr.hi)
		}
		for _, ne := range cr.nes {
			s *= clamp01(1 - cs.Hist.EstimateEq(ne))
		}
		out.foldAnd(leaf(s))
	}
	for i := range sc.children {
		out.foldAnd(sc.children[i].eval(ps))
	}
	if math.IsInf(out.minSel, 1) {
		out.minSel = 1
	}
	if out.indep > out.upper {
		out.indep = out.upper
	}
	return out
}

// sel mirrors selEstimator.clauseSel on a compiled clause.
func (cl *selClauseC) sel(ps *PartitionStats) float64 {
	if cl.ci < 0 {
		return 1
	}
	cs := &ps.Cols[cl.ci]
	if cl.numeric {
		switch cl.op {
		case query.OpEq:
			return cs.Hist.EstimateEq(cl.num)
		case query.OpNe:
			return clamp01(1 - cs.Hist.EstimateEq(cl.num))
		case query.OpLt, query.OpLe:
			return cs.Hist.EstimateRange(math.Inf(-1), cl.num)
		case query.OpGt, query.OpGe:
			return cs.Hist.EstimateRange(cl.num, math.Inf(1))
		default:
			return 1
		}
	}
	var sum float64
	for _, code := range cl.codes {
		if code < 0 {
			// Value exists nowhere in the table: frequency 0 (adding 0 to a
			// non-negative sum is a bitwise no-op, so skipping it keeps sums
			// identical to the reference).
			continue
		}
		sum += catCodeFreq(cs, uint32(code))
	}
	sum = clamp01(sum)
	if cl.op == query.OpNe {
		return clamp01(1 - sum)
	}
	return sum
}

// catCodeFreq is catValueFreq with the dictionary lookup already done:
// exact dictionary first, then heavy hitters, then the 1/ndv fallback that
// never returns 0 (preserving perfect recall of selectivity_upper).
func catCodeFreq(cs *ColumnStats, code uint32) float64 {
	if f, ok := cs.Dict.Freq(code); ok {
		return f
	}
	for _, item := range cs.HH.Items() {
		if item.ID == uint64(code) {
			return item.Freq
		}
	}
	ndv := cs.AKMV.DistinctEstimate()
	if ndv < 1 {
		ndv = 1
	}
	return 1 / ndv
}

// selNode carries the four statistics through the recursive evaluation.
type selNode struct {
	upper, indep   float64
	minSel, maxSel float64
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func leaf(s float64) selNode {
	s = clamp01(s)
	return selNode{upper: s, indep: s, minSel: s, maxSel: s}
}

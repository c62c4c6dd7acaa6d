package stats

import (
	"math"
	"sort"

	"ps3/internal/query"
)

// selEstimator evaluates a query predicate against per-partition sketches to
// produce the four selectivity features of §3.2:
//
//	selectivity_upper — sound upper bound (perfect recall as a 0/!0 filter)
//	selectivity_indep — estimate assuming clause independence
//	selectivity_min / selectivity_max — min and max over individual clauses
//
// Clauses over the same column inside a conjunction are evaluated jointly by
// intersecting their ranges against the column histogram.
//
// It is the frozen reference the compiled selProgram (selprogram.go), which
// every featurization runs, is equivalence-tested against.
type selEstimator struct {
	ts   *TableStats
	pred query.Pred
}

func newSelEstimator(ts *TableStats, pred query.Pred) *selEstimator {
	return &selEstimator{ts: ts, pred: pred}
}

// estimate returns (upper, indep, min, max) for one partition.
func (se *selEstimator) estimate(ps *PartitionStats) (upper, indep, minS, maxS float64) {
	if se.pred == nil {
		return 1, 1, 1, 1
	}
	node := se.evalNode(se.pred, ps)
	return node.upper, node.indep, node.minSel, node.maxSel
}

func (se *selEstimator) evalNode(p query.Pred, ps *PartitionStats) selNode {
	switch n := p.(type) {
	case *query.Clause:
		return leaf(se.clauseSel(n, ps))
	case *query.Not:
		if c, ok := n.Child.(*query.Clause); ok {
			return leaf(1 - se.clauseSel(c, ps))
		}
		child := se.evalNode(n.Child, ps)
		s := clamp01(1 - child.indep)
		// A sound upper bound for a general negation needs a lower bound on
		// the child, which we do not track; fall back to 1.
		return selNode{upper: 1, indep: s, minSel: s, maxSel: s}
	case *query.And:
		return se.evalAnd(n, ps)
	case *query.Or:
		out := selNode{upper: 0, indep: 1, minSel: math.Inf(1), maxSel: 0}
		for _, c := range n.Children {
			ch := se.evalNode(c, ps)
			// For ORs: upper = min(1, Σ uppers); indep = min of the
			// children (following §3.2 verbatim).
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
		// An OR is at least as selective as its most selective child; keep
		// upper sound by also lower-bounding it with maxSel's upper.
		if out.upper < out.maxSel {
			out.upper = out.maxSel
		}
		return out
	default:
		return leaf(1)
	}
}

// evalAnd merges numeric clauses per column into joint range estimates, then
// combines with the remaining children: upper = min, indep = product.
func (se *selEstimator) evalAnd(n *query.And, ps *PartitionStats) selNode {
	type colRange struct {
		lo, hi  float64
		eqs     []float64 // equality points
		nes     []float64 // inequality points
		clauses int
	}
	ranges := make(map[int]*colRange)
	var rest []query.Pred
	for _, child := range n.Children {
		c, ok := child.(*query.Clause)
		if !ok {
			rest = append(rest, child)
			continue
		}
		ci := se.ts.Schema.ColIndex(c.Col)
		if ci < 0 || !se.ts.Schema.Col(ci).IsNumeric() {
			rest = append(rest, child)
			continue
		}
		cr, ok := ranges[ci]
		if !ok {
			cr = &colRange{lo: math.Inf(-1), hi: math.Inf(1)}
			ranges[ci] = cr
		}
		cr.clauses++
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

	out := selNode{upper: 1, indep: 1, minSel: math.Inf(1), maxSel: 0}
	fold := func(ch selNode) {
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
	// Fold columns in schema order: indep is a float product, so the merge
	// order must not depend on map iteration for features to be
	// deterministic.
	cols := make([]int, 0, len(ranges))
	for ci := range ranges {
		cols = append(cols, ci)
	}
	sort.Ints(cols)
	for _, ci := range cols {
		cr := ranges[ci]
		cs := &ps.Cols[ci]
		var s float64
		switch {
		case len(cr.eqs) > 1:
			// Two different equality points conflict.
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
		fold(leaf(s))
	}
	for _, child := range rest {
		fold(se.evalNode(child, ps))
	}
	if math.IsInf(out.minSel, 1) {
		out.minSel = 1
	}
	// Independence estimate can never exceed the upper bound.
	if out.indep > out.upper {
		out.indep = out.upper
	}
	return out
}

// clauseSel estimates the selectivity of a single clause on one partition.
func (se *selEstimator) clauseSel(c *query.Clause, ps *PartitionStats) float64 {
	ci := se.ts.Schema.ColIndex(c.Col)
	if ci < 0 {
		return 1
	}
	cs := &ps.Cols[ci]
	if se.ts.Schema.Col(ci).IsNumeric() {
		switch c.Op {
		case query.OpEq:
			return cs.Hist.EstimateEq(c.Num)
		case query.OpNe:
			return clamp01(1 - cs.Hist.EstimateEq(c.Num))
		case query.OpLt, query.OpLe:
			return cs.Hist.EstimateRange(math.Inf(-1), c.Num)
		case query.OpGt, query.OpGe:
			return cs.Hist.EstimateRange(c.Num, math.Inf(1))
		default:
			return 1
		}
	}
	// Categorical clause: sum per-value frequencies.
	var sum float64
	for _, v := range c.Strs {
		sum += se.catValueFreq(cs, v)
	}
	sum = clamp01(sum)
	if c.Op == query.OpNe {
		return clamp01(1 - sum)
	}
	return sum
}

// catValueFreq estimates the fraction of partition rows equal to value v:
// dictionary lookup, then the shared per-partition frequency chain
// (catCodeFreq in selprogram.go) used by both the reference estimator and
// the compiled program.
func (se *selEstimator) catValueFreq(cs *ColumnStats, v string) float64 {
	code, ok := se.ts.Dict.Lookup(v)
	if !ok {
		// Value does not exist anywhere in the table.
		return 0
	}
	return catCodeFreq(cs, code)
}

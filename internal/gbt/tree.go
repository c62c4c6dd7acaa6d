// Package gbt implements gradient-boosted regression trees from scratch — a
// stdlib-only substitute for the XGBoost regressor the paper uses as the
// base model of the importance funnel (§4.3, Appendix B.2). It provides:
//
//   - squared-error gradient boosting with shrinkage,
//   - histogram-based split finding over pre-binned features with
//     second-order (Newton) leaf weights and L2 regularization,
//   - per-feature "gain" importance, used to reproduce Fig 5.
package gbt

import "sort"

// node is one tree node; leaves have feature == -1.
type node struct {
	feature int
	thresh  float64
	left    int
	right   int
	value   float64
}

// tree is a regression tree over dense float64 feature vectors.
type tree struct {
	nodes []node
}

// goesRight is the single traversal rule shared by the pointer-tree and flat
// evaluators: a row descends right iff its feature value does NOT satisfy
// x <= thresh. Spelled with the negation so the NaN case is a defined part of
// the contract rather than incidental comparison semantics: NaN fails every
// ordered comparison, so NaN features always descend right; -Inf always goes
// left and +Inf always goes right (unless the threshold is itself +Inf).
func goesRight(x, thresh float64) bool { return !(x <= thresh) }

// predict returns the tree's output for x.
func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if goesRight(x[n.feature], n.thresh) {
			i = n.right
		} else {
			i = n.left
		}
	}
}

// binCuts computes up to maxBins-1 candidate thresholds for one feature from
// quantiles of the training data.
func binCuts(xs [][]float64, feature, maxBins int) []float64 {
	vals := make([]float64, 0, len(xs))
	for _, row := range xs {
		vals = append(vals, row[feature])
	}
	sort.Float64s(vals)
	cuts := make([]float64, 0, maxBins)
	n := len(vals)
	for b := 1; b < maxBins; b++ {
		q := vals[b*n/maxBins]
		if len(cuts) == 0 || q > cuts[len(cuts)-1] {
			cuts = append(cuts, q)
		}
	}
	// Drop a trailing cut equal to the max: splitting there is vacuous.
	if len(cuts) > 0 && cuts[len(cuts)-1] >= vals[n-1] {
		cuts = cuts[:len(cuts)-1]
	}
	return cuts
}

// maxBins is the most bins a feature may have: bin codes are uint8.
const maxBins = 256

// binMatrix pre-bins every value into its cut bucket so split search is a
// direct histogram accumulation (bin b means value <= cuts[b], the last bin
// means value > all cuts). Codes are stored feature-major — codes[f][i] is
// row i's bin of feature f — so a histogram pass over one feature reads one
// contiguous column.
func binMatrix(xs [][]float64, cuts [][]float64) [][]uint8 {
	n := len(xs)
	backing := make([]uint8, n*len(cuts))
	codes := make([][]uint8, len(cuts))
	for f, fc := range cuts {
		col := backing[f*n : (f+1)*n : (f+1)*n]
		for i, row := range xs {
			col[i] = uint8(sort.SearchFloat64s(fc, row[f]))
		}
		codes[f] = col
	}
	return codes
}

// splitCtx carries shared state while growing one tree. Squared loss fixes
// every row's Hessian at 1, so a node's Hessian sum is its row count: the
// histograms keep gradient sums and counts only, and every h of the Newton
// formulas is float64(count), the same value a sum of count ones gives.
type splitCtx struct {
	codes [][]uint8 // feature-major, see binMatrix
	cuts  [][]float64
	// feats lists, ascending, the features that may split this round:
	// sampled (column sampling) and with at least one cut.
	feats   []int
	grad    []float64
	lambda  float64
	minLeaf int
	gamma   float64
	// importance accumulates split gain per feature.
	importance []float64
	// nodeGrad holds the current node's gradients in node order; right
	// buffers the right child's rows while a node's rows are partitioned.
	nodeGrad []float64
	right    []int
	// hists are scratch histograms, reused across nodes: up to len(hists)
	// features are binned in one pass over a node's rows.
	hists [4]hist
}

// hist is one feature's histogram over a node's rows: per bin, the sum of
// the rows' gradients in node order and the row count.
type hist struct {
	g [maxBins]float64
	n [maxBins]int
}

// leafValue is the Newton-step optimal leaf weight -G/(H+λ).
func (c *splitCtx) leafValue(idx []int) float64 {
	var g float64
	for _, i := range idx {
		g += c.grad[i]
	}
	return -g / (float64(len(idx)) + c.lambda)
}

// scoreGain computes the XGBoost split gain for a candidate partition of
// gradients.
func scoreGain(gl, hl, gr, hr, lambda float64) float64 {
	score := func(g, h float64) float64 { return g * g / (h + lambda) }
	return 0.5 * (score(gl, hl) + score(gr, hr) - score(gl+gr, hl+hr))
}

// bestSplit finds the best (feature, bin) for the rows in idx, or ok=false
// if no split improves the objective beyond gamma. Rows whose code is at most
// bin go left; they are exactly the rows whose value is <= cuts[feat][bin].
// Each bin's gradient sum adds the same gradients in the same (node) order
// as a row-at-a-time pass would, so the choice does not depend on layout.
func (c *splitCtx) bestSplit(idx []int) (feat, bin int, gain float64, ok bool) {
	gs := c.nodeGrad[:len(idx)]
	var gTot float64
	for k, i := range idx {
		gs[k] = c.grad[i]
		gTot += gs[k]
	}
	hTot := float64(len(idx))
	bestGain := c.gamma
	for feats := c.feats; len(feats) > 0; {
		group := feats[:min(len(feats), len(c.hists))]
		feats = feats[len(group):]
		c.fill(group, idx, gs)
		for j, f := range group {
			h, cuts := &c.hists[j], c.cuts[f]
			var gl float64
			nl := 0
			for b := 0; b < len(cuts); b++ {
				gl += h.g[b]
				nl += h.n[b]
				nr := len(idx) - nl
				if nl < c.minLeaf || nr < c.minLeaf {
					continue
				}
				hl := float64(nl)
				g := scoreGain(gl, hl, gTot-gl, hTot-hl, c.lambda)
				if g > bestGain {
					bestGain, feat, bin, ok = g, f, b, true
				}
			}
		}
	}
	return feat, bin, bestGain, ok
}

// fill bins the rows idx, whose gradients are gs in the same order, into
// hists[j] for each feature group[j]. Four features share one pass: their
// histograms are independent, so the adds of one row overlap instead of
// waiting on each other, while each bin still adds its rows one at a time
// in node order.
func (c *splitCtx) fill(group []int, idx []int, gs []float64) {
	for j, f := range group {
		nb := len(c.cuts[f]) + 1
		clear(c.hists[j].g[:nb])
		clear(c.hists[j].n[:nb])
	}
	if len(group) == 4 {
		h0, h1, h2, h3 := &c.hists[0], &c.hists[1], &c.hists[2], &c.hists[3]
		c0, c1, c2, c3 := c.codes[group[0]], c.codes[group[1]], c.codes[group[2]], c.codes[group[3]]
		for k, i := range idx {
			g := gs[k]
			b0, b1, b2, b3 := c0[i], c1[i], c2[i], c3[i]
			h0.g[b0] += g
			h0.n[b0]++
			h1.g[b1] += g
			h1.n[b1]++
			h2.g[b2] += g
			h2.n[b2]++
			h3.g[b3] += g
			h3.n[b3]++
		}
		return
	}
	for j, f := range group {
		h, col := &c.hists[j], c.codes[f]
		for k, i := range idx {
			b := col[i]
			h.g[b] += gs[k]
			h.n[b]++
		}
	}
}

// grow builds a tree of at most maxDepth on the rows in idx, which it
// reorders in place: each node's rows are partitioned stably into its left
// then its right child's, so every child sees its rows in the parent's order.
func (c *splitCtx) grow(idx []int, maxDepth int) *tree {
	t := &tree{}
	var build func(idx []int, depth int) int
	build = func(idx []int, depth int) int {
		id := len(t.nodes)
		t.nodes = append(t.nodes, node{feature: -1})
		if depth >= maxDepth || len(idx) < 2*c.minLeaf {
			t.nodes[id].value = c.leafValue(idx)
			return id
		}
		f, b, gain, ok := c.bestSplit(idx)
		if !ok {
			t.nodes[id].value = c.leafValue(idx)
			return id
		}
		c.importance[f] += gain
		col, code := c.codes[f], uint8(b)
		right := c.right[:0]
		nl := 0
		for _, i := range idx {
			if col[i] <= code {
				idx[nl] = i
				nl++
			} else {
				right = append(right, i)
			}
		}
		copy(idx[nl:], right)
		l := build(idx[:nl], depth+1)
		r := build(idx[nl:], depth+1)
		t.nodes[id] = node{feature: f, thresh: c.cuts[f][b], left: l, right: r}
		return id
	}
	build(idx, 0)
	return t
}

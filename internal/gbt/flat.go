package gbt

// This file is the flat, struct-of-arrays inference engine for trained
// ensembles. The index-linked node structs that training builds (tree.go)
// are the reference evaluator; before serving, every model is compiled into
// a Flat form with two complementary representations:
//
//  1. Flattened traversal arrays — feature index, threshold, left child,
//     right child in contiguous parallel slices shared by the whole
//     ensemble, leaf weights in a fifth slice, negative child references
//     -r encoding leaf r-1. Predict walks these (24 bytes per split node
//     against 40 for the training-time struct).
//
//  2. Feature-major batch tables (buildScorer) — every split condition of
//     every tree regrouped by feature with thresholds ascending, each entry
//     carrying a bitmask over its tree's leaves. They are the raw material
//     of the fold tables (scorer.go) that score the picker's funnel: a
//     row's live leaves start as all ones per tree, scanning a feature's
//     entries stops at the first threshold ≥ the row's value (all later
//     conditions hold), and each failed condition clears the leaves of its
//     node's left subtree. The exit leaf of every tree is then the lowest
//     surviving bit.
//
// The bitmask evaluation is exact (the QuickScorer insight): a root-to-leaf
// descent goes right exactly at the ancestors whose conditions fail, and
// clearing each failed node's left-subtree leaves removes precisely the
// leaves left of the true exit path, so the leftmost survivor is the exit
// leaf. Conditions failing in other parts of the tree only clear leaves
// that are not the exit leaf.
//
// Determinism contract: for every row, both forms accumulate
// base + Σ_t lr·leaf_t in tree order — exactly the order of the
// pointer-tree walk (Model.PredictReference, in the package tests) — so
// flat predictions are bit-identical to it. The traversal arrays use the shared goesRight rule (NaN
// descends right); the batch tables inherit it because NaN satisfies no
// "value ≤ threshold" condition, fails every mask test, and therefore exits
// at the rightmost reachable leaf, exactly like the walk.

// Flat is the compiled form of a trained ensemble. It is immutable after
// compile and safe for concurrent use.
type Flat struct {
	base float64
	lr   float64
	dim  int
	// roots[t] is tree t's root reference: a node index, or a negative leaf
	// reference for single-leaf trees.
	roots []int32
	// Parallel split-node arrays; entry i is one internal node.
	feat   []int32
	thresh []float64
	left   []int32
	right  []int32
	// leafVal[r] is the weight of leaf r; reference -(r+1) points at it.
	leafVal []float64

	// Feature-major batch tables; present (qsOK) when every tree has at
	// most qsMaxLeaves leaves and the ensemble at most qsMaxTrees trees.
	qsOK      bool
	qsEntries []qsEntry
	qsFeatOff []int32   // entries of feature f: qsEntries[qsFeatOff[f]:qsFeatOff[f+1]]
	qsLeafVal []float64 // per-tree leaf weights, leaves numbered left→right
	qsLeafOff []int32   // tree t's leaves: qsLeafVal[qsLeafOff[t]:qsLeafOff[t+1]]
}

// qsEntry is one split condition in the batch tables: if a row's value of
// the owning feature exceeds thresh (condition false, row descends right),
// mask clears the leaves of the node's left subtree from the tree's
// live-leaf bitvector.
type qsEntry struct {
	thresh float64
	tree   int32
	mask   uint64
}

const (
	// qsMaxLeaves bounds per-tree leaves so a tree's live-leaf set fits one
	// uint64 (trees up to depth 6; the picker's funnel trains depth 4).
	qsMaxLeaves = 64
	// qsMaxTrees bounds the ensembles the batch tables are built for.
	qsMaxTrees = 128
)

// compileFlat flattens pointer trees into the struct-of-arrays layout and
// builds the feature-major batch tables. Trees are concatenated in ensemble
// order; within a tree, split nodes and leaves are numbered in the preorder
// the grower emitted them in.
func compileFlat(base, lr float64, dim int, trees []*tree) *Flat {
	f := &Flat{base: base, lr: lr, dim: dim, roots: make([]int32, 0, len(trees))}
	for _, t := range trees {
		// First pass: assign every node of this tree its global slot.
		ref := make([]int32, len(t.nodes))
		for i, n := range t.nodes {
			if n.feature < 0 {
				f.leafVal = append(f.leafVal, n.value)
				ref[i] = -int32(len(f.leafVal)) // leaf r ↦ -(r+1)
			} else {
				ref[i] = int32(len(f.feat))
				f.feat = append(f.feat, int32(n.feature))
				f.thresh = append(f.thresh, n.thresh)
				f.left = append(f.left, 0)
				f.right = append(f.right, 0)
			}
		}
		// Second pass: rewrite child links as references.
		for i, n := range t.nodes {
			if n.feature < 0 {
				continue
			}
			f.left[ref[i]] = ref[n.left]
			f.right[ref[i]] = ref[n.right]
		}
		f.roots = append(f.roots, ref[0])
	}
	f.buildScorer(trees)
	return f
}

// buildScorer derives the feature-major batch tables from the trees.
func (f *Flat) buildScorer(trees []*tree) {
	if len(trees) > qsMaxTrees {
		return
	}
	// Left-to-right leaf numbering and per-node (firstLeaf, leafCount) via
	// in-order recursion; bail out on trees too leafy for one uint64.
	type cond struct {
		feature int32
		thresh  float64
		tree    int32
		mask    uint64
	}
	var conds []cond
	for ti, t := range trees {
		var walk func(i int) (first, count int)
		nLeaves := 0
		ok := true
		walk = func(i int) (int, int) {
			n := &t.nodes[i]
			if n.feature < 0 {
				id := nLeaves
				nLeaves++
				f.qsLeafVal = append(f.qsLeafVal, n.value)
				return id, 1
			}
			lf, lc := walk(n.left)
			_, rc := walk(n.right)
			if lc+rc > qsMaxLeaves {
				ok = false
				return lf, lc + rc
			}
			// Condition false (value > thresh) ⇒ clear the left subtree's
			// leaves [lf, lf+lc).
			mask := ^(((uint64(1) << uint(lc)) - 1) << uint(lf))
			conds = append(conds, cond{feature: int32(n.feature), thresh: n.thresh, tree: int32(ti), mask: mask})
			return lf, lc + rc
		}
		start := len(f.qsLeafVal)
		f.qsLeafOff = append(f.qsLeafOff, int32(start))
		if _, total := walk(0); !ok || total > qsMaxLeaves {
			f.qsLeafVal = f.qsLeafVal[:0]
			f.qsLeafOff = f.qsLeafOff[:0]
			return
		}
	}
	f.qsLeafOff = append(f.qsLeafOff, int32(len(f.qsLeafVal)))

	// Bucket conditions by feature, thresholds ascending (ties in any order:
	// masks commute, and the scan stops before every tied threshold at once).
	perFeat := make([][]cond, f.dim)
	for _, c := range conds {
		perFeat[c.feature] = append(perFeat[c.feature], c)
	}
	f.qsFeatOff = make([]int32, f.dim+1)
	for fi, cs := range perFeat {
		f.qsFeatOff[fi] = int32(len(f.qsEntries))
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && cs[j].thresh < cs[j-1].thresh; j-- {
				cs[j], cs[j-1] = cs[j-1], cs[j]
			}
		}
		for _, c := range cs {
			f.qsEntries = append(f.qsEntries, qsEntry{thresh: c.thresh, tree: c.tree, mask: c.mask})
		}
	}
	f.qsFeatOff[f.dim] = int32(len(f.qsEntries))
	f.qsOK = true
}

// predictRow evaluates one feature vector through every tree by direct
// traversal. The array slices are hoisted into locals so the compiler keeps
// them in registers across the walk.
func (f *Flat) predictRow(x []float64) float64 {
	feat, thresh, left, right, leafVal := f.feat, f.thresh, f.left, f.right, f.leafVal
	v := f.base
	for _, ref := range f.roots {
		for ref >= 0 {
			if goesRight(x[feat[ref]], thresh[ref]) {
				ref = right[ref]
			} else {
				ref = left[ref]
			}
		}
		v += f.lr * leafVal[-ref-1]
	}
	return v
}

package gbt

import "math/bits"

// This file specializes the feature-major batch tables (flat.go) to callers
// that score the same rows again and again under different queries — the
// picker's funnel. A funnel row is one partition; of its feature slots only a
// few (the selectivity estimates) depend on the query. Every other slot
// belongs to a table column and holds either the partition's precomputed base
// feature (the query names the column) or exactly zero (it does not). So the
// outcome of every split condition on a column's slots is known per
// (partition, column) before any query arrives, and QuickScorer evaluation
// splits three ways by when its work can be done:
//
//   - once per binding of a model to a base matrix (NewFoldTable): for every
//     (row, column) the AND of the leaf masks of the column's failed
//     conditions on the row's base values — one 16-bit word per tree; the
//     same fold at value zero per column; and the free-slot conditions their
//     declared value range cannot decide;
//   - once per query (BatchScorer.Bind): the zero folds of the unnamed
//     columns AND into the per-tree base bitvectors;
//   - per row (BatchScorer.Predict): one word-AND per tree per named column,
//     and a scan of the surviving free-slot conditions only.
//
// Masks commute under AND and every fold is built by the same
// ascending-threshold scan of the batch tables (NaN fails every condition,
// ±Inf compare as floats do), so every tree keeps the live leaves a scan of
// the full row leaves it — hence the same exit leaf and a tree-order sum
// bit-identical to Model.Predict over the full rows.

// FoldLayout describes how a model's feature slots relate to the rows a
// FoldTable will score.
type FoldLayout struct {
	// Group[j] is the column group of feature slot j: within one query every
	// slot of a group holds either the row's base value (group named) or zero
	// (group not named). -1 marks a free slot, whose value is supplied per row
	// at Predict time; free slots are numbered by ascending slot index.
	Group []int32
	// Groups is the number of column groups; group ids lie in [0, Groups).
	Groups int
	// FreeLo and FreeHi bound every free-slot value of every row, inclusive;
	// conditions the bound decides are resolved at build time. ∓Inf bound
	// nothing but still promise an ordered value: a NaN lies in no interval,
	// so free slots must never hold one.
	FreeLo, FreeHi float64
}

// foldMaxLeaves bounds the trees a FoldTable is built for: a fold word is 16
// bits, one per leaf. Depth-4 trees — all the picker's funnel trains — fit,
// and the per-row sweep is bound by how many table bytes it pulls through the
// cache, so words four times narrower than the scorer's own 64-bit
// bitvectors are worth the narrower reach.
const foldMaxLeaves = 16

// FoldTable is the query-independent half of QuickScorer evaluation of one
// model over one base matrix. It is immutable after construction and safe for
// concurrent use by any number of BatchScorers.
type FoldTable struct {
	f     *Flat
	trees int
	// col[g] is group g's position among the condition-bearing groups, or -1
	// when no split of the model tests one of g's slots (such a group costs
	// nothing per row and no table memory).
	col  []int32
	cols int
	// words[(i·cols + c)·trees + t] is row i's fold of column c for tree t;
	// zero[c·trees + t] is column c's fold when every slot of it is zero.
	// Bit l of a word is leaf l of the tree, as in qsEntry.mask.
	words []uint16
	zero  []uint16
	// Free-slot conditions the declared range left undecided, in the compact
	// feats/off form (free slot feats[k]'s entries are entries[off[k]:off[k+1]]),
	// and the masks of those the range always fails.
	freeBV  []uint64
	entries []qsEntry
	feats   []int32
	off     []int32
}

// NewFoldTable folds m's split conditions over the row-major base matrix
// (row i at base[i*stride : i*stride+Dim()], rows rows) under lay. It returns
// nil when m is outside the table's reach (more than 128 trees, or a tree of
// more than 16 leaves); callers then score full rows with Predict.
func (m *Model) NewFoldTable(base []float64, stride, rows int, lay FoldLayout) *FoldTable {
	f := m.flat
	if !f.qsOK {
		return nil
	}
	if len(lay.Group) != f.dim {
		panic("gbt: FoldLayout.Group length differs from the model dimension")
	}
	if stride < f.dim || (rows > 0 && (rows-1)*stride+f.dim > len(base)) {
		panic("gbt: NewFoldTable base matrix shorter than its rows require")
	}
	trees := len(f.roots)
	for t := 0; t < trees; t++ {
		if f.qsLeafOff[t+1]-f.qsLeafOff[t] > foldMaxLeaves {
			return nil
		}
	}
	ft := &FoldTable{f: f, trees: trees, col: make([]int32, lay.Groups), freeBV: allOnes[uint64](trees)}
	for g := range ft.col {
		ft.col[g] = -1
	}
	free := int32(0)
	for fi, g := range lay.Group {
		eLo, eHi := f.qsFeatOff[fi], f.qsFeatOff[fi+1]
		if g >= 0 {
			if eLo < eHi && ft.col[g] < 0 {
				ft.col[g] = int32(ft.cols)
				ft.cols++
			}
			continue
		}
		mark := len(ft.entries)
		for _, e := range f.qsEntries[eLo:eHi] {
			if lay.FreeHi <= e.thresh {
				// x ≤ FreeHi ≤ thresh in every row: this condition and all
				// later (larger) thresholds always hold.
				break
			}
			if !(lay.FreeLo <= e.thresh) {
				// thresh < FreeLo ≤ x in every row: always fails.
				ft.freeBV[e.tree] &= e.mask
				continue
			}
			ft.entries = append(ft.entries, e)
		}
		if len(ft.entries) > mark {
			ft.feats = append(ft.feats, free)
			ft.off = append(ft.off, int32(mark))
		}
		free++
	}
	ft.off = append(ft.off, int32(len(ft.entries)))

	ft.zero = allOnes[uint16](ft.cols * trees)
	ft.words = allOnes[uint16](rows * ft.cols * trees)
	for fi, g := range lay.Group {
		es := f.qsEntries[f.qsFeatOff[fi]:f.qsFeatOff[fi+1]]
		if g < 0 || len(es) == 0 {
			continue
		}
		c := int(ft.col[g]) * trees
		foldInto(ft.zero[c:c+trees], es, 0)
		for i := 0; i < rows; i++ {
			w := (i*ft.cols)*trees + c
			foldInto(ft.words[w:w+trees], es, base[i*stride+fi])
		}
	}
	return ft
}

// foldInto ANDs into bv the masks of the conditions of es (one feature's
// entries, thresholds ascending) that fail at value xv.
func foldInto(bv []uint16, es []qsEntry, xv float64) {
	for _, e := range es {
		if xv <= e.thresh {
			break
		}
		bv[e.tree] &= uint16(e.mask)
	}
}

func allOnes[W uint16 | uint64](n int) []W {
	s := make([]W, n)
	for i := range s {
		s[i] = ^W(0)
	}
	return s
}

// Bytes returns the size of the per-row fold words: rows × condition-bearing
// columns × trees × 2. The per-column and free-slot tables beside them do not
// grow with the row count and are not counted.
func (t *FoldTable) Bytes() int64 { return int64(len(t.words)) * 2 }

// BatchScorer is a FoldTable bound to one query's set of named column
// groups. It owns reusable buffers and is not safe for concurrent use;
// callers pool scorers alongside their batch scratch. The zero value is ready
// to Bind.
type BatchScorer struct {
	t *FoldTable
	// named lists the word offsets (c·trees) of the named condition-bearing
	// columns.
	named   []int32
	bv0, bv []uint64
}

// Bind specializes the scorer to t under a query naming the groups g with
// named[g] (len(named) must be the layout's Groups). Bind may be called
// repeatedly to re-specialize; buffers are reused.
func (s *BatchScorer) Bind(t *FoldTable, named []bool) {
	if len(named) != len(t.col) {
		panic("gbt: BatchScorer.Bind named length differs from the layout's group count")
	}
	s.t = t
	if cap(s.bv0) < t.trees {
		s.bv0 = make([]uint64, t.trees)
		s.bv = make([]uint64, t.trees)
	}
	s.bv0, s.bv = s.bv0[:t.trees], s.bv[:t.trees]
	copy(s.bv0, t.freeBV)
	s.named = s.named[:0]
	for g, c := range t.col {
		switch {
		case c < 0:
		case named[g]:
			s.named = append(s.named, c*int32(t.trees))
		default:
			z := t.zero[int(c)*t.trees:][:t.trees]
			for k := range s.bv0 {
				s.bv0[k] &= uint64(z[k])
			}
		}
	}
}

// Predict fills dst[k] with the bound model's output for table row rows[k],
// whose free-slot values are xs[rows[k]] (indexed by free-slot number). It is
// bit-identical to Model.Predict over the full rows the binding stands for,
// and performs zero allocations.
func (s *BatchScorer) Predict(dst []float64, rows []int, xs [][]float64) {
	if len(dst) != len(rows) {
		panic("gbt: BatchScorer.Predict dst/rows length mismatch")
	}
	t := s.t
	f := t.f
	entries, feats, off := t.entries, t.feats, t.off
	bv, bv0 := s.bv, s.bv0
	rowWords := t.cols * t.trees
	leafOff, leafVal := f.qsLeafOff, f.qsLeafVal
	for k, i := range rows {
		copy(bv, bv0)
		// A zero-extended fold word also clears bits 16–63 of the bitvector,
		// which no tree inside foldMaxLeaves has a leaf on: the exit leaf —
		// the lowest survivor, all that is read — is never among them.
		w := t.words[i*rowWords : (i+1)*rowWords]
		for _, c := range s.named {
			col := w[c:][:len(bv)]
			for j := range bv {
				bv[j] &= uint64(col[j])
			}
		}
		x := xs[i]
		for n, fi := range feats {
			xv := x[fi]
			for e := off[n]; e < off[n+1]; e++ {
				if xv <= entries[e].thresh {
					break
				}
				bv[entries[e].tree] &= entries[e].mask
			}
		}
		v := f.base
		for j := range bv {
			v += f.lr * leafVal[leafOff[j]+int32(bits.TrailingZeros64(bv[j]))]
		}
		dst[k] = v
	}
}

package query

import (
	"fmt"
	"sync"

	"ps3/internal/table"
)

// This file is the vectorized half of the execution engine. Predicate trees
// compile into selection-vector kernels: a kernel receives the candidate row
// indices of one partition and compacts them down to the rows that pass,
// touching each column as a tight loop over its typed slice. Dispatch cost is
// one indirect call per clause per partition instead of one (or more) per
// row, which is what makes every scan in the repo run at columnar speed.
//
// Kernel contract:
//
//   - sel holds row indices in strictly ascending order.
//   - A kernel compacts passing rows into sel in place (reads at index i
//     happen before any write at i, and writes only move entries left), so
//     the input selection is consumed.
//   - The returned slice is a prefix of sel, still in ascending order —
//     selection order is row order, which is what keeps downstream float
//     accumulation bit-identical to the row-at-a-time reference evaluator.
//   - Kernels are immutable and shareable across goroutines; all mutable
//     state lives in the per-evaluation scratch.
type kernel func(p *table.Partition, sel []int32, sc *scratch) []int32

// scratch holds the reusable buffers one partition evaluation needs, so that
// steady-state scans allocate only the Answer they return. One scratch is
// owned by one goroutine at a time: parallel scans thread a scratch per
// worker (exec.MapWith); Estimate and the public single-partition entry
// points draw theirs from scratchPool. Nothing in a scratch belongs to a
// query: every buffer is sized on use, and the group table is re-shaped by
// begin.
type scratch struct {
	// sel is the primary selection vector, sized to the partition's rows.
	sel []int32
	// selFree recycles temporary selection copies (OR/NOT/FILTER operands).
	// Depth is bounded by predicate nesting, so the freelist stays tiny.
	selFree [][]int32
	// markFree recycles row-mark buffers. Invariant: every buffer in the
	// freelist is all-false; users clear the marks they set before putMarks.
	markFree [][]bool
	// expr is the vectorized LinearExpr accumulation buffer.
	expr []float64
	// gidx maps each selected row to its dense group slot.
	gidx []int32
	// fsel/fidx are the compacted (rows, group-slots) pair of a FILTER
	// aggregate's sub-selection.
	fsel []int32
	fidx []int32
	// keys holds the packed group key of each selected row (packed GROUP BY
	// path).
	keys []uint64
	// groups maps packed keys to dense slots, per partition while a worker
	// evaluates and per scan while partials fold.
	groups groupTable
	// keyBytes is the byte-key encoding buffer and lut the key→slot map of
	// the generic GROUP BY path; lut is cleared and reused across partitions.
	// gnum/gcat hold the group-by columns of the partition being keyed, and
	// nothing between partitions.
	keyBytes []byte
	lut      map[string]int32
	gnum     [][]float64
	gcat     [][]uint32
	// pkeys, bkeys and paccs are the arenas partials are carved from: packed
	// keys, byte keys and accumulators of every partial produced since
	// resetPartials.
	pkeys []uint64
	bkeys []string
	paccs []float64
}

// scratchPool recycles scratches across every compiled query of the process:
// one per call for the public single-partition entry points, one per worker
// for Estimate. A query that is compiled, run once and dropped — ad-hoc
// traffic — therefore scans with buffers an earlier query warmed, and what the
// pool pins is bounded by trim per pooled scratch, not per cached query.
var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// selBuf returns the primary selection buffer, uninitialized — the target a
// seed kernel fills.
func (sc *scratch) selBuf(n int) []int32 {
	if cap(sc.sel) < n {
		sc.sel = make([]int32, n)
	}
	return sc.sel[:n]
}

// fullSel returns the identity selection [0, n).
func (sc *scratch) fullSel(n int) []int32 {
	return identity(sc.selBuf(n), n)
}

// identity fills out with the selection of all rows.
func identity(out []int32, rows int) []int32 {
	out = out[:rows]
	for r := range out {
		out[r] = int32(r)
	}
	return out
}

// getSel returns a temporary selection buffer of length n; pair with putSel.
func (sc *scratch) getSel(n int) []int32 {
	if k := len(sc.selFree); k > 0 {
		b := sc.selFree[k-1]
		sc.selFree = sc.selFree[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]int32, n)
}

func (sc *scratch) putSel(b []int32) {
	sc.selFree = append(sc.selFree, b[:cap(b)])
}

// getMarks returns an all-false row-mark buffer covering n rows. Callers
// must clear every mark they set before putMarks.
func (sc *scratch) getMarks(n int) []bool {
	if k := len(sc.markFree); k > 0 {
		m := sc.markFree[k-1]
		sc.markFree = sc.markFree[:k-1]
		if cap(m) >= n {
			return m[:n]
		}
	}
	return make([]bool, n)
}

func (sc *scratch) putMarks(m []bool) {
	sc.markFree = append(sc.markFree, m[:cap(m)])
}

// exprBuf returns the LinearExpr accumulation buffer, uninitialized.
func (sc *scratch) exprBuf(n int) []float64 {
	if cap(sc.expr) < n {
		sc.expr = make([]float64, n)
	}
	return sc.expr[:n]
}

// gidxBuf returns the per-selected-row group-slot buffer, uninitialized.
func (sc *scratch) gidxBuf(n int) []int32 {
	if cap(sc.gidx) < n {
		sc.gidx = make([]int32, n)
	}
	return sc.gidx[:n]
}

// keyBuf returns the per-selected-row packed-key buffer, uninitialized.
func (sc *scratch) keyBuf(n int) []uint64 {
	if cap(sc.keys) < n {
		sc.keys = make([]uint64, n)
	}
	return sc.keys[:n]
}

// filterBufs returns the (rows, group-slots) buffers a FILTER sub-selection
// compacts into. One pair suffices: slots are processed sequentially and
// each sub-selection is consumed before the next filter runs.
func (sc *scratch) filterBufs(n int) (fsel, fidx []int32) {
	if cap(sc.fsel) < n {
		sc.fsel = make([]int32, n)
		sc.fidx = make([]int32, n)
	}
	return sc.fsel[:n], sc.fidx[:n]
}

// groupLut returns the cleared key→slot map for the generic GROUP BY path.
func (sc *scratch) groupLut() map[string]int32 {
	if sc.lut == nil {
		sc.lut = make(map[string]int32)
		return sc.lut
	}
	clear(sc.lut)
	return sc.lut
}

// seedKernel is the "fill" form of a clause kernel: it scans every row of
// the partition directly, writing passing row indices into out, so that
// clause-rooted predicates never materialize the identity selection first.
type seedKernel func(p *table.Partition, rows int, out []int32) []int32

// compilePredSeed splits a predicate into an optional fill step and the
// remaining selection kernel. When the tree is a clause, or a conjunction
// whose first child is a clause, that clause seeds the selection vector and
// the rest intersect it; otherwise seed is nil and callers start from the
// identity selection. (seed, rest) == (nil, nil) means no predicate.
func compilePredSeed(pred Pred, s *table.Schema, d *table.Dict) (seedKernel, kernel, error) {
	switch n := pred.(type) {
	case *Clause:
		seed, err := compileClauseSeed(n, s, d)
		return seed, nil, err
	case *And:
		if len(n.Children) > 0 {
			first, ok := n.Children[0].(*Clause)
			if !ok {
				break
			}
			seed, err := compileClauseSeed(first, s, d)
			if err != nil {
				return nil, nil, err
			}
			if len(n.Children) == 1 {
				return seed, nil, nil
			}
			rest, err := compileKernel(&And{Children: n.Children[1:]}, s, d)
			if err != nil {
				return nil, nil, err
			}
			return seed, rest, nil
		}
	}
	k, err := compileKernel(pred, s, d)
	return nil, k, err
}

// catCodeSet validates a categorical clause's operator and resolves its
// value strings to dictionary codes. Unseen values resolve to nothing, so
// the returned set may be smaller than the value list (or empty).
func catCodeSet(c *Clause, d *table.Dict) (map[uint32]bool, error) {
	switch c.Op {
	case OpEq, OpNe, OpIn:
	default:
		return nil, fmt.Errorf("query: operator %s not supported on categorical column %q", c.Op, c.Col)
	}
	codes := make(map[uint32]bool, len(c.Strs))
	for _, v := range c.Strs {
		if code, ok := d.Lookup(v); ok {
			codes[code] = true
		}
	}
	return codes, nil
}

// singleCode returns the sole element of a one-entry code set.
func singleCode(codes map[uint32]bool) uint32 {
	//lint:mapiter-ok the set has exactly one element (callers check len==1), so order cannot exist
	for code := range codes {
		return code
	}
	panic("query: singleCode on empty set")
}

// codeTable compiles a multi-value code set to a dense code-indexed bool
// table: dictionary codes are dense, so membership costs one bounds check +
// one load per row instead of a map probe. Codes beyond the table (possible
// only on corrupted partitions) are treated as not-in-set, matching the map
// semantics of the reference path.
func codeTable(codes map[uint32]bool, d *table.Dict) []bool {
	lut := make([]bool, d.Len())
	//lint:mapiter-ok independent per-key writes into the dense table; no accumulation across keys
	for code := range codes {
		lut[code] = true
	}
	return lut
}

// compileClauseSeed lowers one clause to its fill form, scanning [0, rows)
// directly instead of filtering a materialized identity selection. The
// per-operator loop bodies deliberately mirror compileClauseKernel's —
// fusing the two ladders behind an abstraction would reintroduce a per-row
// indirect call, which is exactly what kernels exist to avoid. Keep the two
// switch ladders in sync when adding operators; the randomized equivalence
// corpus exercises both (seeds run for clause-rooted and first-of-AND
// predicates, narrowing kernels for everything else).
func compileClauseSeedRaw(c *Clause, s *table.Schema, d *table.Dict) (seedKernel, error) {
	ci := s.ColIndex(c.Col)
	if ci < 0 {
		return nil, fmt.Errorf("query: unknown column %q in predicate", c.Col)
	}
	if s.Col(ci).IsNumeric() {
		v := c.Num
		switch c.Op {
		case OpEq:
			return func(p *table.Partition, rows int, out []int32) []int32 {
				col := p.NumCol(ci)
				n := 0
				for r := 0; r < rows; r++ {
					if col[r] == v {
						out[n] = int32(r)
						n++
					}
				}
				return out[:n]
			}, nil
		case OpNe:
			return func(p *table.Partition, rows int, out []int32) []int32 {
				col := p.NumCol(ci)
				n := 0
				for r := 0; r < rows; r++ {
					if col[r] != v {
						out[n] = int32(r)
						n++
					}
				}
				return out[:n]
			}, nil
		case OpLt:
			return func(p *table.Partition, rows int, out []int32) []int32 {
				col := p.NumCol(ci)
				n := 0
				for r := 0; r < rows; r++ {
					if col[r] < v {
						out[n] = int32(r)
						n++
					}
				}
				return out[:n]
			}, nil
		case OpLe:
			return func(p *table.Partition, rows int, out []int32) []int32 {
				col := p.NumCol(ci)
				n := 0
				for r := 0; r < rows; r++ {
					if col[r] <= v {
						out[n] = int32(r)
						n++
					}
				}
				return out[:n]
			}, nil
		case OpGt:
			return func(p *table.Partition, rows int, out []int32) []int32 {
				col := p.NumCol(ci)
				n := 0
				for r := 0; r < rows; r++ {
					if col[r] > v {
						out[n] = int32(r)
						n++
					}
				}
				return out[:n]
			}, nil
		case OpGe:
			return func(p *table.Partition, rows int, out []int32) []int32 {
				col := p.NumCol(ci)
				n := 0
				for r := 0; r < rows; r++ {
					if col[r] >= v {
						out[n] = int32(r)
						n++
					}
				}
				return out[:n]
			}, nil
		default:
			return nil, fmt.Errorf("query: operator %s not supported on numeric column %q", c.Op, c.Col)
		}
	}
	codes, err := catCodeSet(c, d)
	if err != nil {
		return nil, err
	}
	neg := c.Op == OpNe
	switch len(codes) {
	case 0:
		if neg {
			return func(_ *table.Partition, rows int, out []int32) []int32 {
				return identity(out, rows)
			}, nil
		}
		return func(_ *table.Partition, _ int, out []int32) []int32 {
			return out[:0]
		}, nil
	case 1:
		want := singleCode(codes)
		if neg {
			return func(p *table.Partition, rows int, out []int32) []int32 {
				col := p.CatCol(ci)
				n := 0
				for r := 0; r < rows; r++ {
					if col[r] != want {
						out[n] = int32(r)
						n++
					}
				}
				return out[:n]
			}, nil
		}
		return func(p *table.Partition, rows int, out []int32) []int32 {
			col := p.CatCol(ci)
			n := 0
			for r := 0; r < rows; r++ {
				if col[r] == want {
					out[n] = int32(r)
					n++
				}
			}
			return out[:n]
		}, nil
	default:
		lut := codeTable(codes, d)
		if neg {
			return func(p *table.Partition, rows int, out []int32) []int32 {
				col := p.CatCol(ci)
				n := 0
				for r := 0; r < rows; r++ {
					if c := col[r]; int(c) >= len(lut) || !lut[c] {
						out[n] = int32(r)
						n++
					}
				}
				return out[:n]
			}, nil
		}
		return func(p *table.Partition, rows int, out []int32) []int32 {
			col := p.CatCol(ci)
			n := 0
			for r := 0; r < rows; r++ {
				if c := col[r]; int(c) < len(lut) && lut[c] {
					out[n] = int32(r)
					n++
				}
			}
			return out[:n]
		}, nil
	}
}

// compileKernel lowers a predicate tree to a selection kernel. A nil
// predicate compiles to a nil kernel, meaning "all rows pass" — callers skip
// the call instead of copying the identity selection through it.
func compileKernel(pred Pred, s *table.Schema, d *table.Dict) (kernel, error) {
	if pred == nil {
		return nil, nil
	}
	switch n := pred.(type) {
	case *And:
		kerns := make([]kernel, len(n.Children))
		for i, child := range n.Children {
			k, err := compileKernel(child, s, d)
			if err != nil {
				return nil, err
			}
			kerns[i] = k
		}
		return func(p *table.Partition, sel []int32, sc *scratch) []int32 {
			for _, k := range kerns {
				if len(sel) == 0 {
					break
				}
				sel = k(p, sel, sc)
			}
			return sel
		}, nil
	case *Or:
		kerns := make([]kernel, len(n.Children))
		for i, child := range n.Children {
			k, err := compileKernel(child, s, d)
			if err != nil {
				return nil, err
			}
			kerns[i] = k
		}
		return func(p *table.Partition, sel []int32, sc *scratch) []int32 {
			if len(sel) == 0 {
				return sel
			}
			// Run each child on a copy of the incoming selection and union
			// the survivors via row marks, then compact the original
			// selection in order (merge order = row order = bit-identity).
			marks := sc.getMarks(p.Rows())
			tmp := sc.getSel(len(sel))
			for _, k := range kerns {
				t := tmp[:len(sel)]
				copy(t, sel)
				for _, r := range k(p, t, sc) {
					marks[r] = true
				}
			}
			sc.putSel(tmp)
			n := 0
			for _, r := range sel {
				if marks[r] {
					marks[r] = false
					sel[n] = r
					n++
				}
			}
			sc.putMarks(marks)
			return sel[:n]
		}, nil
	case *Not:
		k, err := compileKernel(n.Child, s, d)
		if err != nil {
			return nil, err
		}
		return func(p *table.Partition, sel []int32, sc *scratch) []int32 {
			if len(sel) == 0 {
				return sel
			}
			marks := sc.getMarks(p.Rows())
			tmp := sc.getSel(len(sel))
			t := tmp[:len(sel)]
			copy(t, sel)
			for _, r := range k(p, t, sc) {
				marks[r] = true
			}
			sc.putSel(tmp)
			n := 0
			for _, r := range sel {
				if marks[r] {
					marks[r] = false
				} else {
					sel[n] = r
					n++
				}
			}
			sc.putMarks(marks)
			return sel[:n]
		}, nil
	case *Clause:
		return compileClauseKernel(n, s, d)
	default:
		return nil, fmt.Errorf("query: unknown predicate node %T", pred)
	}
}

// compileClauseKernelRaw lowers one comparison clause to a column kernel
// over decoded slices — the frozen reference loops the encoded dispatch in
// enckernel.go falls back to.
func compileClauseKernelRaw(c *Clause, s *table.Schema, d *table.Dict) (kernel, error) {
	ci := s.ColIndex(c.Col)
	if ci < 0 {
		return nil, fmt.Errorf("query: unknown column %q in predicate", c.Col)
	}
	if s.Col(ci).IsNumeric() {
		v := c.Num
		switch c.Op {
		case OpEq:
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.NumCol(ci)
				n := 0
				for _, r := range sel {
					if col[r] == v {
						sel[n] = r
						n++
					}
				}
				return sel[:n]
			}, nil
		case OpNe:
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.NumCol(ci)
				n := 0
				for _, r := range sel {
					if col[r] != v {
						sel[n] = r
						n++
					}
				}
				return sel[:n]
			}, nil
		case OpLt:
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.NumCol(ci)
				n := 0
				for _, r := range sel {
					if col[r] < v {
						sel[n] = r
						n++
					}
				}
				return sel[:n]
			}, nil
		case OpLe:
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.NumCol(ci)
				n := 0
				for _, r := range sel {
					if col[r] <= v {
						sel[n] = r
						n++
					}
				}
				return sel[:n]
			}, nil
		case OpGt:
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.NumCol(ci)
				n := 0
				for _, r := range sel {
					if col[r] > v {
						sel[n] = r
						n++
					}
				}
				return sel[:n]
			}, nil
		case OpGe:
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.NumCol(ci)
				n := 0
				for _, r := range sel {
					if col[r] >= v {
						sel[n] = r
						n++
					}
				}
				return sel[:n]
			}, nil
		default:
			return nil, fmt.Errorf("query: operator %s not supported on numeric column %q", c.Op, c.Col)
		}
	}
	codes, err := catCodeSet(c, d)
	if err != nil {
		return nil, err
	}
	neg := c.Op == OpNe
	switch len(codes) {
	case 0:
		// Every value is dictionary-unseen: != passes everything, =/IN
		// nothing.
		if neg {
			return func(_ *table.Partition, sel []int32, _ *scratch) []int32 {
				return sel
			}, nil
		}
		return func(_ *table.Partition, sel []int32, _ *scratch) []int32 {
			return sel[:0]
		}, nil
	case 1:
		want := singleCode(codes)
		if neg {
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.CatCol(ci)
				n := 0
				for _, r := range sel {
					if col[r] != want {
						sel[n] = r
						n++
					}
				}
				return sel[:n]
			}, nil
		}
		return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
			col := p.CatCol(ci)
			n := 0
			for _, r := range sel {
				if col[r] == want {
					sel[n] = r
					n++
				}
			}
			return sel[:n]
		}, nil
	default:
		lut := codeTable(codes, d)
		if neg {
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.CatCol(ci)
				n := 0
				for _, r := range sel {
					if c := col[r]; int(c) >= len(lut) || !lut[c] {
						sel[n] = r
						n++
					}
				}
				return sel[:n]
			}, nil
		}
		return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
			col := p.CatCol(ci)
			n := 0
			for _, r := range sel {
				if c := col[r]; int(c) < len(lut) && lut[c] {
					sel[n] = r
					n++
				}
			}
			return sel[:n]
		}, nil
	}
}

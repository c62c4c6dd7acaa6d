package query

import (
	"fmt"
	"math/bits"
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
// Every selection loop compacts without a branch: it writes the candidate row
// at the next free slot n unconditionally and advances n by the comparison's
// 0 or 1 (b2i). A loop that jumps on each row's outcome is mispredicted on a
// large share of rows whenever the pass rate is away from 0 and 1 and the
// rows are not sorted by the column; the branch-free loop costs the same at
// every pass rate. TestNoConditionalCompaction keeps it that way, with one
// exception: filterSelection's merge, which says why.
//
// Kernel contract:
//
//   - sel holds row indices in strictly ascending order.
//   - Child order of a conjunction is not part of the contract; selection
//     order is (see conj).
//   - A kernel compacts passing rows into sel in place, branch-free: row i's
//     candidate is written at n ≤ i after sel[i] has been read, and n
//     advances only if the row passes, so writes only move entries left and
//     the input selection is consumed.
//   - The returned slice is a prefix of sel, still in ascending order —
//     selection order is row order, which is what keeps downstream float
//     accumulation bit-identical to the row-at-a-time reference evaluator.
//   - Kernels are immutable and shareable across goroutines; all mutable
//     state lives in the per-evaluation scratch.
type kernel func(p *table.Partition, sel []int32, sc *scratch) []int32

// b2i is 1 for true and 0 for false. go1.24 lowers it to SETcc; MOVBLZX, no
// jump, which is what lets a selection loop advance its write index by a
// comparison's outcome.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// scratch holds the reusable buffers one partition evaluation needs. A
// steady-state scan allocates nothing per partition or per row: its partials
// are carved from the scratch's arenas (allocAccs), so it allocates a
// constant for the fan-out plus what its rendering builds — the Answer map
// of EstimateCtx, or the label-ordered groups and their one values slab of
// EstimateGroupsCtx, which is what the served path takes
// (TestEstimateGroupedAllocs, TestOrderedAllocsIndependentOfGroups). One
// scratch is owned by one goroutine at a time: parallel scans thread a
// scratch per worker (exec.MapWith), drawn like EvalPartition's from
// scratchPool (takeScratch). No buffer in a scratch belongs to a query — each
// is sized on use, and the group table is re-shaped by begin — and what does,
// the conjunction orders a scan learns, is reset where the scratch is taken.
type scratch struct {
	// sel is the primary selection vector, and ident the identity selection
	// fullSel copies into it; both are as long as the largest partition the
	// scratch has evaluated.
	sel   []int32
	ident []int32
	// selFree recycles temporary selection copies (OR/NOT/FILTER operands).
	// Depth is bounded by predicate nesting, so the freelist stays tiny.
	selFree [][]int32
	// markFree recycles row-mark buffers. Invariant: every buffer in the
	// freelist is all-false; users clear the marks they set before putMarks.
	markFree [][]bool
	// expr holds one expression value per selected row for the aggregate
	// shapes exprKernel.addInto does not fuse (see evalInto).
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
	// order holds, for every And node of the query being evaluated, the
	// order its children currently run in, and tallies what each child has
	// been given and has passed since resetOrder; see conj.
	order   []int32
	tallies []tally
	// encEvals counts the clause evaluations that ran on an encoded column
	// since the scratch was taken; release adds it to encodedEvals.
	encEvals int64
	// touched lists the columns the current partition evaluation was first
	// to touch (see touch); selectRows empties it.
	touched []int
}

// scratchPool recycles scratches across every compiled query of the process:
// one per call for EvalPartition, one per worker for EstimateCtx, GroundTruth
// and Selectivity. A query that is compiled, run once and dropped — ad-hoc
// traffic — therefore scans with buffers an earlier query warmed, and what the
// pool pins is bounded by trim per pooled scratch, not per cached query.
var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// takeScratch draws a scratch from the pool and readies it for c: no
// partials, and every conjunction in textual order with nothing tallied —
// the scratch may come straight from another query's scan.
func takeScratch(c *Compiled) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.resetPartials()
	sc.resetOrder(c)
	return sc
}

// release gives the scratch back to the pool, bounded by trim, and its
// encoded-evaluation count to the process total. Never deferred: a scratch
// whose kernel panicked is dropped, not pooled.
func (sc *scratch) release() {
	encodedEvals.Add(sc.encEvals)
	sc.encEvals = 0
	sc.trim()
	scratchPool.Put(sc)
}

// fullSel returns the identity selection [0, n) in the primary selection
// buffer, copied from the scratch's prefix of it, which grows to the largest
// partition the scratch has seen. A copy runs at memory speed; writing each
// index in a loop, on every partition, is measurable end to end (DESIGN.md,
// "One ordered-conjunction evaluator").
func (sc *scratch) fullSel(n int) []int32 {
	if len(sc.ident) < n {
		sc.ident = identity(make([]int32, n), n)
		sc.sel = make([]int32, n)
	}
	sel := sc.sel[:n]
	copy(sel, sc.ident)
	return sel
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

// exprBuf returns the expression value buffer, uninitialized.
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

// compiler lowers the predicate trees of one query — its WHERE clause and
// every FILTER — to kernels, numbering their And nodes as it meets them.
type compiler struct {
	schema *table.Schema
	dict   *table.Dict
	// textual is what a scratch's order array holds before the query has
	// scanned anything: the children of every And node as written, 0..n-1,
	// one node after the other.
	textual []int32
}

// conj is a compiled And node, evaluated in the order the scratch holds for
// it: a conjunction is an intersection and every kernel compacts in place in
// ascending row order, so any child order leaves the same selection — and
// everything downstream of it, bit for bit. What the order decides is work,
// so each evaluation records how many rows every child was given and how many
// it passed, and leaves the children sorted by that pass rate, lowest first,
// for the next partition. The order is per-evaluation state like every other
// buffer of the scratch; a conj is immutable.
type conj struct {
	// at is the node's first slot in scratch.order and scratch.tallies.
	at    int
	kerns []kernel
}

// tally is what a scratch has seen of one conjunction child since resetOrder.
type tally struct{ in, out uint64 }

// conj compiles an And node's children and gives the node its slots.
func (cc *compiler) conj(children []Pred) (*conj, error) {
	cj := &conj{at: len(cc.textual), kerns: make([]kernel, len(children))}
	for i := range children {
		cc.textual = append(cc.textual, int32(i))
	}
	for i, child := range children {
		k, err := cc.kernel(child)
		if err != nil {
			return nil, err
		}
		cj.kerns[i] = k
	}
	return cj, nil
}

// where compiles a WHERE predicate to the root conjunction selectRows narrows
// the identity selection through: an And node as it is, anything else as the
// one child of a conjunction, nil for no predicate.
func (cc *compiler) where(pred Pred) (*conj, error) {
	switch n := pred.(type) {
	case nil:
		return nil, nil
	case *And:
		return cc.conj(n.Children)
	default:
		return cc.conj([]Pred{pred})
	}
}

// narrow is the conjunction as a kernel: it narrows sel through the children
// in the current order, then re-sorts the order by what the tallies now say.
func (cj *conj) narrow(p *table.Partition, sel []int32, sc *scratch) []int32 {
	order := sc.order[cj.at:][:len(cj.kerns)]
	tallies := sc.tallies[cj.at:][:len(cj.kerns)]
	for _, k := range order {
		if len(sel) == 0 {
			break
		}
		t := &tallies[k]
		t.in += uint64(len(sel))
		sel = cj.kerns[k](p, sel, sc)
		t.out += uint64(len(sel))
	}
	sortByPassRate(order, tallies)
	return sel
}

// sortByPassRate orders a conjunction's children by observed pass rate,
// ascending: a stable insertion sort (the order is short and all but sorted
// already) that compares out/in as cross products, exactly. A child no row
// has reached yet has no rate; it keeps its position and the others sort
// around it.
func sortByPassRate(order []int32, tallies []tally) {
	for i := 1; i < len(order); i++ {
		c := order[i]
		tc := tallies[c]
		if tc.in == 0 {
			continue
		}
		at := i
		for j := i - 1; j >= 0; j-- {
			tj := tallies[order[j]]
			if tj.in == 0 {
				continue
			}
			// tc.out/tc.in < tj.out/tj.in, in 128 bits.
			chi, clo := bits.Mul64(tc.out, tj.in)
			jhi, jlo := bits.Mul64(tj.out, tc.in)
			if chi > jhi || chi == jhi && clo >= jlo {
				break
			}
			order[at] = order[j]
			at = j
		}
		order[at] = c
	}
}

// resetOrder puts every conjunction of c back in textual order with nothing
// tallied. A scratch is pooled across queries, so this runs wherever a scan
// or a single-partition call takes one — never between the partitions of a
// scan, which is where the order is learned.
func (sc *scratch) resetOrder(c *Compiled) {
	sc.order = append(sc.order[:0], c.textual...)
	sc.tallies = append(sc.tallies[:0], make([]tally, len(c.textual))...)
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

// kernel lowers a predicate tree to a selection kernel. A nil predicate
// compiles to a nil kernel, meaning "all rows pass" — callers skip the call
// instead of copying the identity selection through it.
func (cc *compiler) kernel(pred Pred) (kernel, error) {
	if pred == nil {
		return nil, nil
	}
	switch n := pred.(type) {
	case *And:
		cj, err := cc.conj(n.Children)
		if err != nil {
			return nil, err
		}
		return cj.narrow, nil
	case *Or:
		kerns := make([]kernel, len(n.Children))
		for i, child := range n.Children {
			k, err := cc.kernel(child)
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
				m := marks[r]
				marks[r] = false
				sel[n] = r
				n += b2i(m)
			}
			sc.putMarks(marks)
			return sel[:n]
		}, nil
	case *Not:
		k, err := cc.kernel(n.Child)
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
				m := marks[r]
				marks[r] = false
				sel[n] = r
				n += b2i(!m)
			}
			sc.putMarks(marks)
			return sel[:n]
		}, nil
	case *Clause:
		return compileClauseKernel(n, cc.schema, cc.dict)
	default:
		return nil, fmt.Errorf("query: unknown predicate node %T", pred)
	}
}

// compileClauseKernelRaw lowers one comparison clause to a column kernel
// over decoded slices — the frozen reference loops the encoded dispatch in
// enckernel.go falls back to. The loop is written out once per operator:
// one loop behind a comparison function would reintroduce a per-row indirect
// call, which is exactly what kernels exist to avoid. Every loop is in the b2i
// form — write the candidate, then n += b2i(pass) — and TestCompactionEdgeCases
// puts each to NaN, signed zeros, infinities and exactly-sized buffers.
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
					sel[n] = r
					n += b2i(col[r] == v)
				}
				return sel[:n]
			}, nil
		case OpNe:
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.NumCol(ci)
				n := 0
				for _, r := range sel {
					sel[n] = r
					n += b2i(col[r] != v)
				}
				return sel[:n]
			}, nil
		case OpLt:
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.NumCol(ci)
				n := 0
				for _, r := range sel {
					sel[n] = r
					n += b2i(col[r] < v)
				}
				return sel[:n]
			}, nil
		case OpLe:
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.NumCol(ci)
				n := 0
				for _, r := range sel {
					sel[n] = r
					n += b2i(col[r] <= v)
				}
				return sel[:n]
			}, nil
		case OpGt:
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.NumCol(ci)
				n := 0
				for _, r := range sel {
					sel[n] = r
					n += b2i(col[r] > v)
				}
				return sel[:n]
			}, nil
		case OpGe:
			return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
				col := p.NumCol(ci)
				n := 0
				for _, r := range sel {
					sel[n] = r
					n += b2i(col[r] >= v)
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
					sel[n] = r
					n += b2i(col[r] != want)
				}
				return sel[:n]
			}, nil
		}
		return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
			col := p.CatCol(ci)
			n := 0
			for _, r := range sel {
				sel[n] = r
				n += b2i(col[r] == want)
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
					c := col[r]
					sel[n] = r
					n += b2i(int(c) >= len(lut) || !lut[c])
				}
				return sel[:n]
			}, nil
		}
		return func(p *table.Partition, sel []int32, _ *scratch) []int32 {
			col := p.CatCol(ci)
			n := 0
			for _, r := range sel {
				c := col[r]
				sel[n] = r
				n += b2i(int(c) < len(lut) && lut[c])
			}
			return sel[:n]
		}, nil
	}
}

package query

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"ps3/internal/table"
)

// Encoded-space predicate evaluation. Partitions served from an encoded
// store (internal/store v2) keep their columns in the form the block arrived
// in; the clause compilers here wrap the raw reference loops with a
// per-partition dispatch that reads a column in the form the admission rule
// of the decode memo gives it (scratch.touch): encoded by the evaluation that
// first touches it, the memoized decoded slice through the raw loops from the
// next evaluation on, because a gather through EncodedCol.At costs several
// plain loads. What reads no row touches nothing:
//
//   - Frame-of-reference clauses are first put to the block header: every
//     value lies in [Min, Min+mask], which decides most comparisons for all
//     rows at once (forBounds) and on every scan. Otherwise, on the first
//     touch, equality rebases the constant into packed delta space (one
//     integer compare per row); ordered comparisons fuse the exact
//     reconstruction min+float64(delta) into the loop, which is
//     bit-identical to comparing the decoded value.
//   - Bit-packed dictionary codes compare against the clause's code(s) on
//     the first touch; a wanted code wider than the column's width is
//     settled without a row.
//   - Raw numeric columns are compared in place, from the block's bytes, on
//     the first touch.
//   - RLE runs are accepted or rejected wholesale, on every scan and without
//     a touch: the loop re-evaluates the clause only on run transitions.
//
// Every per-row outcome matches the raw loops exactly — the FoR
// reconstruction is exact by the encoding's 53-bit bound, a raw numeric value
// is the same 8 bytes either way, and dictionary codes are compared as the
// same uint32s the decoded column would hold — so in-place ascending
// compaction (the kernel contract) yields bit-identical selections, and
// everything downstream is unchanged. The per-row loops compact branch-free
// like the raw ones (b2i): the first touch of a column the header leaves
// open costs the same whatever share of rows passes; so does the run-length
// loop, whose outcome changes only at run ends.
//
// Each clause has one kernel, which narrows a selection: the root conjunction
// hands whichever clause runs first the identity selection (scratch.fullSel).

// encodedEvals is the process-wide total behind EncodedKernelEvals. Kernels
// count in their scratch (scratch.encEvals); a scratch adds its count here
// when it is given back (scratch.release), once per scan and worker rather
// than once per clause and partition on a cache line every core shares.
var encodedEvals atomic.Int64

// EncodedKernelEvals reports how many clause evaluations ran directly on an
// encoded column (no materialization) in the scans and single-partition
// evaluations that have returned since process start: the ones a column's
// first touch ran encoded, the ones its block header settled, and every
// run-length one. Tests assert it advances while the store's decode counters
// stay flat.
func EncodedKernelEvals() int64 { return encodedEvals.Load() }

// touch is the one admission rule of every column read in this package: it
// returns column c's encoded form if this evaluation of p is the first reader
// of the column's values (table.Partition.FirstTouch) — and, to every later
// read site of the same evaluation, the same encoded form again — and nil
// when the column is held decoded or an earlier evaluation read it, so the
// caller takes NumCol/CatCol. A touch therefore counts once per evaluation,
// not once per read site: a column that a clause, a FILTER and two
// aggregates of one evaluation read is decoded by none of them, only by the
// next scan of the partition, if there is one.
func (sc *scratch) touch(p *table.Partition, c int) *table.EncodedCol {
	if e := p.FirstTouch(c); e != nil {
		sc.touched = append(sc.touched, c)
		return e
	}
	if slices.Contains(sc.touched, c) {
		return p.EncCol(c)
	}
	return nil
}

// maxExactDelta is the FoR exactness bound: 2^53, above which float64 skips
// integers.
const maxExactDelta = float64(1 << 53)

// compileClauseKernel lowers one clause to a narrowing kernel with
// encoded-space dispatch layered over the raw reference loop.
func compileClauseKernel(c *Clause, s *table.Schema, d *table.Dict) (kernel, error) {
	raw, err := compileClauseKernelRaw(c, s, d)
	if err != nil {
		return nil, err
	}
	ci := s.ColIndex(c.Col)
	if s.Col(ci).IsNumeric() {
		op, v := c.Op, c.Num
		return func(p *table.Partition, sel []int32, sc *scratch) []int32 {
			switch e := p.EncCol(ci); {
			case e == nil:
			case e.Kind == table.EncFoR:
				if forDecided(e, op, v) || sc.touch(p, ci) != nil {
					sc.encEvals++
					return forKern(e, op, v, sel)
				}
			case sc.touch(p, ci) != nil:
				sc.encEvals++
				return rawNumKern(e, op, v, sel)
			}
			return raw(p, sel, sc)
		}, nil
	}
	cp, err := newCatPred(c, d)
	if err != nil {
		return nil, err
	}
	if cp == nil {
		return raw, nil
	}
	return func(p *table.Partition, sel []int32, sc *scratch) []int32 {
		switch e := p.EncCol(ci); {
		case e == nil:
		case e.Kind == table.EncBitPack:
			if cp.outOfWidth(e) || sc.touch(p, ci) != nil {
				sc.encEvals++
				return cp.bitpackKern(e, sel)
			}
		case e.Kind == table.EncRLE:
			sc.encEvals++
			return cp.rleKern(e, sel)
		}
		return raw(p, sel, sc)
	}, nil
}

// forTarget rebases an equality constant into packed delta space. ok is
// false when v cannot equal any encodable value — not a non-negative
// integral delta, or the exact reconstruction check min+float64(t) == v
// fails. When v IS some block value min+delta, v-min is exact (the result is
// an integer ≤ 2^53, so IEEE subtraction cannot round), so ok never yields a
// false negative.
func forTarget(e *table.EncodedCol, v float64) (uint64, bool) {
	dv := v - e.Min
	if !(dv >= 0) || dv > maxExactDelta || dv != math.Trunc(dv) {
		return 0, false
	}
	t := uint64(dv)
	if e.Min+float64(t) != v {
		return 0, false
	}
	return t, true
}

// forBounds puts (op, v) to a frame-of-reference column's header before any
// row is read. Every value of the column lies in [Min, Min+mask], so an
// ordered comparison that holds at the far end of that range holds for every
// row (all), and one that fails at the near end fails for every row (none);
// an equality constant that is no packed delta at all, or one beyond mask,
// matches no row, and on a zero-width column the one delta there is matches
// every row. The failing side is tested as !(lo < v), not lo >= v, so a NaN
// constant — for which every row comparison is false — comes out as none.
// The upper bound Min+float64(mask) may round once the sum passes 2^53;
// rounding is monotone and the column's real maximum is exact, so the bound
// only ever rounds to something still above it. For = and != that the header
// leaves open, t is the constant in delta space.
func forBounds(e *table.EncodedCol, op Op, v float64) (t uint64, all, none bool) {
	lo := e.Min
	hi := lo + float64(e.Mask())
	switch op {
	case OpEq, OpNe:
		var ok bool
		t, ok = forTarget(e, v)
		absent := !ok || t > e.Mask()
		constant := !absent && e.Mask() == 0
		if op == OpNe {
			return t, absent, constant
		}
		return t, constant, absent
	case OpLt:
		return 0, hi < v, !(lo < v)
	case OpLe:
		return 0, hi <= v, !(lo <= v)
	case OpGt:
		return 0, lo > v, !(hi > v)
	case OpGe:
		return 0, lo >= v, !(hi >= v)
	default:
		panic(fmt.Sprintf("query: unreachable numeric operator %v on encoded column", op))
	}
}

// forDecided reports whether the header settles (op, v) for every row of a
// frame-of-reference column, so that evaluating it reads no row.
func forDecided(e *table.EncodedCol, op Op, v float64) bool {
	_, all, none := forBounds(e, op, v)
	return all || none
}

// forKern narrows sel to the rows of a frame-of-reference column passing
// (op, v): decided from the header when it can be, otherwise by scanning
// packed deltas in place.
func forKern(e *table.EncodedCol, op Op, v float64, sel []int32) []int32 {
	t, all, none := forBounds(e, op, v)
	if none {
		return sel[:0]
	}
	if all {
		return sel
	}
	n := 0
	switch op {
	case OpEq:
		for _, r := range sel {
			sel[n] = r
			n += b2i(e.At(int(r)) == t)
		}
	case OpNe:
		for _, r := range sel {
			sel[n] = r
			n += b2i(e.At(int(r)) != t)
		}
	case OpLt:
		min := e.Min
		for _, r := range sel {
			sel[n] = r
			n += b2i(min+float64(e.At(int(r))) < v)
		}
	case OpLe:
		min := e.Min
		for _, r := range sel {
			sel[n] = r
			n += b2i(min+float64(e.At(int(r))) <= v)
		}
	case OpGt:
		min := e.Min
		for _, r := range sel {
			sel[n] = r
			n += b2i(min+float64(e.At(int(r))) > v)
		}
	case OpGe:
		min := e.Min
		for _, r := range sel {
			sel[n] = r
			n += b2i(min+float64(e.At(int(r))) >= v)
		}
	}
	return sel[:n]
}

// rawNumKern narrows sel to the rows of a raw numeric column passing (op, v),
// reading the values where the block holds them. The loops are the raw
// reference ladder's (compileClauseKernelRaw) with the load changed; see there
// for why they are written out.
func rawNumKern(e *table.EncodedCol, op Op, v float64, sel []int32) []int32 {
	n := 0
	switch op {
	case OpEq:
		for _, r := range sel {
			sel[n] = r
			n += b2i(e.Float(int(r)) == v)
		}
	case OpNe:
		for _, r := range sel {
			sel[n] = r
			n += b2i(e.Float(int(r)) != v)
		}
	case OpLt:
		for _, r := range sel {
			sel[n] = r
			n += b2i(e.Float(int(r)) < v)
		}
	case OpLe:
		for _, r := range sel {
			sel[n] = r
			n += b2i(e.Float(int(r)) <= v)
		}
	case OpGt:
		for _, r := range sel {
			sel[n] = r
			n += b2i(e.Float(int(r)) > v)
		}
	case OpGe:
		for _, r := range sel {
			sel[n] = r
			n += b2i(e.Float(int(r)) >= v)
		}
	default:
		panic(fmt.Sprintf("query: unreachable numeric operator %v on encoded column", op))
	}
	return sel[:n]
}

// catPred is a compiled categorical clause over dictionary codes: a single
// wanted code or a dense membership table, possibly negated. nil stands for
// the constant clause whose value set resolved empty.
type catPred struct {
	neg    bool
	single bool
	want   uint32
	lut    []bool
}

// newCatPred compiles the clause's value strings against the dictionary.
func newCatPred(c *Clause, d *table.Dict) (*catPred, error) {
	codes, err := catCodeSet(c, d)
	if err != nil {
		return nil, err
	}
	switch len(codes) {
	case 0:
		return nil, nil
	case 1:
		return &catPred{neg: c.Op == OpNe, single: true, want: singleCode(codes)}, nil
	default:
		return &catPred{neg: c.Op == OpNe, lut: codeTable(codes, d)}, nil
	}
}

// accept reports whether a dictionary code passes the clause. Used per run
// by the RLE kernels; the bit-packed loops inline the same logic.
func (cp *catPred) accept(code uint32) bool {
	var in bool
	if cp.single {
		in = code == cp.want
	} else {
		in = int(code) < len(cp.lut) && cp.lut[code]
	}
	return in != cp.neg
}

// outOfWidth reports whether the clause's one wanted code cannot appear at a
// bit-packed column's width, which settles the clause for every row.
func (cp *catPred) outOfWidth(e *table.EncodedCol) bool {
	return cp.single && uint64(cp.want) > e.Mask()
}

// bitpackKern narrows sel against a bit-packed column.
func (cp *catPred) bitpackKern(e *table.EncodedCol, sel []int32) []int32 {
	if cp.outOfWidth(e) {
		if !cp.neg {
			return sel[:0]
		}
		return sel
	}
	n := 0
	if cp.single {
		want := uint64(cp.want)
		if cp.neg {
			for _, r := range sel {
				sel[n] = r
				n += b2i(e.At(int(r)) != want)
			}
		} else {
			for _, r := range sel {
				sel[n] = r
				n += b2i(e.At(int(r)) == want)
			}
		}
		return sel[:n]
	}
	lut := cp.lut
	if cp.neg {
		for _, r := range sel {
			c := e.At(int(r))
			sel[n] = r
			n += b2i(c >= uint64(len(lut)) || !lut[c])
		}
	} else {
		for _, r := range sel {
			c := e.At(int(r))
			sel[n] = r
			n += b2i(c < uint64(len(lut)) && lut[c])
		}
	}
	return sel[:n]
}

// rleKern narrows sel against a run-length column, re-evaluating the clause
// only on run transitions. sel is ascending (kernel contract), so the run
// pointer advances monotonically.
func (cp *catPred) rleKern(e *table.EncodedCol, sel []int32) []int32 {
	n := 0
	ends := e.RunEnds
	run := 0
	cur := -1
	acc := false
	for _, r := range sel {
		for ends[run] <= r {
			run++
		}
		if run != cur {
			acc = cp.accept(e.RunVals[run])
			cur = run
		}
		sel[n] = r
		n += b2i(acc)
	}
	return sel[:n]
}

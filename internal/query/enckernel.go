package query

import (
	"fmt"
	"math"
	"sync/atomic"

	"ps3/internal/table"
)

// Encoded-space predicate evaluation. Partitions served from an encoded
// store (internal/store v2) keep their columns in the form the block arrived
// in; the clause compilers here wrap the raw reference loops with a
// per-partition dispatch that evaluates directly on the encoded
// representation when one is present:
//
//   - Bit-packed dictionary codes compare against the clause's code(s)
//     without materializing the column.
//   - RLE runs are accepted or rejected wholesale: the seed form emits whole
//     selection spans, the narrowing form re-evaluates only on run
//     transitions.
//   - Frame-of-reference clauses are first put to the block header: every
//     value lies in [Min, Min+mask], which decides most comparisons for all
//     rows at once (forBounds). Otherwise equality rebases the constant into
//     packed delta space (one integer compare per row); ordered comparisons
//     fuse the exact reconstruction min+float64(delta) into the loop, which
//     is bit-identical to comparing the decoded value.
//   - Raw numeric columns are compared in place, from the block's bytes, the
//     first time anything reads the column (table.Partition.FirstTouch);
//     after that the memoized decoded slice and the raw loops are as fast.
//
// Every per-row outcome matches the raw loops exactly — the FoR
// reconstruction is exact by the encoding's 53-bit bound, a raw numeric value
// is the same 8 bytes either way, and dictionary codes are compared as the
// same uint32s the decoded column would hold — so in-place ascending
// compaction (the kernel contract) yields bit-identical selections, and
// everything downstream is unchanged.

// encodedEvals is the process-wide total behind EncodedKernelEvals. Kernels
// count in their scratch (scratch.encEvals); a scratch adds its count here
// when it is given back (scratch.release), once per scan and worker rather
// than once per clause and partition on a cache line every core shares.
var encodedEvals atomic.Int64

// EncodedKernelEvals reports how many clause evaluations ran directly on an
// encoded column (no materialization) in the scans and single-partition
// evaluations that have returned since process start. Tests assert it
// advances while the store's decode counters stay flat.
func EncodedKernelEvals() int64 { return encodedEvals.Load() }

// maxExactDelta is the FoR exactness bound: 2^53, above which float64 skips
// integers.
const maxExactDelta = float64(1 << 53)

// compileClauseSeed lowers one clause to its fill form with encoded-space
// dispatch layered over the raw reference loop.
func compileClauseSeed(c *Clause, s *table.Schema, d *table.Dict) (seedKernel, error) {
	raw, err := compileClauseSeedRaw(c, s, d)
	if err != nil {
		return nil, err
	}
	ci := s.ColIndex(c.Col)
	if s.Col(ci).IsNumeric() {
		op, v := c.Op, c.Num
		return func(p *table.Partition, rows int, out []int32, sc *scratch) []int32 {
			if e := p.EncCol(ci); e != nil {
				if e.Kind == table.EncFoR {
					sc.encEvals++
					return forSeed(e, op, v, rows, out)
				}
				if p.FirstTouch(ci) != nil {
					sc.encEvals++
					return rawNumSeed(e, op, v, rows, out)
				}
			}
			return raw(p, rows, out, sc)
		}, nil
	}
	cp, err := newCatPred(c, d)
	if err != nil {
		return nil, err
	}
	if cp == nil {
		// Constant clause (no dictionary code matches): the raw closure
		// never touches the column, so there is nothing to short-circuit.
		return raw, nil
	}
	return func(p *table.Partition, rows int, out []int32, sc *scratch) []int32 {
		switch e := p.EncCol(ci); {
		case e == nil:
		case e.Kind == table.EncBitPack:
			sc.encEvals++
			return cp.bitpackSeed(e, rows, out)
		case e.Kind == table.EncRLE:
			sc.encEvals++
			return cp.rleSeed(e, out)
		}
		return raw(p, rows, out, sc)
	}, nil
}

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
			if e := p.EncCol(ci); e != nil {
				if e.Kind == table.EncFoR {
					sc.encEvals++
					return forKern(e, op, v, sel)
				}
				if p.FirstTouch(ci) != nil {
					sc.encEvals++
					return rawNumKern(e, op, v, sel)
				}
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
			sc.encEvals++
			return cp.bitpackKern(e, sel)
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

// forSeed fills out with the rows of a frame-of-reference column passing
// (op, v): decided from the header when it can be, otherwise by scanning
// packed deltas directly.
func forSeed(e *table.EncodedCol, op Op, v float64, rows int, out []int32) []int32 {
	t, all, none := forBounds(e, op, v)
	if none {
		return out[:0]
	}
	if all {
		return identity(out, rows)
	}
	n := 0
	switch op {
	case OpEq:
		for r := 0; r < rows; r++ {
			if e.At(r) == t {
				out[n] = int32(r)
				n++
			}
		}
	case OpNe:
		for r := 0; r < rows; r++ {
			if e.At(r) != t {
				out[n] = int32(r)
				n++
			}
		}
	// Ordered comparisons fuse the exact reconstruction into the loop:
	// min+float64(delta) is bit-identical to the decoded value, so the
	// comparison outcome matches the raw loop row for row.
	case OpLt:
		min := e.Min
		for r := 0; r < rows; r++ {
			if min+float64(e.At(r)) < v {
				out[n] = int32(r)
				n++
			}
		}
	case OpLe:
		min := e.Min
		for r := 0; r < rows; r++ {
			if min+float64(e.At(r)) <= v {
				out[n] = int32(r)
				n++
			}
		}
	case OpGt:
		min := e.Min
		for r := 0; r < rows; r++ {
			if min+float64(e.At(r)) > v {
				out[n] = int32(r)
				n++
			}
		}
	case OpGe:
		min := e.Min
		for r := 0; r < rows; r++ {
			if min+float64(e.At(r)) >= v {
				out[n] = int32(r)
				n++
			}
		}
	}
	return out[:n]
}

// forKern narrows sel to the rows of a frame-of-reference column passing
// (op, v), header first like forSeed.
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
			if e.At(int(r)) == t {
				sel[n] = r
				n++
			}
		}
	case OpNe:
		for _, r := range sel {
			if e.At(int(r)) != t {
				sel[n] = r
				n++
			}
		}
	case OpLt:
		min := e.Min
		for _, r := range sel {
			if min+float64(e.At(int(r))) < v {
				sel[n] = r
				n++
			}
		}
	case OpLe:
		min := e.Min
		for _, r := range sel {
			if min+float64(e.At(int(r))) <= v {
				sel[n] = r
				n++
			}
		}
	case OpGt:
		min := e.Min
		for _, r := range sel {
			if min+float64(e.At(int(r))) > v {
				sel[n] = r
				n++
			}
		}
	case OpGe:
		min := e.Min
		for _, r := range sel {
			if min+float64(e.At(int(r))) >= v {
				sel[n] = r
				n++
			}
		}
	}
	return sel[:n]
}

// rawNumSeed fills out with the rows of a raw numeric column passing (op, v),
// reading the values where the block holds them. The loops are the raw
// reference ladder's (compileClauseSeedRaw) with the load changed; see there
// for why they are written out.
func rawNumSeed(e *table.EncodedCol, op Op, v float64, rows int, out []int32) []int32 {
	n := 0
	switch op {
	case OpEq:
		for r := 0; r < rows; r++ {
			if e.Float(r) == v {
				out[n] = int32(r)
				n++
			}
		}
	case OpNe:
		for r := 0; r < rows; r++ {
			if e.Float(r) != v {
				out[n] = int32(r)
				n++
			}
		}
	case OpLt:
		for r := 0; r < rows; r++ {
			if e.Float(r) < v {
				out[n] = int32(r)
				n++
			}
		}
	case OpLe:
		for r := 0; r < rows; r++ {
			if e.Float(r) <= v {
				out[n] = int32(r)
				n++
			}
		}
	case OpGt:
		for r := 0; r < rows; r++ {
			if e.Float(r) > v {
				out[n] = int32(r)
				n++
			}
		}
	case OpGe:
		for r := 0; r < rows; r++ {
			if e.Float(r) >= v {
				out[n] = int32(r)
				n++
			}
		}
	default:
		panic(fmt.Sprintf("query: unreachable numeric operator %v on encoded column", op))
	}
	return out[:n]
}

// rawNumKern narrows sel to the rows of a raw numeric column passing (op, v),
// in place like rawNumSeed.
func rawNumKern(e *table.EncodedCol, op Op, v float64, sel []int32) []int32 {
	n := 0
	switch op {
	case OpEq:
		for _, r := range sel {
			if e.Float(int(r)) == v {
				sel[n] = r
				n++
			}
		}
	case OpNe:
		for _, r := range sel {
			if e.Float(int(r)) != v {
				sel[n] = r
				n++
			}
		}
	case OpLt:
		for _, r := range sel {
			if e.Float(int(r)) < v {
				sel[n] = r
				n++
			}
		}
	case OpLe:
		for _, r := range sel {
			if e.Float(int(r)) <= v {
				sel[n] = r
				n++
			}
		}
	case OpGt:
		for _, r := range sel {
			if e.Float(int(r)) > v {
				sel[n] = r
				n++
			}
		}
	case OpGe:
		for _, r := range sel {
			if e.Float(int(r)) >= v {
				sel[n] = r
				n++
			}
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

// bitpackSeed fills out with the rows of a bit-packed column passing the
// clause, comparing packed codes in place.
func (cp *catPred) bitpackSeed(e *table.EncodedCol, rows int, out []int32) []int32 {
	n := 0
	if cp.single {
		want := uint64(cp.want)
		if want > e.Mask() {
			// The wanted code cannot appear at this pack width.
			if !cp.neg {
				return out[:0]
			}
			return identity(out, rows)
		}
		if cp.neg {
			for r := 0; r < rows; r++ {
				if e.At(r) != want {
					out[n] = int32(r)
					n++
				}
			}
		} else {
			for r := 0; r < rows; r++ {
				if e.At(r) == want {
					out[n] = int32(r)
					n++
				}
			}
		}
		return out[:n]
	}
	lut := cp.lut
	if cp.neg {
		for r := 0; r < rows; r++ {
			if c := e.At(r); c >= uint64(len(lut)) || !lut[c] {
				out[n] = int32(r)
				n++
			}
		}
	} else {
		for r := 0; r < rows; r++ {
			if c := e.At(r); c < uint64(len(lut)) && lut[c] {
				out[n] = int32(r)
				n++
			}
		}
	}
	return out[:n]
}

// bitpackKern narrows sel against a bit-packed column.
func (cp *catPred) bitpackKern(e *table.EncodedCol, sel []int32) []int32 {
	n := 0
	if cp.single {
		want := uint64(cp.want)
		if want > e.Mask() {
			if !cp.neg {
				return sel[:0]
			}
			return sel
		}
		if cp.neg {
			for _, r := range sel {
				if e.At(int(r)) != want {
					sel[n] = r
					n++
				}
			}
		} else {
			for _, r := range sel {
				if e.At(int(r)) == want {
					sel[n] = r
					n++
				}
			}
		}
		return sel[:n]
	}
	lut := cp.lut
	if cp.neg {
		for _, r := range sel {
			if c := e.At(int(r)); c >= uint64(len(lut)) || !lut[c] {
				sel[n] = r
				n++
			}
		}
	} else {
		for _, r := range sel {
			if c := e.At(int(r)); c < uint64(len(lut)) && lut[c] {
				sel[n] = r
				n++
			}
		}
	}
	return sel[:n]
}

// rleSeed fills out with the rows of a run-length column passing the
// clause: one predicate evaluation per run, whole spans emitted wholesale.
func (cp *catPred) rleSeed(e *table.EncodedCol, out []int32) []int32 {
	n := 0
	start := int32(0)
	for i, v := range e.RunVals {
		end := e.RunEnds[i]
		if cp.accept(v) {
			for r := start; r < end; r++ {
				out[n] = r
				n++
			}
		}
		start = end
	}
	return out[:n]
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
		if acc {
			sel[n] = r
			n++
		}
	}
	return sel[:n]
}

package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"ps3/internal/table"
)

// accumRows gives 300 groups three rows each, and is odd.
const accumRows = 901

// colForm is the form an aggregate's input column is held in before any scan
// has read it.
type colForm uint8

const (
	formDecoded colForm = iota
	formFoR             // frame of reference, read encoded on its first touch
	formRaw             // raw numeric, read from the block's bytes on its first touch
)

func (f colForm) String() string {
	return [...]string{"decoded", "for", "raw"}[f]
}

// encodeNum encodes vals in form f, which must not be formDecoded.
func encodeNum(t *testing.T, f colForm, vals []float64) *table.EncodedCol {
	t.Helper()
	var e *table.EncodedCol
	var err error
	if f == formFoR {
		lo, hi := slices.Min(vals), slices.Max(vals)
		deltas := make([]uint64, len(vals))
		for r, v := range vals {
			deltas[r] = uint64(v - lo)
		}
		w := uint8(bits.Len64(uint64(hi - lo)))
		e, err = table.NewFoRCol(len(vals), lo, w, bitPack(deltas, w))
		if err == nil && !slices.Equal(e.DecodeNum(), vals) {
			t.Fatalf("frame of reference at %v does not hold %v", lo, vals)
		}
	} else {
		raw := make([]byte, 8*len(vals))
		for r, v := range vals {
			binary.LittleEndian.PutUint64(raw[8*r:], math.Float64bits(v))
		}
		e, err = table.NewRawNumCol(len(vals), raw)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAccumulateEdgeCases runs every accumulation shape — SUM and AVG,
// ungrouped and over 1, 3 and 300 groups, with and without FILTER, of
// expressions with 0 to 3 terms, constants 0, 1 and −0.75, coefficients ±1,
// 0.5 and −3 — over aggregate columns held decoded, frame-of-reference and
// raw, alone and mixed, each read on its first touch. Values include NaN,
// both zeros, both infinities, ±MaxFloat64, subnormals and integers up to
// 2^53, where the order of two additions decides the rounding. Every answer
// must be EvalPartitionReference's on the decoded twin, bit for bit, and an
// evaluation on a fresh scratch must leave the expression buffer unallocated
// exactly when its shape is fused: one term, or two decoded ones.
func TestAccumulateEdgeCases(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	const (
		d = formDecoded
		f = formFoR
		w = formRaw
	)
	valueSets := []struct {
		name  string
		pool  []float64
		forms [][3]colForm
	}{
		{"special", []float64{0, negZero, math.NaN(), 1.5, math.Inf(1), -2.25, math.Inf(-1), 4, negZero},
			[][3]colForm{{d, d, d}, {w, w, w}, {d, w, d}, {w, d, d}}},
		{"extreme", []float64{math.MaxFloat64, tiny, -math.MaxFloat64, negZero, -tiny, 3 * tiny, 0, -0.5, math.MaxFloat64 / 3},
			[][3]colForm{{d, d, d}, {w, w, w}, {d, w, d}}},
		{"integer", []float64{1, 1 << 53, 2, 1<<53 - 1, 3, 1<<52 + 1, 12, 7},
			[][3]colForm{{d, d, d}, {f, f, f}, {w, w, w}, {d, f, d}, {f, d, d}, {w, f, d}}},
	}

	groupVals := make([]string, 300)
	for i := range groupVals {
		groupVals[i] = fmt.Sprintf("g%d", i)
	}
	dict, err := table.DictFromValues(append(groupVals, "on", "off"))
	if err != nil {
		t.Fatal(err)
	}
	on, _ := dict.Lookup("on")
	off, _ := dict.Lookup("off")
	s := table.MustSchema(
		table.Column{Name: "x", Kind: table.Numeric},
		table.Column{Name: "y", Kind: table.Numeric},
		table.Column{Name: "z", Kind: table.Numeric},
		table.Column{Name: "g1", Kind: table.Categorical},
		table.Column{Name: "g3", Kind: table.Categorical},
		table.Column{Name: "g300", Kind: table.Categorical},
		table.Column{Name: "k", Kind: table.Categorical},
	)
	cats := make([][]uint32, s.NumCols())
	for i, groups := range []int{1, 3, 300} {
		codes := make([]uint32, accumRows)
		for r := range codes {
			codes[r], _ = dict.Lookup(groupVals[(37*r+r/7)%groups])
		}
		cats[3+i] = codes
	}
	cats[6] = make([]uint32, accumRows)
	for r := range cats[6] {
		cats[6][r] = off
		if r%3 != 1 {
			cats[6][r] = on
		}
	}

	var queries []*Query
	coefs := []float64{1, -1, 0.5, -3}
	for terms := 0; terms <= 3; terms++ {
		for shift := range coefs {
			if terms == 0 && shift > 0 {
				break
			}
			for _, konst := range []float64{0, 1, -0.75} {
				expr := LinearExpr{Const: konst}
				for j := 0; j < terms; j++ {
					expr.Terms = append(expr.Terms, Term{Col: string(rune('x' + j)), Coef: coefs[(j+shift)%len(coefs)]})
				}
				for _, kind := range []AggKind{Sum, Avg} {
					for _, groupBy := range [][]string{nil, {"g1"}, {"g3"}, {"g300"}} {
						for _, filter := range []Pred{nil, &Clause{Col: "k", Op: OpEq, Strs: []string{"on"}}} {
							queries = append(queries, &Query{
								GroupBy: groupBy,
								Aggs:    []Aggregate{{Kind: kind, Expr: expr, Filter: filter}, {Kind: Count}},
							})
						}
					}
				}
			}
		}
	}

	for _, set := range valueSets {
		nums := make([][]float64, s.NumCols())
		for c, step := range []int{3, 5, 7} {
			nums[c] = make([]float64, accumRows)
			for r := range nums[c] {
				nums[c][r] = set.pool[(step*r+c)%len(set.pool)]
			}
		}
		twin, err := table.MakePartition(s, 0, accumRows, nums, cats)
		if err != nil {
			t.Fatal(err)
		}
		src := &table.Table{Schema: s, Dict: dict, Parts: []*table.Partition{twin}}
		for _, q := range queries {
			c := mustCompile(t, q, src)
			want := c.EvalPartitionReference(twin)
			terms := len(q.Aggs[0].Expr.Terms)
			for _, forms := range set.forms {
				num := make([][]float64, s.NumCols())
				enc := make([]*table.EncodedCol, s.NumCols())
				for col, form := range forms {
					if form == formDecoded {
						num[col] = nums[col]
					} else {
						enc[col] = encodeNum(t, form, nums[col])
					}
				}
				fresh, err := table.MakeEncodedPartition(s, 0, accumRows, num, cats, enc, nil)
				if err != nil {
					t.Fatal(err)
				}
				sc := &scratch{}
				sc.resetOrder(c)
				label := fmt.Sprintf("%s values, columns %v: %s", set.name, forms, q)
				requireBitIdentical(t, label, c.evalAnswer(fresh, sc), want)
				fused := terms == 1 || terms == 2 && forms[0] == formDecoded && forms[1] == formDecoded
				if buffered := cap(sc.expr) > 0; buffered == fused {
					t.Fatalf("%s: expression buffer allocated %v, want %v", label, buffered, !fused)
				}
			}
		}
	}
}

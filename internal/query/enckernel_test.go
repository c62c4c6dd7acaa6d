package query

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ps3/internal/table"
)

// TestForBounds checks the header decision of a frame-of-reference clause
// case by case: what forBounds says about (op, v) for the whole column, and
// that the seed and narrowing kernels built on it select exactly the rows
// the row loop over the decoded values selects. decided lists, per operator
// in the order = != < <= > >=, whether the header must settle the clause
// ('a' every row, 'n' no row) or leave it to the loop ('-').
func TestForBounds(t *testing.T) {
	const top = float64(1 << 53)
	frame := []uint64{0, 15, 3, 9, 15, 0, 7, 1} // both ends of a 4-bit frame occur
	for _, tc := range []struct {
		name    string
		min     float64
		width   uint8
		deltas  []uint64
		v       float64
		decided string
	}{
		{"NaN", 10, 4, frame, math.NaN(), "nannnn"},
		{"+Inf", 10, 4, frame, math.Inf(1), "naaann"},
		{"-Inf", 10, 4, frame, math.Inf(-1), "nannaa"},
		{"exactly Min", 10, 4, frame, 10, "--n--a"},
		{"exactly Min+mask", 10, 4, frame, 25, "---an-"},
		{"inside the frame", 10, 4, frame, 17, "------"},
		{"fractional, inside", 10, 4, frame, 17.5, "na----"},
		{"below Min", 10, 4, frame, 9, "nannaa"},
		{"above Min+mask", 10, 4, frame, 26, "naaann"},
		{"negative frame", -40, 4, frame, -25, "---an-"},
		{"width 0, its value", 7, 0, make([]uint64, 8), 7, "annana"},
		{"width 0, above", 7, 0, make([]uint64, 8), 8, "naaann"},
		{"width 0, below", 7, 0, make([]uint64, 8), 6.5, "nannaa"},
		{"width 0, NaN", 7, 0, make([]uint64, 8), math.NaN(), "nannnn"},
		// Min+mask is 2^53+5: not a float64, and whichever neighbour the sum
		// rounds to, the bound must stay at or above the real maximum, 2^53.
		{"Min+mask past 2^53, at the real maximum", top - 10, 4, []uint64{0, 10, 4, 10}, top, "------"},
		{"Min+mask past 2^53, above the real maximum", top - 10, 4, []uint64{0, 10, 4, 10}, top + 2, "------"},
		{"Min+mask past 2^53, above the frame", top - 10, 4, []uint64{0, 10, 4, 10}, top + 8, "naaann"},
		{"Min+mask past 2^53, exactly Min", top - 10, 4, []uint64{0, 10, 4, 10}, top - 10, "--n--a"},
	} {
		rows := len(tc.deltas)
		e, err := table.NewFoRCol(rows, tc.min, tc.width, bitPack(tc.deltas, tc.width))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		col := e.DecodeNum()
		for i, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
			label := fmt.Sprintf("%s: x %s %v", tc.name, op, tc.v)
			var want []int32
			for r, x := range col {
				if [...]bool{x == tc.v, x != tc.v, x < tc.v, x <= tc.v, x > tc.v, x >= tc.v}[i] {
					want = append(want, int32(r))
				}
			}
			_, all, none := forBounds(e, op, tc.v)
			got := byte('-')
			switch {
			case all && none:
				t.Fatalf("%s: decided both ways", label)
			case all:
				got = 'a'
			case none:
				got = 'n'
			}
			if got != tc.decided[i] {
				t.Errorf("%s: header decision %q, want %q", label, got, tc.decided[i])
			}
			if all && len(want) != rows || none && len(want) != 0 {
				t.Errorf("%s: header says all=%v none=%v, the row loop passes %d of %d rows", label, all, none, len(want), rows)
			}
			if seed := forSeed(e, op, tc.v, rows, make([]int32, rows)); !slices.Equal(seed, want) {
				t.Errorf("%s: forSeed selects %v, the row loop %v", label, seed, want)
			}
			// Narrow the odd rows only, so "all" must mean "sel unchanged".
			var sel, wantOdd []int32
			for r := 1; r < rows; r += 2 {
				sel = append(sel, int32(r))
				if slices.Contains(want, int32(r)) {
					wantOdd = append(wantOdd, int32(r))
				}
			}
			if kern := forKern(e, op, tc.v, sel); !slices.Equal(kern, wantOdd) {
				t.Errorf("%s: forKern narrows the odd rows to %v, the row loop to %v", label, kern, wantOdd)
			}
		}
	}
}

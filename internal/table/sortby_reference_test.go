package table

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSortBy is the frozen SortBy: sort.SliceStable over (partition, row)
// references with a comparator that reads each value through the partition
// and compares categorical values as dictionary strings, then a row-at-a-time
// gather. SortBy must produce exactly its table.
func refSortBy(t *Table, numParts int, cols ...string) *Table {
	idx := make([]int, 0, len(cols))
	for _, name := range cols {
		idx = append(idx, t.Schema.ColIndex(name))
	}
	less := func(a, b rowRef) bool {
		pa, pb := t.Parts[a.part], t.Parts[b.part]
		for _, c := range idx {
			if t.Schema.Cols[c].IsNumeric() {
				va, vb := pa.NumCol(c)[a.row], pb.NumCol(c)[b.row]
				if va != vb {
					return va < vb
				}
			} else {
				va, vb := t.Dict.Value(pa.CatCol(c)[a.row]), t.Dict.Value(pb.CatCol(c)[b.row])
				if va != vb {
					return va < vb
				}
			}
		}
		return false
	}
	refs := t.rowRefs()
	sort.SliceStable(refs, func(i, j int) bool { return less(refs[i], refs[j]) })

	out := &Table{Schema: t.Schema, Dict: t.Dict}
	total := len(refs)
	base, extra := total/numParts, total%numParts
	start := 0
	for pi := 0; pi < numParts && start < total; pi++ {
		size := base
		if pi < extra {
			size++
		}
		if size == 0 {
			continue
		}
		num := make([][]float64, t.Schema.NumCols())
		cat := make([][]uint32, t.Schema.NumCols())
		for c, col := range t.Schema.Cols {
			if col.IsNumeric() {
				num[c] = make([]float64, size)
			} else {
				cat[c] = make([]uint32, size)
			}
		}
		for i := 0; i < size; i++ {
			ref := refs[start+i]
			src := t.Parts[ref.part]
			for c, col := range t.Schema.Cols {
				if col.IsNumeric() {
					num[c][i] = src.NumCol(c)[ref.row]
				} else {
					cat[c][i] = src.CatCol(c)[ref.row]
				}
			}
		}
		np, err := MakePartition(t.Schema, len(out.Parts), size, num, cat)
		if err != nil {
			panic(err)
		}
		out.Parts = append(out.Parts, np)
		start += size
	}
	return out
}

// sortFixture builds a table whose sort keys tie often: numeric values from
// {NaN, ±0, ±1, ±Inf, 2.5}, a dictionary whose code order is not its string
// order (and which holds the literal string "<bad code 99>"), and codes 57,
// 99 and 100 outside it, which Dict.Value renders as diagnostic strings.
func sortFixture(t *testing.T, rng *rand.Rand) *Table {
	t.Helper()
	schema := MustSchema(
		Column{Name: "x", Kind: Numeric},
		Column{Name: "cat", Kind: Categorical},
		Column{Name: "y", Kind: Numeric},
		Column{Name: "c2", Kind: Categorical},
	)
	dict, err := DictFromValues([]string{"pear", "apple", "<bad code 99>", "mango", "Zebra", "", "fig"})
	if err != nil {
		t.Fatal(err)
	}
	nums := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, -1, math.Inf(1), math.Inf(-1), 2.5}
	codes := []uint32{0, 1, 2, 3, 4, 5, 6, 57, 99, 100}
	tbl := &Table{Schema: schema, Dict: dict}
	for pi := 0; pi < 1+rng.Intn(6); pi++ {
		rows := rng.Intn(40)
		num := make([][]float64, schema.NumCols())
		cat := make([][]uint32, schema.NumCols())
		for c, col := range schema.Cols {
			if col.IsNumeric() {
				num[c] = make([]float64, rows)
				for r := range num[c] {
					num[c][r] = nums[rng.Intn(len(nums))]
				}
			} else {
				cat[c] = make([]uint32, rows)
				for r := range cat[c] {
					cat[c][r] = codes[rng.Intn(len(codes))]
				}
			}
		}
		p, err := MakePartition(schema, pi, rows, num, cat)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Parts = append(tbl.Parts, p)
	}
	return tbl
}

// sameTable fails unless got and want have the same partitions, row for row
// and bit for bit.
func sameTable(t *testing.T, what string, got, want *Table) {
	t.Helper()
	if len(got.Parts) != len(want.Parts) {
		t.Fatalf("%s: %d partitions, want %d", what, len(got.Parts), len(want.Parts))
	}
	for pi, gp := range got.Parts {
		wp := want.Parts[pi]
		if gp.ID != wp.ID || gp.Rows() != wp.Rows() {
			t.Fatalf("%s: partition %d is id %d with %d rows, want id %d with %d", what, pi, gp.ID, gp.Rows(), wp.ID, wp.Rows())
		}
		for c, col := range got.Schema.Cols {
			for r := 0; r < gp.Rows(); r++ {
				if col.IsNumeric() {
					if g, w := gp.NumCol(c)[r], wp.NumCol(c)[r]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: partition %d row %d column %s = %v, want %v", what, pi, r, col.Name, g, w)
					}
				} else if g, w := gp.CatCol(c)[r], wp.CatCol(c)[r]; g != w {
					t.Fatalf("%s: partition %d row %d column %s = code %d, want %d", what, pi, r, col.Name, g, w)
				}
			}
		}
	}
}

// TestSortByMatchesReference: the typed sort over precomputed keys lays out
// every table exactly as the string-comparing reference did, over tied,
// NaN, signed-zero and infinite keys, categorical string order against code
// order, and codes outside the dictionary.
func TestSortByMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sorts := [][]string{{"x"}, {"cat"}, {"cat", "x"}, {"x", "cat", "y"}, {"c2", "cat"}, {"y", "x", "c2", "cat"}}
	for trial := 0; trial < 40; trial++ {
		tbl := sortFixture(t, rng)
		for _, cols := range sorts {
			for _, parts := range []int{1, 3, 7, 500} {
				got, err := tbl.SortBy(parts, cols...)
				if err != nil {
					t.Fatal(err)
				}
				sameTable(t, "SortBy", got, refSortBy(tbl, parts, cols...))
			}
		}
	}
}

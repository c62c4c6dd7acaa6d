package table

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	if t != nil {
		t.Helper()
	}
	return MustSchema(
		Column{Name: "x", Kind: Numeric},
		Column{Name: "cat", Kind: Categorical},
		Column{Name: "d", Kind: Date},
	)
}

func buildTestTable(t *testing.T, rows, rowsPerPart int) *Table {
	if t != nil {
		t.Helper()
	}
	fatal := func(err error) {
		if err == nil {
			return
		}
		if t != nil {
			t.Fatal(err)
		}
		panic(err)
	}
	b, err := NewBuilder(testSchema(t), rowsPerPart)
	fatal(err)
	for i := 0; i < rows; i++ {
		num := []float64{float64(i), 0, float64(i % 7)}
		cat := []string{"", fmt.Sprintf("c%d", i%5), ""}
		fatal(b.Append(num, cat))
	}
	return b.Finish()
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "a"}, Column{Name: "a"}); err == nil {
		t.Error("duplicate column names should be rejected")
	}
	if _, err := NewSchema(Column{Name: ""}); err == nil {
		t.Error("empty column name should be rejected")
	}
	s := testSchema(t)
	if got := s.ColIndex("cat"); got != 1 {
		t.Errorf("ColIndex(cat) = %d, want 1", got)
	}
	if got := s.ColIndex("nope"); got != -1 {
		t.Errorf("ColIndex(nope) = %d, want -1", got)
	}
	numeric := 0
	for _, c := range s.Cols {
		if c.IsNumeric() {
			numeric++
		}
	}
	if numeric != 2 {
		t.Errorf("%d numeric columns, want 2 (numeric + date)", numeric)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Numeric: "numeric", Categorical: "categorical", Date: "date"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	c1 := d.Code("alpha")
	c2 := d.Code("beta")
	if c1 == c2 {
		t.Fatal("distinct values got the same code")
	}
	if d.Code("alpha") != c1 {
		t.Error("re-encoding a value must return its original code")
	}
	if got := d.Value(c2); got != "beta" {
		t.Errorf("Value(%d) = %q, want beta", c2, got)
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("Lookup of unseen value must report absence")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestBuilderPartitionSizes(t *testing.T) {
	tbl := buildTestTable(t, 1050, 100)
	if got := tbl.NumParts(); got != 11 {
		t.Fatalf("NumParts = %d, want 11 (10 full + 1 partial)", got)
	}
	if got := tbl.NumRows(); got != 1050 {
		t.Fatalf("NumRows = %d, want 1050", got)
	}
	if got := tbl.Parts[10].Rows(); got != 50 {
		t.Errorf("last partition has %d rows, want 50", got)
	}
	for i, p := range tbl.Parts {
		if p.ID != i {
			t.Errorf("partition %d has ID %d", i, p.ID)
		}
	}
}

func TestBuilderRejectsBadWidth(t *testing.T) {
	b, err := NewBuilder(testSchema(t), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]float64{1}, []string{"a"}); err == nil {
		t.Error("Append with wrong row width should fail")
	}
	if _, err := NewBuilder(testSchema(t), 0); err == nil {
		t.Error("NewBuilder with non-positive rowsPerPart should fail")
	}
}

// TestReadAccounting: Read answers every partition index outside the table
// with an error, not a panic.
func TestReadAccounting(t *testing.T) {
	tbl := buildTestTable(t, 300, 100)
	if _, err := tbl.Read(-1); err == nil {
		t.Error("Read(-1) should fail, not panic")
	}
	if _, err := tbl.Read(tbl.NumParts()); err == nil {
		t.Error("Read past the last partition should fail, not panic")
	}
}

func TestDictValueOutOfRange(t *testing.T) {
	d := NewDict()
	d.Code("only")
	if got := d.Value(7); got != "<bad code 7>" {
		t.Errorf("Value(7) = %q, want diagnostic value", got)
	}
	if got := d.Value(0); got != "only" {
		t.Errorf("Value(0) = %q, want %q", got, "only")
	}
}

func TestSizeBytes(t *testing.T) {
	tbl := buildTestTable(t, 100, 100)
	// 2 numeric cols × 8 bytes + 1 categorical × 4 bytes per row.
	want := 100 * (2*8 + 4)
	if got := tbl.Parts[0].SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	if got := tbl.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
}

func TestSortByNumeric(t *testing.T) {
	b, _ := NewBuilder(testSchema(t), 10)
	vals := []float64{5, 3, 9, 1, 7, 2, 8, 0, 6, 4}
	for _, v := range vals {
		_ = b.Append([]float64{v, 0, 0}, []string{"", "k", ""})
	}
	tbl := b.Finish()
	sorted, err := tbl.SortBy(2, "x")
	if err != nil {
		t.Fatal(err)
	}
	if sorted.NumParts() != 2 {
		t.Fatalf("NumParts = %d, want 2", sorted.NumParts())
	}
	var got []float64
	for _, p := range sorted.Parts {
		got = append(got, p.NumCol(0)...)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("not sorted: %v", got)
		}
	}
	if tbl.Parts[0].NumCol(0)[0] != 5 {
		t.Error("SortBy must not mutate the source table")
	}
}

func TestSortByCategorical(t *testing.T) {
	b, _ := NewBuilder(testSchema(t), 10)
	cats := []string{"pear", "apple", "mango", "apple", "fig"}
	for i, c := range cats {
		_ = b.Append([]float64{float64(i), 0, 0}, []string{"", c, ""})
	}
	tbl := b.Finish()
	sorted, err := tbl.SortBy(1, "cat")
	if err != nil {
		t.Fatal(err)
	}
	prev := ""
	for r := 0; r < sorted.Parts[0].Rows(); r++ {
		v := sorted.Dict.Value(sorted.Parts[0].CatCol(1)[r])
		if v < prev {
			t.Fatalf("categorical sort broken at row %d: %q < %q", r, v, prev)
		}
		prev = v
	}
}

func TestSortByUnknownColumn(t *testing.T) {
	tbl := buildTestTable(t, 10, 5)
	if _, err := tbl.SortBy(2, "missing"); err == nil {
		t.Error("SortBy on a missing column should fail")
	}
}

func TestShuffledPreservesMultiset(t *testing.T) {
	tbl := buildTestTable(t, 500, 50)
	shuf, err := tbl.Shuffled(7, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if shuf.NumRows() != 500 {
		t.Fatalf("shuffled table has %d rows, want 500", shuf.NumRows())
	}
	if shuf.NumParts() != 7 {
		t.Fatalf("shuffled table has %d parts, want 7", shuf.NumParts())
	}
	sumOrig, sumShuf := 0.0, 0.0
	for _, p := range tbl.Parts {
		for _, v := range p.NumCol(0) {
			sumOrig += v
		}
	}
	for _, p := range shuf.Parts {
		for _, v := range p.NumCol(0) {
			sumShuf += v
		}
	}
	if sumOrig != sumShuf {
		t.Errorf("shuffle changed content: sum %f vs %f", sumOrig, sumShuf)
	}
}

func TestRepartitionKeepsOrder(t *testing.T) {
	tbl := buildTestTable(t, 100, 10)
	re, err := tbl.Repartition(4)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumParts() != 4 {
		t.Fatalf("NumParts = %d, want 4", re.NumParts())
	}
	var got []float64
	for _, p := range re.Parts {
		got = append(got, p.NumCol(0)...)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("row order changed at %d: got %v", i, v)
		}
	}
}

func TestRelayoutInvalidParts(t *testing.T) {
	tbl := buildTestTable(t, 10, 5)
	if _, err := tbl.Repartition(0); err == nil {
		t.Error("Repartition(0) should fail")
	}
	if _, err := tbl.Repartition(-3); err == nil {
		t.Error("Repartition(-3) should fail")
	}
}

func TestRelayoutEmptyTable(t *testing.T) {
	empty := &Table{Schema: testSchema(t), Dict: NewDict()}
	for name, op := range map[string]func() (*Table, error){
		"Repartition": func() (*Table, error) { return empty.Repartition(4) },
		"SortBy":      func() (*Table, error) { return empty.SortBy(4, "x") },
		"Shuffled":    func() (*Table, error) { return empty.Shuffled(4, rand.New(rand.NewSource(1))) },
	} {
		got, err := op()
		if err != nil {
			t.Fatalf("%s on empty table: %v", name, err)
		}
		if got.NumParts() != 0 || got.NumRows() != 0 {
			t.Errorf("%s on empty table: %d parts / %d rows, want 0/0", name, got.NumParts(), got.NumRows())
		}
	}
}

func TestRepartitionMorePartsThanRows(t *testing.T) {
	tbl := buildTestTable(t, 5, 5)
	re, err := tbl.Repartition(10)
	if err != nil {
		t.Fatal(err)
	}
	// Only 5 rows exist: gather drops size-zero partitions, so the result
	// has 5 single-row partitions with dense IDs.
	if re.NumParts() != 5 {
		t.Fatalf("NumParts = %d, want 5 (no empty partitions)", re.NumParts())
	}
	for i, p := range re.Parts {
		if p.Rows() != 1 {
			t.Errorf("partition %d has %d rows, want 1", i, p.Rows())
		}
		if p.ID != i {
			t.Errorf("partition %d has ID %d, want dense IDs", i, p.ID)
		}
		if p.NumCol(0)[0] != float64(i) {
			t.Errorf("partition %d holds row %v, want %d (order preserved)", i, p.NumCol(0)[0], i)
		}
	}
}

func TestSortByMorePartsThanRows(t *testing.T) {
	b, _ := NewBuilder(testSchema(t), 10)
	for _, v := range []float64{3, 1, 2} {
		_ = b.Append([]float64{v, 0, 0}, []string{"", "k", ""})
	}
	sorted, err := b.Finish().SortBy(7, "x")
	if err != nil {
		t.Fatal(err)
	}
	if sorted.NumParts() != 3 || sorted.NumRows() != 3 {
		t.Fatalf("got %d parts / %d rows, want 3/3", sorted.NumParts(), sorted.NumRows())
	}
	for i, want := range []float64{1, 2, 3} {
		if got := sorted.Parts[i].NumCol(0)[0]; got != want {
			t.Errorf("sorted partition %d = %v, want %v", i, got, want)
		}
	}
}

func TestRelayoutSingleRowPartitions(t *testing.T) {
	// Source table already at one row per partition: every relayout op must
	// survive the minimal-partition shape.
	tbl := buildTestTable(t, 6, 1)
	if tbl.NumParts() != 6 {
		t.Fatalf("fixture has %d parts, want 6", tbl.NumParts())
	}
	re, err := tbl.Repartition(2)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumParts() != 2 || re.Parts[0].Rows() != 3 {
		t.Fatalf("Repartition(2) = %d parts × %d rows, want 2 × 3", re.NumParts(), re.Parts[0].Rows())
	}
	sorted, err := tbl.SortBy(6, "x")
	if err != nil {
		t.Fatal(err)
	}
	for i := range sorted.Parts {
		if got := sorted.Parts[i].NumCol(0)[0]; got != float64(i) {
			t.Errorf("sorted single-row partition %d = %v, want %d", i, got, i)
		}
	}
	shuf, err := tbl.Shuffled(6, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if shuf.NumRows() != 6 || shuf.NumParts() != 6 {
		t.Fatalf("Shuffled kept %d rows / %d parts, want 6/6", shuf.NumRows(), shuf.NumParts())
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := buildTestTable(t, 3, 3)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4 (header+3)", len(lines))
	}
	if lines[0] != "x,cat,d" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,c0,0" {
		t.Errorf("row 1 = %q", lines[1])
	}
}

// Property: relayout by any permutation preserves the multiset of rows.
func TestRelayoutPropertyPreservesRows(t *testing.T) {
	f := func(seed int64, partsIn uint8) bool {
		numParts := int(partsIn%20) + 1
		tbl := buildTestTable(nil, 200, 20)
		shuf, err := tbl.Shuffled(numParts, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		if shuf.NumRows() != 200 {
			return false
		}
		seen := make(map[float64]int)
		for _, p := range shuf.Parts {
			for _, v := range p.NumCol(0) {
				seen[v]++
			}
		}
		for i := 0; i < 200; i++ {
			if seen[float64(i)] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: dictionary codes round-trip for arbitrary strings.
func TestDictProperty(t *testing.T) {
	d := NewDict()
	f := func(s string) bool {
		c := d.Code(s)
		return d.Value(c) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

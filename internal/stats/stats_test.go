package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ps3/internal/query"
	"ps3/internal/table"
)

// buildTestTable creates a small table with one numeric column "x"
// (partition i holds values centered at i*10), one positive numeric column
// "y", and one categorical column "cat" whose value distribution varies per
// partition: partition 0 holds only "rare"; the rest mix "a" and "b".
func buildTestTable(t testing.TB, parts, rowsPer int) *table.Table {
	t.Helper()
	schema := table.MustSchema(
		table.Column{Name: "x", Kind: table.Numeric},
		table.Column{Name: "y", Kind: table.Numeric, Positive: true},
		table.Column{Name: "cat", Kind: table.Categorical},
	)
	b, err := table.NewBuilder(schema, rowsPer)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for p := 0; p < parts; p++ {
		for r := 0; r < rowsPer; r++ {
			x := float64(p*10) + rng.Float64()
			y := 1 + rng.Float64()*5
			cat := "a"
			if p == 0 {
				cat = "rare"
			} else if r%3 == 0 {
				cat = "b"
			}
			if err := b.Append([]float64{x, y, 0}, []string{"", "", cat}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Finish()
}

func buildStats(t testing.TB, tbl *table.Table) *TableStats {
	t.Helper()
	ts, err := Build(tbl, Options{GroupableCols: []string{"cat"}})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestBuildRejectsUnknownGroupableColumn(t *testing.T) {
	tbl := buildTestTable(t, 2, 10)
	if _, err := Build(tbl, Options{GroupableCols: []string{"nope"}}); err == nil {
		t.Fatal("want error for unknown groupable column")
	}
}

func TestBuildProducesStatsPerPartition(t *testing.T) {
	tbl := buildTestTable(t, 5, 20)
	ts := buildStats(t, tbl)
	if len(ts.Parts) != 5 {
		t.Fatalf("got %d partition stats, want 5", len(ts.Parts))
	}
	for i, ps := range ts.Parts {
		if ps.Rows != 20 {
			t.Fatalf("partition %d reports %d rows, want 20", i, ps.Rows)
		}
		if len(ps.Cols) != 3 {
			t.Fatalf("partition %d has %d column stats, want 3", i, len(ps.Cols))
		}
		// Numeric columns carry measures; categorical does not.
		if ps.Cols[0].Measures == nil || ps.Cols[1].Measures == nil {
			t.Fatalf("partition %d missing measures on numeric columns", i)
		}
		if ps.Cols[2].Measures != nil {
			t.Fatalf("partition %d has measures on a categorical column", i)
		}
		if ps.Cols[2].Dict == nil {
			t.Fatalf("partition %d missing exact dict on categorical column", i)
		}
	}
}

func TestMeasuresMatchData(t *testing.T) {
	tbl := buildTestTable(t, 3, 50)
	ts := buildStats(t, tbl)
	// Partition 2's x values are in [20, 21).
	m := ts.Parts[2].Cols[0].Measures
	if m.Min < 20 || m.Max >= 21 {
		t.Fatalf("partition 2 x range [%v, %v], want within [20,21)", m.Min, m.Max)
	}
	if mean := m.Mean(); mean < 20 || mean > 21 {
		t.Fatalf("partition 2 x mean %v out of range", mean)
	}
}

func TestGlobalHeavyHittersRanked(t *testing.T) {
	tbl := buildTestTable(t, 6, 30)
	ts := buildStats(t, tbl)
	ci := tbl.Schema.ColIndex("cat")
	hh := ts.GlobalHH[ci]
	if len(hh) == 0 {
		t.Fatal("no global heavy hitters for groupable column")
	}
	// "a" dominates the dataset → must be the first (most frequent) hitter.
	if got := tbl.Dict.Value(hh[0]); got != "a" {
		t.Fatalf("top global HH = %q, want \"a\"", got)
	}
}

func TestOccurrenceBitmapsDifferentiateRarePartition(t *testing.T) {
	tbl := buildTestTable(t, 6, 30)
	ts := buildStats(t, tbl)
	ci := tbl.Schema.ColIndex("cat")
	bm0 := ts.Parts[0].Bitmap[ci]
	bm1 := ts.Parts[1].Bitmap[ci]
	if bm0 == bm1 {
		t.Fatalf("partition 0 (only \"rare\") and partition 1 share bitmap %b", bm0)
	}
}

func TestFeatureSpaceLayout(t *testing.T) {
	tbl := buildTestTable(t, 4, 20)
	ts := buildStats(t, tbl)
	fs := ts.Space
	// 4 selectivity + 3 cols × 17 + bitmap bits.
	wantMin := 4 + 3*17
	if fs.Dim() < wantMin {
		t.Fatalf("feature dim %d < structural minimum %d", fs.Dim(), wantMin)
	}
	u, i, mn, mx := fs.SelectivitySlots()
	if u != 0 || i != 1 || mn != 2 || mx != 3 {
		t.Fatalf("selectivity slots = %d,%d,%d,%d", u, i, mn, mx)
	}
	for j, meta := range fs.Meta {
		if meta.Col >= 3 {
			t.Fatalf("meta[%d] references column %d beyond schema", j, meta.Col)
		}
	}
}

func TestFeaturesMaskUnusedColumns(t *testing.T) {
	tbl := buildTestTable(t, 4, 20)
	ts := buildStats(t, tbl)
	// Query uses only column x.
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}}}
	rows := ts.Features(q)
	if len(rows) != 4 {
		t.Fatalf("got %d feature rows, want 4", len(rows))
	}
	xIdx := tbl.Schema.ColIndex("x")
	for _, row := range rows {
		for j, meta := range ts.Space.Meta {
			if meta.Col >= 0 && meta.Col != xIdx && row[j] != 0 {
				t.Fatalf("feature %d (col %d, kind %v) not masked: %v", j, meta.Col, meta.Kind, row[j])
			}
		}
	}
}

func TestFeaturesNoPredicateSelectivityIsOne(t *testing.T) {
	tbl := buildTestTable(t, 4, 20)
	ts := buildStats(t, tbl)
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}}
	rows := ts.Features(q)
	for i, row := range rows {
		if row[0] != 1 || row[1] != 1 {
			t.Fatalf("partition %d selectivity upper/indep = %v/%v, want 1/1 with no predicate", i, row[0], row[1])
		}
	}
}

func TestSelectivityUpperPerfectRecall(t *testing.T) {
	// §3.2: selectivity_upper > 0 must never be false-negative. Check across
	// many random predicates against exact per-partition pass counts.
	tbl := buildTestTable(t, 8, 40)
	ts := buildStats(t, tbl)
	gen, err := query.NewGenerator(query.Workload{
		GroupableCols: []string{"cat"},
		PredicateCols: []string{"x", "y", "cat"},
		AggCols:       []string{"x", "y"},
	}, tbl, 99)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		q := gen.Sample()
		c, err := query.Compile(q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		rows := ts.Features(q)
		_, perPart := c.GroundTruth(tbl)
		for i, pa := range perPart {
			hasRows := len(pa.Groups) > 0
			if hasRows && rows[i][0] <= 0 {
				t.Fatalf("query %v: partition %d has matching rows but selectivity_upper = %v",
					q, i, rows[i][0])
			}
		}
	}
}

func TestSelectivityOrderingInvariants(t *testing.T) {
	// min ≤ indep ≤ upper and all within [0,1] for random predicates.
	tbl := buildTestTable(t, 6, 40)
	ts := buildStats(t, tbl)
	gen, err := query.NewGenerator(query.Workload{
		GroupableCols: []string{"cat"},
		PredicateCols: []string{"x", "y", "cat"},
		AggCols:       []string{"x"},
	}, tbl, 5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 80; trial++ {
		q := gen.Sample()
		if q.Pred == nil {
			continue
		}
		rows := ts.Features(q)
		for i, row := range rows {
			up, ind, mn, mx := row[0], row[1], row[2], row[3]
			for slot, v := range []float64{up, ind, mn, mx} {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("query %v partition %d selectivity slot %d out of [0,1]: %v", q, i, slot, v)
				}
			}
			if mn > mx+1e-12 {
				t.Fatalf("query %v partition %d: selectivity_min %v > selectivity_max %v", q, i, mn, mx)
			}
		}
	}
}

func TestNormalizeWithoutFitAppliesTransformOnly(t *testing.T) {
	tbl := buildTestTable(t, 3, 10)
	ts := buildStats(t, tbl)
	// Slot 0 is a selectivity slot (cube root), slot 4 a measure (log1p).
	if got := ts.Space.NormalizeValue(0, 0.8); math.Abs(got-math.Cbrt(0.8)) > 1e-12 {
		t.Fatalf("selectivity transform = %v, want cbrt", got)
	}
	if got := ts.Space.NormalizeValue(4, 100); math.Abs(got-math.Log1p(100)) > 1e-12 {
		t.Fatalf("measure transform = %v, want log1p", got)
	}
}

func TestNormalizeNegativeValuesSignedLog(t *testing.T) {
	tbl := buildTestTable(t, 3, 10)
	ts := buildStats(t, tbl)
	if got := ts.Space.NormalizeValue(4, -100); math.Abs(got+math.Log1p(100)) > 1e-12 {
		t.Fatalf("negative transform = %v, want -log1p(100)", got)
	}
}

func TestFitScalesFeatures(t *testing.T) {
	tbl := buildTestTable(t, 6, 30)
	ts := buildStats(t, tbl)
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}}}
	rows := ts.Features(q)
	ts.Space.Fit(rows)
	if ts.Space.Scale == nil {
		t.Fatal("Fit did not set Scale")
	}
	for j, s := range ts.Space.Scale {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("scale[%d] = %v", j, s)
		}
	}
	// Paper normalization: each feature divided by its training average, so
	// the normalized mean magnitude of an active feature is ≈1.
	xIdx := tbl.Schema.ColIndex("x")
	slot := -1
	for j, meta := range ts.Space.Meta {
		if meta.Col == xIdx && meta.Kind == KMean {
			slot = j
		}
	}
	if slot < 0 {
		t.Fatal("x mean slot not found")
	}
	var sumAbs float64
	for _, r := range rows {
		sumAbs += math.Abs(ts.Space.NormalizeValue(slot, r[slot]))
	}
	if mean := sumAbs / float64(len(rows)); math.Abs(mean-1) > 1e-9 {
		t.Fatalf("normalized x-mean magnitude = %v, want 1", mean)
	}
}

func TestSizesPositiveAndAdditive(t *testing.T) {
	tbl := buildTestTable(t, 5, 40)
	ts := buildStats(t, tbl)
	b := ts.Sizes()
	if b.Total <= 0 || b.Histogram <= 0 || b.HH <= 0 || b.AKMV <= 0 || b.Measure <= 0 {
		t.Fatalf("size breakdown has non-positive entries: %+v", b)
	}
	if math.Abs(b.Total-(b.Histogram+b.HH+b.AKMV+b.Measure)) > 1e-9 {
		t.Fatalf("total %v != sum of parts %+v", b.Total, b)
	}
}

func TestKindStringAndCategoryTotal(t *testing.T) {
	for _, k := range AllKinds() {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
		c := CategoryOf(k)
		if c.String() == "" {
			t.Fatalf("category of %v has empty name", k)
		}
	}
	if len(AllKinds()) != int(numKinds) {
		t.Fatalf("AllKinds returned %d kinds, want %d", len(AllKinds()), numKinds)
	}
}

func TestCategoryAssignments(t *testing.T) {
	cases := map[Kind]Category{
		KSelUpper: CatSelectivity,
		KSelMax:   CatSelectivity,
		KBitmap:   CatHH,
		KNumHH:    CatHH,
		KNumDV:    CatDV,
		KSumDV:    CatDV,
		KMean:     CatMeasure,
		KLogMax:   CatMeasure,
	}
	for k, want := range cases {
		if got := CategoryOf(k); got != want {
			t.Fatalf("CategoryOf(%v) = %v, want %v", k, got, want)
		}
	}
}

func TestIdenticalPartitionsGetIdenticalFeatures(t *testing.T) {
	// Two partitions with identical content must produce identical feature
	// vectors (§4.2: identical partitions have identical summary statistics).
	schema := table.MustSchema(
		table.Column{Name: "v", Kind: table.Numeric},
		table.Column{Name: "c", Kind: table.Categorical},
	)
	b, err := table.NewBuilder(schema, 10)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		for r := 0; r < 10; r++ {
			if err := b.Append([]float64{float64(r), 0}, []string{"", fmt.Sprint(r % 3)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tbl := b.Finish()
	ts, err := Build(tbl, Options{GroupableCols: []string{"c"}})
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{
		Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("v")}},
		Pred: &query.Clause{Col: "v", Op: query.OpGe, Num: 3},
	}
	rows := ts.Features(q)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for j := range rows[0] {
		if rows[0][j] != rows[1][j] {
			t.Fatalf("identical partitions differ at feature %d (%v): %v vs %v",
				j, ts.Space.Meta[j].Kind, rows[0][j], rows[1][j])
		}
	}
}

func TestFeatureMatrixDimensionsProperty(t *testing.T) {
	tbl := buildTestTable(t, 5, 20)
	ts := buildStats(t, tbl)
	gen, err := query.NewGenerator(query.Workload{
		GroupableCols: []string{"cat"},
		PredicateCols: []string{"x", "y", "cat"},
		AggCols:       []string{"x", "y"},
	}, tbl, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(n uint8) bool {
		q := gen.Sample()
		rows := ts.Features(q)
		if len(rows) != 5 {
			return false
		}
		for _, r := range rows {
			if len(r) != ts.Space.Dim() {
				return false
			}
			for _, v := range r {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildParallelismMatchesSerial(t *testing.T) {
	tbl := buildTestTable(t, 8, 25)
	a, err := Build(tbl, Options{GroupableCols: []string{"cat"}, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(tbl, Options{GroupableCols: []string{"cat"}, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}, GroupBy: []string{"cat"}}
	ra, rb := a.Features(q), b.Features(q)
	for i := range ra {
		for j := range ra[i] {
			if ra[i][j] != rb[i][j] {
				t.Fatalf("parallel build differs at part %d feature %d", i, j)
			}
		}
	}
}

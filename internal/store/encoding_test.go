package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ps3/internal/exec"
	"ps3/internal/query"
	"ps3/internal/stats"
	"ps3/internal/table"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate the checked-in golden store files")

// encFixture builds a table that makes the chooser exercise every encoding:
// "f" is noisy fractional floats (stays raw), "n" is small integers (FoR),
// "cat" is a low-cardinality shuffled categorical (bit-packed), and "run" is
// a clustered categorical (RLE).
func encFixture(t testing.TB, rows, rowsPerPart int, seed int64) *table.Table {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "f", Kind: table.Numeric},
		table.Column{Name: "n", Kind: table.Numeric},
		table.Column{Name: "cat", Kind: table.Categorical},
		table.Column{Name: "run", Kind: table.Categorical},
	)
	b, err := table.NewBuilder(s, rowsPerPart)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	cats := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"}
	runs := []string{"r0", "r1", "r2"}
	for i := 0; i < rows; i++ {
		num := []float64{
			rng.NormFloat64()*1e3 + 0.5, // fractional: defeats FoR
			float64(rng.Intn(4096)),     // integral, 12-bit range: FoR
			0, 0,
		}
		cat := []string{"", "", cats[rng.Intn(len(cats))], runs[(i/64)%len(runs)]}
		if err := b.Append(num, cat); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

// materialize loads every partition of r as a table, keeping encoded columns
// encoded (Materialize preserves the partitions the reader decodes).
func materialize(t testing.TB, r *Reader) *table.Table {
	t.Helper()
	tbl, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestEncFixtureCoversAllEncodings guards the equivalence suite against
// becoming vacuous: the fixture must actually produce raw, FoR, bit-packed
// and RLE columns, or a chooser regression could silently fall back to raw
// everywhere and every "equivalence" below would be trivially true. A raw
// numeric column is a view of its block bytes until something touches it,
// and is charged to the cache at its decoded width either way.
func TestEncFixtureCoversAllEncodings(t *testing.T) {
	// 100-row partitions straddle the 64-row run boundaries, so the run
	// column has 2-3 runs per partition and RLE beats bit-packing; with
	// run-aligned partitions every block would be constant and bit-packing's
	// 1-byte-width representation would win instead.
	tbl := encFixture(t, 1600, 100, 17)
	r := openStore(t, writeStore(t, tbl), -1)
	s := r.TableSchema()
	kinds := make(map[string]table.EncKind)
	var charged int64
	for pi := 0; pi < r.NumParts(); pi++ {
		p, err := r.loadBlock(pi)
		if err != nil {
			t.Fatal(err)
		}
		for c, col := range s.Cols {
			if e := p.EncCol(c); e != nil {
				kinds[col.Name] = e.Kind
			}
			if p.EncCol(c) == nil {
				t.Errorf("partition %d column %q is decoded at load; every encoding in this fixture is a view or a run list", pi, col.Name)
			}
		}
		if e := p.EncCol(0); e.EncodedBytes() != 8*p.Rows() {
			t.Errorf("partition %d: raw numeric view charges %d bytes, its decoded width is %d", pi, e.EncodedBytes(), 8*p.Rows())
		}
		before := p.EncodedSizeBytes()
		requireSamePartition(t, tbl.Parts[pi], p, pi) // touches every column
		if p.EncodedSizeBytes() != before {
			t.Errorf("partition %d: materializing its columns moved the cache charge from %d to %d", pi, before, p.EncodedSizeBytes())
		}
		charged += int64(before)
	}
	// What the cache charged for this fixture when raw numeric columns were
	// decoded at load: the charge is part of the cache's behaviour (budgets,
	// hit rates), so it is pinned to the byte.
	if charged != 16544 {
		t.Errorf("fixture charges the cache %d bytes in all, want 16544", charged)
	}
	if kinds["f"] != table.EncRawNum {
		t.Errorf("fractional column f held as %v, want rawnum", kinds["f"])
	}
	if kinds["n"] != table.EncFoR {
		t.Errorf("column n encoded as %v, want for", kinds["n"])
	}
	if kinds["cat"] != table.EncBitPack {
		t.Errorf("column cat encoded as %v, want bitpack", kinds["cat"])
	}
	if kinds["run"] != table.EncRLE {
		t.Errorf("column run encoded as %v, want rle", kinds["run"])
	}
}

// handQueries covers every predicate shape the encoded kernels dispatch on:
// all six comparison ops against the FoR column (including non-representable
// and out-of-frame constants), equality/IN/negation on the bit-packed and
// RLE columns, and combinations that force partial decode.
func handQueries() []*query.Query {
	count := []query.Aggregate{{Kind: query.Count}}
	sumF := []query.Aggregate{{Kind: query.Sum, Expr: query.Col("f")}}
	qs := []*query.Query{
		{Aggs: sumF}, // no predicate at all
		{Aggs: count, Pred: &query.Clause{Col: "n", Op: query.OpEq, Num: 1024}},
		{Aggs: count, Pred: &query.Clause{Col: "n", Op: query.OpNe, Num: 7}},
		{Aggs: count, Pred: &query.Clause{Col: "n", Op: query.OpLt, Num: 100}},
		{Aggs: count, Pred: &query.Clause{Col: "n", Op: query.OpLe, Num: 99.5}},
		{Aggs: count, Pred: &query.Clause{Col: "n", Op: query.OpGt, Num: 4000}},
		{Aggs: count, Pred: &query.Clause{Col: "n", Op: query.OpGe, Num: -3}},
		// Constants the frame cannot represent: fractional, negative, huge.
		{Aggs: count, Pred: &query.Clause{Col: "n", Op: query.OpEq, Num: 10.5}},
		{Aggs: count, Pred: &query.Clause{Col: "n", Op: query.OpEq, Num: -2}},
		{Aggs: count, Pred: &query.Clause{Col: "n", Op: query.OpEq, Num: 1e18}},
		{Aggs: count, Pred: &query.Clause{Col: "cat", Op: query.OpEq, Strs: []string{"c3"}}},
		{Aggs: count, Pred: &query.Clause{Col: "cat", Op: query.OpNe, Strs: []string{"c0"}}},
		{Aggs: count, Pred: &query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"c1", "c5", "c8"}}},
		{Aggs: count, Pred: &query.Clause{Col: "cat", Op: query.OpEq, Strs: []string{"absent"}}},
		{Aggs: count, Pred: &query.Clause{Col: "run", Op: query.OpEq, Strs: []string{"r1"}}},
		{Aggs: count, Pred: &query.Clause{Col: "run", Op: query.OpIn, Strs: []string{"r0", "r2"}}},
		{Aggs: count, Pred: &query.Not{Child: &query.Clause{Col: "run", Op: query.OpEq, Strs: []string{"r2"}}}},
		// Conjunctions and disjunctions that mix encodings, plus aggregates
		// that force the raw column (and only it) to materialize.
		{
			Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("f").Add(query.Col("n"))}},
			Pred: query.NewAnd(
				&query.Clause{Col: "n", Op: query.OpGe, Num: 1000},
				&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"c2", "c4"}},
			),
		},
		{
			Aggs: []query.Aggregate{{Kind: query.Avg, Expr: query.Col("n")}, {Kind: query.Count}},
			Pred: query.NewOr(
				&query.Clause{Col: "f", Op: query.OpLt, Num: 0},
				&query.Clause{Col: "run", Op: query.OpEq, Strs: []string{"r0"}},
			),
			GroupBy: []string{"cat"},
		},
		{
			Aggs: []query.Aggregate{
				{Kind: query.Sum, Expr: query.Col("f")},
				{Kind: query.Count, Filter: &query.Clause{Col: "cat", Op: query.OpEq, Strs: []string{"c6"}}},
			},
			Pred:    &query.Clause{Col: "n", Op: query.OpLt, Num: 2048},
			GroupBy: []string{"run"},
		},
	}
	return qs
}

func requireSameAnswer(t *testing.T, label string, want, got *query.Answer) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(want.Groups))
	}
	for g, wv := range want.Groups {
		gv, ok := got.Groups[g]
		if !ok {
			t.Fatalf("%s: missing group %x", label, g)
		}
		for j := range wv {
			if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) {
				t.Fatalf("%s: group %x comp %d: %v (bits %x) != %v (bits %x)",
					label, g, j, gv[j], math.Float64bits(gv[j]), wv[j], math.Float64bits(wv[j]))
			}
		}
	}
}

// TestEncodedVsRawQueryEquivalence is the acceptance suite for the encoded
// kernels: the same table written raw (v1) and encoded (v2) must produce
// bit-identical Estimate, GroundTruth and Selectivity results for hand-
// written and generator-sampled queries, across parallelism levels, with
// both readers thrashing their caches so decode happens mid-scan. Every
// query also runs twice over a freshly loaded copy of every partition —
// cold, where aggregates and group keys are read in encoded form, then warm,
// where the same columns are decoded and memoized. Runs under -race via
// `make race`.
func TestEncodedVsRawQueryEquivalence(t *testing.T) {
	tbl := encFixture(t, 1600, 100, 17)
	rawData := writeStoreRaw(t, tbl)
	encData := writeStore(t, tbl)
	rawSize := encodedPartSize(t, openStore(t, rawData, -1), 0)
	encSize := encodedPartSize(t, openStore(t, encData, -1), 0)
	rawR := openStore(t, rawData, 3*rawSize) // thrash: evictions mid-scan
	encR := openStore(t, encData, 3*encSize)
	rawTbl := materialize(t, rawR) // decoded partitions: the frozen reference

	queries := handQueries()
	gen, err := query.NewGenerator(query.Workload{
		GroupableCols: []string{"cat", "run"},
		PredicateCols: []string{"f", "n", "cat", "run"},
		AggCols:       []string{"f", "n"},
	}, tbl, 99)
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, gen.SampleN(25)...)

	sel := []query.WeightedPartition{
		{Part: 0, Weight: 2.5}, {Part: 3, Weight: 1.25}, {Part: 7, Weight: 3},
		{Part: 9, Weight: 0.5}, {Part: 15, Weight: 7},
	}
	levels := []int{1, 3, runtime.GOMAXPROCS(0)}
	base := query.EncodedKernelEvals()
	for qi, q := range queries {
		cRaw, err := query.Compile(q, rawR)
		if err != nil {
			t.Fatalf("query %d (%s): %v", qi, q, err)
		}
		cEnc, err := query.Compile(q, encR)
		if err != nil {
			t.Fatalf("query %d (%s): %v", qi, q, err)
		}
		if sv, ev := cRaw.Selectivity(rawTbl), cEnc.Selectivity(materialize(t, encR)); math.Float64bits(sv) != math.Float64bits(ev) {
			t.Fatalf("query %d (%s): selectivity %v raw vs %v encoded", qi, q, sv, ev)
		}
		for _, par := range levels {
			label := fmt.Sprintf("query %d (%s) par %d", qi, q, par)
			cRaw.Exec = exec.Options{Parallelism: par}
			cEnc.Exec = exec.Options{Parallelism: par}
			want, err := cRaw.EstimateCtx(context.Background(), rawR, sel)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cEnc.EstimateCtx(context.Background(), encR, sel)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAnswer(t, label+" estimate", want, got)

			wantTotal, wantPer := cRaw.GroundTruth(rawTbl)
			encTbl := materialize(t, encR) // encoded partitions nothing has read
			for _, touch := range []string{" cold", " warm"} {
				gotTotal, gotPer := cEnc.GroundTruth(encTbl)
				requireSameAnswer(t, label+touch+" ground truth", wantTotal, gotTotal)
				if len(wantPer) != len(gotPer) {
					t.Fatalf("%s: %d per-partition answers, want %d", label, len(gotPer), len(wantPer))
				}
				for pi := range wantPer {
					requireSameAnswer(t, fmt.Sprintf("%s%s part %d", label, touch, pi), wantPer[pi], gotPer[pi])
				}
			}
		}
	}
	if query.EncodedKernelEvals() == base {
		t.Fatal("equivalence suite never dispatched an encoded kernel — the encoded path went untested")
	}
}

// TestCatPredicateEvaluatesWithoutDecode is the no-decode proof from the
// acceptance contract: a dictionary-equality (and IN) predicate under a
// Count aggregate must answer correctly from the encoded representation with
// zero lazy column materializations, observed via the reader's decode
// counter; the encoded-kernel counter must advance.
func TestCatPredicateEvaluatesWithoutDecode(t *testing.T) {
	tbl := encFixture(t, 800, 100, 5)
	r := openStore(t, writeStore(t, tbl), -1)
	sel := make([]query.WeightedPartition, tbl.NumParts())
	for i := range sel {
		sel[i] = query.WeightedPartition{Part: i, Weight: 1}
	}
	for _, q := range []*query.Query{
		{Aggs: []query.Aggregate{{Kind: query.Count}},
			Pred: &query.Clause{Col: "cat", Op: query.OpEq, Strs: []string{"c3"}}},
		{Aggs: []query.Aggregate{{Kind: query.Count}},
			Pred: &query.Clause{Col: "run", Op: query.OpIn, Strs: []string{"r0", "r2"}}},
	} {
		base := query.EncodedKernelEvals()
		c, err := query.Compile(q, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EstimateCtx(context.Background(), r, sel)
		if err != nil {
			t.Fatal(err)
		}
		// With unit weights the estimate over all partitions is the exact
		// count; compute the expectation from the resident original.
		cr, err := query.Compile(q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := cr.GroundTruth(tbl)
		requireSameAnswer(t, q.String(), want, got)
		if evals := query.EncodedKernelEvals(); evals == base {
			t.Fatalf("%s: encoded kernel counter did not advance", q)
		}
		if es := r.EncodingStats(); es.LazyDecodeCols != 0 {
			t.Fatalf("%s: %d columns were materialized; the predicate must run on encoded data", q, es.LazyDecodeCols)
		}
	}
	// Control: the same counter does see a materialization, so the zero above
	// is meaningful — but only on the second read of a column's values. The
	// first SUM over a freshly loaded partition runs on the FoR column as it
	// is; the second one decodes it, once. Both are the resident answer.
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("n")}}}
	c, err := query.Compile(q, r)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := query.Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := cr.EvalPartition(tbl.Parts[0])
	for touch, wantCols := range []int64{0, 1} {
		got, err := c.EstimateCtx(context.Background(), r, sel[:1])
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnswer(t, fmt.Sprintf("%s, touch %d", q, touch+1), want, got)
		if es := r.EncodingStats(); es.LazyDecodeCols != wantCols {
			t.Fatalf("touch %d of the FoR column: %d columns materialized so far, want %d", touch+1, es.LazyDecodeCols, wantCols)
		}
	}
}

// TestDecodeAdmittedOnSecondTouch follows the decode memo's admission rule
// through the reader and its cache. A scan that aggregates and groups by
// encoded columns materializes none of them in a partition it reads for the
// first time; under a cache too small to keep a partition between scans
// every read is a first one, so a thrashing reader never decodes at all. A
// resident partition gets each of those columns decoded on its second scan
// and nothing on its third. Every answer is the resident table's.
func TestDecodeAdmittedOnSecondTouch(t *testing.T) {
	tbl := encFixture(t, 800, 100, 5)
	data := writeStore(t, tbl)
	sel := make([]query.WeightedPartition, tbl.NumParts())
	for i := range sel {
		sel[i] = query.WeightedPartition{Part: i, Weight: 1 + float64(i)/4}
	}
	q := &query.Query{
		GroupBy: []string{"cat", "run"},
		Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("f")}, {Kind: query.Avg, Expr: query.Col("n")}},
		Pred:    &query.Clause{Col: "n", Op: query.OpLt, Num: 3000},
	}
	cr, err := query.Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cr.EstimateCtx(context.Background(), tbl, sel)
	if err != nil {
		t.Fatal(err)
	}
	touched := int64(4 * tbl.NumParts()) // f, n, cat, run of every partition
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		decoded    []int64 // materialized columns after scans 1, 2, 3
	}{
		{"resident", -1, []int64{0, touched, touched}},
		{"thrashing", 1, []int64{0, 0, 0}},
	} {
		r := openStore(t, data, tc.cacheBytes)
		c, err := query.Compile(q, r)
		if err != nil {
			t.Fatal(err)
		}
		c.Exec = exec.Options{Parallelism: 1}
		for scan, wantCols := range tc.decoded {
			got, err := c.EstimateCtx(context.Background(), r, sel)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAnswer(t, fmt.Sprintf("%s reader, scan %d", tc.name, scan+1), want, got)
			if es := r.EncodingStats(); es.LazyDecodeCols != wantCols {
				t.Fatalf("%s reader: %d columns materialized after scan %d, want %d", tc.name, es.LazyDecodeCols, scan+1, wantCols)
			}
		}
	}
}

// requireDecodesPerScan runs q over sel three times on a fresh resident and a
// fresh thrashing (1-byte cache) reader of data, at Parallelism 1, and checks
// every answer against want and the reader's materialized-column count after
// each scan against resident and thrashing. It returns how far
// query.EncodedKernelEvals advanced on each of the resident reader's scans.
func requireDecodesPerScan(t *testing.T, label string, data []byte, q *query.Query, sel []query.WeightedPartition, want *query.Answer, resident, thrashing [3]int64) (residentEvals [3]int64) {
	t.Helper()
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		decoded    [3]int64
	}{{"resident", -1, resident}, {"thrashing", 1, thrashing}} {
		r := openStore(t, data, tc.cacheBytes)
		c, err := query.Compile(q, r)
		if err != nil {
			t.Fatal(err)
		}
		c.Exec = exec.Options{Parallelism: 1}
		for scan, wantCols := range tc.decoded {
			evals := query.EncodedKernelEvals()
			got, err := c.EstimateCtx(context.Background(), r, sel)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cacheBytes < 0 {
				residentEvals[scan] = query.EncodedKernelEvals() - evals
			}
			requireSameAnswer(t, fmt.Sprintf("%s, %s reader, scan %d", label, tc.name, scan+1), want, got)
			if es := r.EncodingStats(); es.LazyDecodeCols != wantCols {
				t.Fatalf("%s, %s reader: %d columns materialized after scan %d, want %d", label, tc.name, es.LazyDecodeCols, scan+1, wantCols)
			}
		}
	}
	return residentEvals
}

// everyPartition selects every partition of tbl, each at its own weight.
func everyPartition(tbl *table.Table) []query.WeightedPartition {
	sel := make([]query.WeightedPartition, tbl.NumParts())
	for i := range sel {
		sel[i] = query.WeightedPartition{Part: i, Weight: 1 + float64(i)/4}
	}
	return sel
}

// TestColumnTouchedOncePerEvaluation: a query that reads one column at two
// sites — two aggregates over it, or one expression naming it twice — touches
// it once per partition evaluation, so the second site reads the encoded
// column the first one did instead of decoding it. A thrashing reader
// therefore never decodes the column, and a resident one decodes it once per
// partition, on the second scan.
func TestColumnTouchedOncePerEvaluation(t *testing.T) {
	tbl := encFixture(t, 800, 100, 5)
	data := writeStore(t, tbl)
	sel := everyPartition(tbl)
	parts := int64(tbl.NumParts())
	for _, q := range []*query.Query{
		{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("n")}, {Kind: query.Avg, Expr: query.Col("n")}}},
		{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("n").Add(query.Col("n"))}}},
	} {
		cr, err := query.Compile(q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cr.EstimateCtx(context.Background(), tbl, sel)
		if err != nil {
			t.Fatal(err)
		}
		requireDecodesPerScan(t, q.String(), data, q, sel, want, [3]int64{0, parts, parts}, [3]int64{})
	}
}

// TestPredicateColumnsAdmittedOnSecondTouch follows columns only a predicate
// reads through the reader. A frame-of-reference clause the block header
// leaves open and a bit-packed IN read their column's rows: encoded on a
// partition's first scan, decoded (once) from its second on a resident
// reader, never on a thrashing one — and the encoded-kernel counter, which
// moves on the first scan, stands still on the third. A header-decided
// frame-of-reference clause, a wanted code wider than the bit-packed
// column's width and a run-length clause read no row: they never
// materialize their column, and count as encoded evaluations on every scan.
func TestPredicateColumnsAdmittedOnSecondTouch(t *testing.T) {
	tbl := encFixture(t, 800, 100, 5)
	// A value whose code is past the 4 bits every block packs "cat" at.
	var wide string
	for i := 0; ; i++ {
		if wide = fmt.Sprintf("unused%d", i); tbl.Dict.Code(wide) > 15 {
			break
		}
	}
	data := writeStore(t, tbl)
	probe := openStore(t, data, -1)
	for pi := 0; pi < probe.NumParts(); pi++ {
		p, err := probe.loadBlock(pi)
		if err != nil {
			t.Fatal(err)
		}
		for c, kind := range []table.EncKind{table.EncRawNum, table.EncFoR, table.EncBitPack, table.EncRLE} {
			if e := p.EncCol(c); e == nil || e.Kind != kind || kind == table.EncBitPack && e.Width != 4 {
				t.Fatalf("partition %d column %d is held as %+v, want %v (bit-packed at 4 bits)", pi, c, e, kind)
			}
		}
	}
	sel := everyPartition(tbl)
	parts := int64(tbl.NumParts())
	for _, tc := range []struct {
		name     string
		pred     query.Pred
		admitted bool // reads rows: decoded on a resident reader's second scan
	}{
		{"FoR, open", &query.Clause{Col: "n", Op: query.OpLt, Num: 2048}, true},
		{"bit-packed IN", &query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"c1", "c5", "c8"}}, true},
		{"FoR, header-decided", &query.Clause{Col: "n", Op: query.OpGe, Num: -3}, false},
		{"bit-packed, out of width", &query.Clause{Col: "cat", Op: query.OpNe, Strs: []string{wide}}, false},
		{"run-length", &query.Clause{Col: "run", Op: query.OpEq, Strs: []string{"r1"}}, false},
	} {
		q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}, Pred: tc.pred}
		cr, err := query.Compile(q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cr.EstimateCtx(context.Background(), tbl, sel)
		if err != nil {
			t.Fatal(err)
		}
		resident, late := [3]int64{}, parts
		if tc.admitted {
			resident, late = [3]int64{0, parts, parts}, 0
		}
		evals := requireDecodesPerScan(t, tc.name, data, q, sel, want, resident, [3]int64{})
		if evals[0] != parts || evals[2] != late {
			t.Fatalf("%s: encoded clause evaluations per scan on a resident reader %v, want %d on the first and %d on the third",
				tc.name, evals, parts, late)
		}
	}
}

// TestChooserDeterministicBytes pins writer determinism: the same table
// produces byte-identical v2 files on every write, and re-encoding a block
// from a decoded partition (raw round-trip) picks the same encodings.
func TestChooserDeterministicBytes(t *testing.T) {
	tbl := encFixture(t, 640, 64, 3)
	a := writeStore(t, tbl)
	b := writeStore(t, tbl)
	if !bytes.Equal(a, b) {
		t.Fatal("two writes of the same table differ")
	}
	// Round-trip through the raw format and re-encode: the chooser sees
	// decoded slices instead of the builder's originals and must still make
	// identical choices.
	rawTbl := materialize(t, openStore(t, writeStoreRaw(t, tbl), -1))
	c := writeStore(t, rawTbl)
	if !bytes.Equal(a, c) {
		t.Fatal("re-encoding a decoded round-trip changed the file bytes")
	}
}

// TestChooserHintConsistency asserts the satellite contract for hints: they
// prune chooser scans but never change its decision, so a hinted write is
// byte-identical to an unhinted one.
func TestChooserHintConsistency(t *testing.T) {
	tbl := encFixture(t, 640, 64, 23)
	ts, err := stats.Build(tbl, stats.Options{GroupableCols: []string{"cat", "run"}})
	if err != nil {
		t.Fatal(err)
	}
	plain := writeStore(t, tbl)
	hinted := writeStoreWith(t, tbl, WriteOptions{Hints: HintsFromStats(ts)})
	if !bytes.Equal(plain, hinted) {
		t.Fatal("hinted write differs from unhinted write")
	}
}

// TestChooserHintsPruneOnly unit-tests chooseNumeric/chooseCat directly:
// for blocks on both sides of every selection boundary, an exact hint must
// yield the same plan as a full scan.
func TestChooserHintsPruneOnly(t *testing.T) {
	numBlocks := map[string][]float64{
		"integral small range": {5, 9, 5, 100, 42, 7},
		"constant":             {3, 3, 3, 3},
		"fractional":           {1.5, 2, 3},
		"negative frame":       {-1000, -500, -998},
		"wide range":           {0, float64(1 << 54)},
		"with NaN":             {1, 2, math.NaN()},
		"with Inf":             {1, 2, math.Inf(1)},
		"huge magnitude":       {0, maxExactInt + 2},
		"empty":                {},
	}
	for name, vals := range numBlocks {
		t.Run("num/"+name, func(t *testing.T) {
			unhinted := chooseNumeric(vals, ColHint{}, false)
			var h ColHint
			if len(vals) > 0 {
				h.Min, h.Max, h.HasRange = vals[0], vals[0], true
				for _, v := range vals {
					h.Min = math.Min(h.Min, v)
					h.Max = math.Max(h.Max, v)
				}
			}
			hinted := chooseNumeric(vals, h, len(vals) > 0)
			if unhinted != hinted {
				t.Fatalf("hinted plan %+v != unhinted %+v", hinted, unhinted)
			}
		})
	}
	catBlocks := map[string][]uint32{
		"shuffled low card": {0, 3, 1, 2, 0, 3, 2, 1, 0, 1},
		"single run":        {5, 5, 5, 5, 5, 5, 5, 5},
		"two runs":          {1, 1, 1, 1, 2, 2, 2, 2},
		"alternating":       {0, 1, 0, 1, 0, 1},
		"wide codes":        {1 << 20, 1<<20 + 1, 1 << 19},
		"empty":             {},
	}
	for name, codes := range catBlocks {
		t.Run("cat/"+name, func(t *testing.T) {
			unhinted := chooseCat(codes, ColHint{}, false)
			distinct := map[uint32]bool{}
			for _, c := range codes {
				distinct[c] = true
			}
			hinted := chooseCat(codes, ColHint{Distinct: len(distinct), HasDistinct: true}, len(codes) > 0)
			if unhinted != hinted {
				t.Fatalf("hinted plan %+v != unhinted %+v", hinted, unhinted)
			}
		})
	}
}

// TestNegativeZeroSurvivesStore: a block of integers that holds −0 is
// written raw, since a frame of reference would decode the −0 as +0, and
// reads back with every sign bit. A numeric GROUP BY over it therefore keys
// −0 apart from +0 on the store reader exactly as on the resident table.
// requireSamePartition compares with !=, which cannot see a sign.
func TestNegativeZeroSurvivesStore(t *testing.T) {
	negZero := math.Copysign(0, -1)
	s := table.MustSchema(
		table.Column{Name: "v", Kind: table.Numeric},
		table.Column{Name: "n", Kind: table.Numeric},
	)
	b, err := table.NewBuilder(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		v := float64(i % 5)
		if i%7 == 3 {
			v = negZero
		}
		if err := b.Append([]float64{v, float64(i % 11)}, []string{"", ""}); err != nil {
			t.Fatal(err)
		}
	}
	tbl := b.Finish()
	r := openStore(t, writeStore(t, tbl), -1)
	for pi, want := range tbl.Parts {
		loaded, err := r.loadBlock(pi)
		if err != nil {
			t.Fatal(err)
		}
		var kinds [2]table.EncKind
		for c := range kinds {
			if e := loaded.EncCol(c); e != nil {
				kinds[c] = e.Kind
			}
		}
		if kinds != [2]table.EncKind{table.EncRawNum, table.EncFoR} {
			t.Fatalf("partition %d: v and n load as %v; want v raw (it holds −0) and n a frame", pi, kinds)
		}
		got, err := r.Read(pi)
		if err != nil {
			t.Fatal(err)
		}
		for row, v := range want.NumCol(0) {
			if g := got.NumCol(0)[row]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("partition %d row %d: v reads back as %v (bits %x), wrote %v (bits %x)", pi, row, g, math.Float64bits(g), v, math.Float64bits(v))
			}
		}
	}

	q := &query.Query{
		GroupBy: []string{"v"},
		Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("n")}, {Kind: query.Count}},
	}
	sel := []query.WeightedPartition{{Part: 0, Weight: 1}, {Part: 1, Weight: 2.5}}
	answer := func(src table.PartitionSource) *query.Answer {
		c, err := query.Compile(q, src)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := c.EstimateCtx(context.Background(), src, sel)
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	want := answer(tbl)
	if len(want.Groups) != 6 {
		t.Fatalf("resident answer has %d groups, want 6: 0 to 4 and −0", len(want.Groups))
	}
	for _, src := range []table.PartitionSource{r, materialize(t, r)} {
		requireSameAnswer(t, "GROUP BY v", want, answer(src))
	}
}

// mixedFixture builds a table whose partitions are byte-identical to each
// other (content depends only on the row's offset within its partition) and
// mix raw and encoded columns, so cache-accounting arithmetic is exact.
func mixedFixture(t testing.TB, parts, rowsPerPart int) *table.Table {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "f", Kind: table.Numeric},       // fractional: raw
		table.Column{Name: "n", Kind: table.Numeric},       // integral: FoR
		table.Column{Name: "run", Kind: table.Categorical}, // low width: bit-packed
	)
	b, err := table.NewBuilder(s, rowsPerPart)
	if err != nil {
		t.Fatal(err)
	}
	runs := []string{"a", "b", "c"}
	for i := 0; i < parts*rowsPerPart; i++ {
		j := i % rowsPerPart
		num := []float64{float64(j) + 0.25, float64(j % 50), 0}
		cat := []string{"", "", runs[(j/16)%len(runs)]}
		if err := b.Append(num, cat); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

// TestCacheAccountingMixedEncodedRaw pins the cache's byte-accounting
// semantics for partitions that mix raw and encoded columns: the budget is
// enforced in resident-encoded bytes, eviction stays LRU, and LoadedBytes is
// the cumulative admitted encoded footprint — it grows again when an evicted
// partition is re-faulted and is smaller than the decoded footprint by the
// compression ratio.
func TestCacheAccountingMixedEncodedRaw(t *testing.T) {
	tbl := mixedFixture(t, 6, 200)
	data := writeStore(t, tbl)

	probe := openStore(t, data, -1)
	size := encodedPartSize(t, probe, 0)
	for pi := 1; pi < 6; pi++ {
		if got := encodedPartSize(t, probe, pi); got != size {
			t.Fatalf("fixture partitions are not uniform: part %d is %d bytes, part 0 is %d", pi, got, size)
		}
	}
	p0, err := probe.loadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if e := p0.EncCol(0); e == nil || e.Kind != table.EncRawNum {
		t.Fatal("column f must be raw: a view of its block bytes, charged at decoded width")
	}
	if p0.EncCol(1) == nil || p0.EncCol(2) == nil {
		t.Fatal("columns n and run must be encoded")
	}
	// The charge for this fixture when column f was decoded at load.
	if size != 1810 {
		t.Fatalf("mixed partition charges the cache %d bytes, want 1810", size)
	}
	decoded := int64(p0.SizeBytes())
	if size >= decoded {
		t.Fatalf("mixed partition: encoded %d bytes >= decoded %d", size, decoded)
	}

	budget := 2*size + size/2 // room for exactly two partitions
	r := openStore(t, data, budget)
	for pi := 0; pi < 6; pi++ {
		if _, err := r.Read(pi); err != nil {
			t.Fatal(err)
		}
	}
	st := r.CacheStats()
	if st.Misses != 6 || st.Evictions != 4 || st.ResidentParts != 2 {
		t.Fatalf("after 6 cold reads: %+v, want 6 misses / 4 evictions / 2 resident", st)
	}
	if st.ResidentBytes != 2*size {
		t.Fatalf("resident %d bytes, want %d (two encoded partitions)", st.ResidentBytes, 2*size)
	}
	if st.LoadedBytes != 6*size {
		t.Fatalf("LoadedBytes = %d, want %d (cumulative admitted encoded bytes)", st.LoadedBytes, 6*size)
	}
	// LRU: 4 and 5 are resident; 4 hits, 0 re-faults and charges again.
	if _, err := r.Read(4); err != nil {
		t.Fatal(err)
	}
	if got := r.CacheStats(); got.Hits != 1 || got.LoadedBytes != 6*size {
		t.Fatalf("hit on resident partition: %+v", got)
	}
	if _, err := r.Read(0); err != nil {
		t.Fatal(err)
	}
	st = r.CacheStats()
	if st.Misses != 7 {
		t.Fatalf("re-reading an evicted partition: misses = %d, want 7", st.Misses)
	}
	if st.LoadedBytes != 7*size {
		t.Fatalf("LoadedBytes = %d, want %d after re-fault", st.LoadedBytes, 7*size)
	}
	if st.ResidentBytes > budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.ResidentBytes, budget)
	}
	// Equal hit rate at a fraction of the bytes: the same budget expressed
	// in decoded bytes would have held zero partitions fewer — check the
	// stronger claim directly: two encoded partitions fit where only one
	// decoded-width partition would have.
	if 2*decoded <= budget {
		t.Fatalf("fixture too compressible for the claim: 2 decoded partitions (%d) fit budget %d", 2*decoded, budget)
	}
}

// goldenTable is the deterministic fixture behind the checked-in golden
// files. Purely arithmetic — no RNG — so it cannot drift across Go versions.
func goldenTable(t testing.TB) *table.Table {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "f", Kind: table.Numeric},
		table.Column{Name: "n", Kind: table.Numeric},
		table.Column{Name: "cat", Kind: table.Categorical},
		table.Column{Name: "run", Kind: table.Categorical},
	)
	b, err := table.NewBuilder(s, 40)
	if err != nil {
		t.Fatal(err)
	}
	cats := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	runs := []string{"x", "y"}
	for i := 0; i < 130; i++ {
		num := []float64{float64(i)*0.375 - 20, float64((i * 7) % 97), 0, 0}
		cat := []string{"", "", cats[(i*3)%len(cats)], runs[(i/25)%len(runs)]}
		if err := b.Append(num, cat); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

// TestGoldenFiles freezes both wire formats: the checked-in v1 and v2 files
// must decode bit-identically to the in-memory fixture (backward
// compatibility), and today's writer must reproduce them byte for byte
// (format stability). Regenerate with `go test ./internal/store -run
// TestGoldenFiles -update-golden` — only when a format change is deliberate.
func TestGoldenFiles(t *testing.T) {
	tbl := goldenTable(t)
	cases := []struct {
		path    string
		data    []byte
		version int
	}{
		{filepath.Join("testdata", "v1_golden.ps3"), writeStoreRaw(t, tbl), 1},
		{filepath.Join("testdata", "v2_golden.ps3"), writeStore(t, tbl), 2},
	}
	if *updateGolden {
		for _, c := range cases {
			if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(c.path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", c.path, len(c.data))
		}
		return
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("v%d", c.version), func(t *testing.T) {
			golden, err := os.ReadFile(c.path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if !bytes.Equal(golden, c.data) {
				t.Fatalf("writer output differs from %s: format changed without a version bump", c.path)
			}
			r := openStore(t, golden, -1)
			if es := r.EncodingStats(); es.FormatVersion != c.version {
				t.Fatalf("format version %d, want %d", es.FormatVersion, c.version)
			}
			if r.NumRows() != tbl.NumRows() || r.NumParts() != tbl.NumParts() {
				t.Fatalf("golden decodes to %d rows / %d parts", r.NumRows(), r.NumParts())
			}
			for pi := range tbl.Parts {
				got, err := r.Read(pi)
				if err != nil {
					t.Fatal(err)
				}
				requireSamePartition(t, tbl.Parts[pi], got, pi)
			}
		})
	}
}

// TestMigrateV1ToV2 pins the one migration path left, `ps3gen -in old.ps3
// -out new.ps3`: the v1 golden file, opened, materialized and written
// again, is the v2 golden file byte for byte.
func TestMigrateV1ToV2(t *testing.T) {
	r, err := Open(filepath.Join("testdata", "v1_golden.ps3"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tbl, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "v2_golden.ps3"))
	if err != nil {
		t.Fatal(err)
	}
	if got := writeStore(t, tbl); !bytes.Equal(got, want) {
		t.Fatalf("v1 golden re-encodes to %d bytes that differ from the %d-byte v2 golden", len(got), len(want))
	}
}

// v2ColOffsets walks a v2 block's [tag][len][payload] headers and returns the
// offset of each column's header within the block.
func v2ColOffsets(t testing.TB, block []byte, numCols int) []int {
	t.Helper()
	offs := make([]int, numCols)
	at := 0
	for c := 0; c < numCols; c++ {
		if at+colHeaderSize > len(block) {
			t.Fatalf("column %d header at %d overruns %d-byte block", c, at, len(block))
		}
		offs[c] = at
		at += colHeaderSize + int(binary.LittleEndian.Uint32(block[at+1:]))
	}
	return offs
}

// corruptBlock applies mutate to partition pi's block bytes in place and
// fixes up the footer CRC, so the corruption reaches the structural decode
// validation instead of tripping the checksum.
func corruptBlock(t testing.TB, data []byte, pi int, mutate func(block []byte)) []byte {
	t.Helper()
	return resizeBlock(t, data, pi, 0, mutate)
}

// resizeBlock is corruptBlock over a block whose footer entry is first grown
// (into the bytes that follow it in the file) or shrunk by delta bytes.
func resizeBlock(t testing.TB, data []byte, pi int, delta int64, mutate func(block []byte)) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	probe := openStore(t, data, 0)
	b := probe.blocks[pi]
	b.Length += delta
	mutate(out[b.Offset : b.Offset+b.Length])
	crc := crc32.Checksum(out[b.Offset:b.Offset+b.Length], crcTable)
	return rebuildFooter(t, out, func(f *footerWire) { f.Blocks[pi].Length, f.Blocks[pi].CRC = b.Length, crc })
}

// TestReadRejectsCorruptV2Blocks drives the per-column structural validation
// of encoded blocks: truncated packs, bad widths, out-of-range dictionary
// codes and RLE overruns must fail the corrupted partition's Read with a
// descriptive error while the file still opens and other partitions decode.
func TestReadRejectsCorruptV2Blocks(t *testing.T) {
	tbl := encFixture(t, 320, 100, 11)
	valid := writeStore(t, tbl)
	numCols := tbl.Schema.NumCols()
	// Column order in encFixture: 0 f (raw num), 1 n (FoR), 2 cat (bitpack),
	// 3 run (RLE); TestEncFixtureCoversAllEncodings guards this layout.
	// growLast adds n to the last column's declared payload length.
	growLast := func(n uint32) func(t *testing.T, block []byte) {
		return func(t *testing.T, block []byte) {
			at := block[v2ColOffsets(t, block, numCols)[numCols-1]+1:]
			binary.LittleEndian.PutUint32(at, binary.LittleEndian.Uint32(at)+n)
		}
	}
	intact := func(*testing.T, []byte) {}
	cases := []struct {
		name   string
		resize int64 // bytes added to the block's footer length
		mutate func(t *testing.T, block []byte)
		msg    string
	}{
		{"unknown tag", 0, func(t *testing.T, block []byte) {
			block[v2ColOffsets(t, block, numCols)[0]] = 99
		}, "unknown column encoding tag"},
		{"payload overruns block", 0, func(t *testing.T, block []byte) {
			off := v2ColOffsets(t, block, numCols)[0]
			binary.LittleEndian.PutUint32(block[off+1:], 1<<30)
		}, "overruns block"},
		// The buffer a block is read into is PackPad bytes longer than the
		// block; those bytes are slack for loads, never payload.
		{"last payload reaches one byte into the tail pad", 0, growLast(1), "overruns block"},
		{"last payload claims the whole tail pad", 0, growLast(table.PackPad), "overruns block"},
		{"block one byte short", -1, intact, "overruns block"},
		{"trailing byte after the last column", 1, intact, "trailing bytes"},
		{"raw numeric payload one value short", 0, func(t *testing.T, block []byte) {
			// A raw numeric column is not decoded at load, but its length is
			// still checked there.
			off := v2ColOffsets(t, block, numCols)[0]
			binary.LittleEndian.PutUint32(block[off+1:], binary.LittleEndian.Uint32(block[off+1:])-8)
		}, "raw numeric payload"},
		{"FoR width over exactness bound", 0, func(t *testing.T, block []byte) {
			off := v2ColOffsets(t, block, numCols)[1]
			block[off+colHeaderSize+8] = 60
		}, "53-bit"},
		{"truncated FoR pack", 0, func(t *testing.T, block []byte) {
			// Bump the declared width without growing the payload: the pack
			// is now too short for rows*width bits.
			off := v2ColOffsets(t, block, numCols)[1]
			block[off+colHeaderSize+8]++
		}, "payload"},
		{"bit-pack width over 32", 0, func(t *testing.T, block []byte) {
			off := v2ColOffsets(t, block, numCols)[2]
			block[off+colHeaderSize] = 40
		}, "width <= 32"},
		{"truncated bit pack", 0, func(t *testing.T, block []byte) {
			off := v2ColOffsets(t, block, numCols)[2]
			block[off+colHeaderSize]++
		}, "payload"},
		{"RLE code out of dictionary range", 0, func(t *testing.T, block []byte) {
			off := v2ColOffsets(t, block, numCols)[3]
			// First run value sits right after the run count.
			binary.LittleEndian.PutUint32(block[off+colHeaderSize+4:], 1<<31)
		}, "out of range"},
		{"RLE run overruns rows", 0, func(t *testing.T, block []byte) {
			off := v2ColOffsets(t, block, numCols)[3]
			runs := int(binary.LittleEndian.Uint32(block[off+colHeaderSize:]))
			lastEnd := off + colHeaderSize + 4 + 4*runs + 4*(runs-1)
			binary.LittleEndian.PutUint32(block[lastEnd:], 1<<20)
		}, "ends at"},
		{"RLE run count mismatch", 0, func(t *testing.T, block []byte) {
			off := v2ColOffsets(t, block, numCols)[3]
			binary.LittleEndian.PutUint32(block[off+colHeaderSize:], 1<<24)
		}, "runs need"},
		{"bit-packed code out of dictionary range", 0, func(t *testing.T, block []byte) {
			// Widen nothing: at the fixture's 4 bits the mask (15) is past
			// the 12-value dictionary, so the range scan runs and must find
			// the one rogue code.
			off := v2ColOffsets(t, block, numCols)[2]
			block[off+colHeaderSize+1] |= 0x0f
		}, "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := resizeBlock(t, valid, 1, c.resize, func(block []byte) { c.mutate(t, block) })
			r := openStore(t, data, 0)
			if _, err := r.Read(0); err != nil {
				t.Fatalf("intact partition: %v", err)
			}
			_, err := r.Read(1)
			if err == nil {
				t.Fatal("corrupted partition must fail to decode")
			}
			if !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("error %q does not mention %q", err, c.msg)
			}
			if _, err := r.Read(2); err != nil {
				t.Fatalf("partition after the corrupt one: %v", err)
			}
		})
	}
}

// TestEncodingStatsRatio sanity-checks the /stats surface: an encoded store
// reports FileBytes below LogicalBytes with the matching ratio, a raw store
// reports exactly 1.0, and lazy-decode counters start at zero.
func TestEncodingStatsRatio(t *testing.T) {
	tbl := encFixture(t, 640, 64, 29)
	enc := openStore(t, writeStore(t, tbl), -1)
	raw := openStore(t, writeStoreRaw(t, tbl), -1)

	es := enc.EncodingStats()
	if es.FormatVersion != 2 || es.FileBytes >= es.LogicalBytes {
		t.Fatalf("encoded store stats: %+v", es)
	}
	if want := float64(es.LogicalBytes) / float64(es.FileBytes); es.Ratio != want || es.Ratio <= 1 {
		t.Fatalf("ratio = %v, want %v (> 1)", es.Ratio, want)
	}
	if es.LazyDecodeCols != 0 || es.LazyDecodeBytes != 0 {
		t.Fatalf("fresh reader reports decode work: %+v", es)
	}
	rs := raw.EncodingStats()
	if rs.FormatVersion != 1 || rs.Ratio != 1 || rs.FileBytes != rs.LogicalBytes {
		t.Fatalf("raw store stats: %+v", rs)
	}
	if rs.LogicalBytes != es.LogicalBytes {
		t.Fatalf("logical bytes differ between formats: %d vs %d", rs.LogicalBytes, es.LogicalBytes)
	}
}

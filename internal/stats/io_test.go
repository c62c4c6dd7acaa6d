package stats

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"ps3/internal/query"
	"ps3/internal/table"
)

func TestStatsRoundTrip(t *testing.T) {
	tbl := buildTestTable(t, 6, 30)
	orig := buildStats(t, tbl)

	// Fit normalization so Scale round-trips too.
	q := &query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}},
		GroupBy: []string{"cat"},
	}
	orig.Space.Fit(orig.Features(q))

	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	back, err := ReadStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Parts) != len(orig.Parts) {
		t.Fatalf("round trip: %d parts, want %d", len(back.Parts), len(orig.Parts))
	}
	if back.Space.Dim() != orig.Space.Dim() {
		t.Fatalf("round trip: dim %d, want %d", back.Space.Dim(), orig.Space.Dim())
	}

	// The restored store must produce byte-identical feature matrices for
	// arbitrary queries — that is what the picker consumes.
	gen, err := query.NewGenerator(query.Workload{
		GroupableCols: []string{"cat"},
		PredicateCols: []string{"x", "y", "cat"},
		AggCols:       []string{"x", "y"},
	}, tbl, 77)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		tq := gen.Sample()
		fo := orig.Features(tq)
		fb := back.Features(tq)
		for i := range fo {
			for j := range fo[i] {
				if fo[i][j] != fb[i][j] {
					t.Fatalf("query %v: feature [%d][%d] differs after round trip: %v vs %v",
						tq, i, j, fo[i][j], fb[i][j])
				}
			}
		}
	}

	// Normalization survives.
	for j, x := range orig.Features(q)[0] {
		if no, nb := orig.Space.NormalizeValue(j, x), back.Space.NormalizeValue(j, x); no != nb {
			t.Fatalf("normalized feature %d differs: %v vs %v", j, no, nb)
		}
	}

	// Sizes (Table 4 accounting) survive.
	so, sb := orig.Sizes(), back.Sizes()
	if so != sb {
		t.Fatalf("size breakdown changed: %+v vs %+v", so, sb)
	}
}

func TestReadStatsGarbage(t *testing.T) {
	if _, err := ReadStats(bytes.NewReader([]byte("not a stats store"))); err == nil {
		t.Fatal("want error decoding garbage")
	}
}

// mutateWire round-trips a valid store through its wire form, applies a
// corruption, and re-encodes — the shape of every decode-validation test.
func mutateWire(t *testing.T, ts *TableStats, mutate func(*statsWire)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ts.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var wire statsWire
	if err := gob.NewDecoder(&buf).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	mutate(&wire)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&wire); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestReadStatsRejectsCorruption(t *testing.T) {
	tbl := buildTestTable(t, 4, 20)
	ts := buildStats(t, tbl)
	q := &query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}},
		GroupBy: []string{"cat"},
	}
	ts.Space.Fit(ts.Features(q))

	cases := []struct {
		name   string
		mutate func(*statsWire)
		msg    string
	}{
		{"scale length mismatch", func(w *statsWire) {
			w.Scale = w.Scale[:3]
		}, "normalization scale"},
		{"column sketch count mismatch", func(w *statsWire) {
			w.Parts[0].Cols = w.Parts[0].Cols[:1]
		}, "column sketch sets"},
		{"negative partition rows", func(w *statsWire) {
			w.Parts[1].Rows = -5
		}, "negative row count"},
		{"global hh column out of range", func(w *statsWire) {
			w.GlobalHH[99] = []uint32{1, 2}
		}, "schema has"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadStats(mutateWire(t, ts, c.mutate))
			if err == nil {
				t.Fatal("want error for corrupted stats store")
			}
			if !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("error %q does not mention %q", err, c.msg)
			}
		})
	}
}

// TestStatsRoundTripDegenerateStore covers the gob empty-map pitfall: a
// store with no groupable columns has empty GlobalHH and Bitmap maps, which
// gob decodes as nil. The reader must re-materialize them so downstream
// bitmap writes and lookups see maps, not nil.
func TestStatsRoundTripDegenerateStore(t *testing.T) {
	tbl := buildTestTable(t, 3, 10)
	ts, err := Build(tbl, Options{}) // no groupable columns
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ts.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.GlobalHH == nil {
		t.Fatal("GlobalHH decoded as nil map")
	}
	for i, ps := range back.Parts {
		if ps.Bitmap == nil {
			t.Fatalf("partition %d Bitmap decoded as nil map", i)
		}
	}
	if back.Space.Dim() != ts.Space.Dim() {
		t.Fatalf("degenerate store dim %d, want %d", back.Space.Dim(), ts.Space.Dim())
	}
	// Feature extraction still works end to end.
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}}
	if got, want := len(back.Features(q)), len(tbl.Parts); got != want {
		t.Fatalf("features for %d partitions, want %d", got, want)
	}
}

// FuzzReadStats feeds arbitrary bytes to the decoder: every accepted store
// must support the full planning surface (feature extraction, sizes) without
// panicking — the decoder's validation is the only guard, since the wire
// data never reaches the builder's invariants.
func FuzzReadStats(f *testing.F) {
	schema := table.MustSchema(
		table.Column{Name: "x", Kind: table.Numeric},
		table.Column{Name: "y", Kind: table.Numeric, Positive: true},
		table.Column{Name: "cat", Kind: table.Categorical},
	)
	b, err := table.NewBuilder(schema, 10)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		cat := "a"
		if i%4 == 0 {
			cat = "b"
		}
		if err := b.Append([]float64{float64(i), 1 + float64(i%5), 0}, []string{"", "", cat}); err != nil {
			f.Fatal(err)
		}
	}
	ts, err := Build(b.Finish(), Options{GroupableCols: []string{"cat"}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ts.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	for i := len(mut) / 3; i < len(mut)/3+8 && i < len(mut); i++ {
		mut[i] ^= 0x55
	}
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := ReadStats(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = back.Sizes()
		q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}}
		feats := back.Features(q)
		for _, row := range feats {
			for j, x := range row {
				_ = back.Space.NormalizeValue(j, x)
			}
		}
	})
}

func TestStatsRoundTripWithoutFit(t *testing.T) {
	tbl := buildTestTable(t, 3, 15)
	orig := buildStats(t, tbl)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Space.Scale != nil {
		t.Fatalf("unfitted store came back with scale %v", back.Space.Scale)
	}
}

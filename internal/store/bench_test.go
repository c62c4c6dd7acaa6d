package store

import (
	"path/filepath"
	"testing"

	"ps3/internal/query"
	"ps3/internal/table"
)

// benchStore writes a ~4 MB fixture (64 partitions) to a temp file and
// opens it with the given cache budget.
func benchStore(b *testing.B, cacheBytes int64) (*Reader, *table.Table) {
	b.Helper()
	tbl := buildTable(b, 64*3200, 3200)
	path := filepath.Join(b.TempDir(), "bench.ps3")
	if _, err := WriteFile(path, tbl); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path, Options{CacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r, tbl
}

// BenchmarkStoreColdScan measures faulting every partition in from disk:
// the cache holds one partition, so each read pays ReadAt + CRC + decode.
func BenchmarkStoreColdScan(b *testing.B) {
	r, tbl := benchStore(b, int64(tbl0Size(b)))
	b.SetBytes(int64(r.TotalBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pi := 0; pi < r.NumParts(); pi++ {
			if _, err := r.Read(pi); err != nil {
				b.Fatal(err)
			}
		}
	}
	_ = tbl
}

// tbl0Size returns the fixture's per-partition byte size without keeping a
// second table alive in the benchmark.
func tbl0Size(b *testing.B) int {
	b.Helper()
	return 3200 * (2*8 + 4)
}

// BenchmarkStoreWarmScan is the same scan with an unbounded cache: after
// the first lap every read is a cache hit, isolating the cache overhead.
func BenchmarkStoreWarmScan(b *testing.B) {
	r, _ := benchStore(b, -1)
	for pi := 0; pi < r.NumParts(); pi++ { // warm the cache
		if _, err := r.Read(pi); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(r.TotalBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pi := 0; pi < r.NumParts(); pi++ {
			if _, err := r.Read(pi); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStorePagedEstimate runs a weighted 6%-of-partitions scan — the
// serving shape — against a cache sized for just the picked set, far below
// TotalBytes: steady-state serving cost when the picker's choices fit the
// budget.
func BenchmarkStorePagedEstimate(b *testing.B) {
	partSize := int64(tbl0Size(b))
	sel := []query.WeightedPartition{
		{Part: 3, Weight: 16}, {Part: 17, Weight: 16}, {Part: 31, Weight: 16}, {Part: 60, Weight: 16},
	}
	r, _ := benchStore(b, int64(len(sel))*partSize)
	q := &query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}, {Kind: query.Count}},
		Pred:    &query.Clause{Col: "x", Op: query.OpGt, Num: 50},
		GroupBy: []string{"cat"},
	}
	c, err := query.Compile(q, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Estimate(r, sel); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := r.CacheStats(); st.LoadedBytes > int64(len(sel))*partSize {
		b.Fatalf("paged estimate loaded %d bytes, picked set is %d", st.LoadedBytes, int64(len(sel))*partSize)
	}
}

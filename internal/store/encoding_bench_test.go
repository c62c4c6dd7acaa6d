package store

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"ps3/internal/dataset"
	"ps3/internal/table"
)

// benchDatasets are the evaluation datasets the encoding benchmarks sweep:
// aria is a modestly compressible mixed schema; kdd is dominated by small
// integral counters and low-cardinality categoricals and compresses hard.
// tpch sits in between.
var benchDatasets = []string{"aria", "tpch", "kdd"}

// benchDatasetTable memoizes dataset generation across benchmarks — the
// generators cost far more than a benchmark iteration.
var (
	benchTblMu    sync.Mutex
	benchTblCache = map[string]*table.Table{}
)

func benchDatasetTable(b testing.TB, name string) *table.Table {
	b.Helper()
	benchTblMu.Lock()
	defer benchTblMu.Unlock()
	if t, ok := benchTblCache[name]; ok {
		return t
	}
	ds, err := dataset.ByName(name, dataset.Config{Rows: 20_000, Parts: 40, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	benchTblCache[name] = ds.Table
	return ds.Table
}

// benchOpenFile writes tbl once per (name, raw) pair into the benchmark's
// temp dir and opens it with the given budget.
func benchOpenFile(b testing.TB, tbl *table.Table, raw bool, cacheBytes int64) *Reader {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.ps3")
	if _, err := WriteFileWith(path, tbl, WriteOptions{Raw: raw}); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path, Options{CacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkStoreEncodedColdScan faults every partition in from disk with a
// one-partition cache, raw layout vs encoded, per dataset. SetBytes charges
// the decoded (logical) volume on both, so MB/s is directly comparable: the
// encoded side reads fewer file bytes but pays bit-unpacking, and the
// acceptance bar is that it lands no worse than raw. The encoded runs also
// report the file-level compression ratio.
func BenchmarkStoreEncodedColdScan(b *testing.B) {
	for _, name := range benchDatasets {
		tbl := benchDatasetTable(b, name)
		partSize := int64(tbl.Parts[0].SizeBytes())
		for _, layout := range []struct {
			label string
			raw   bool
		}{{"raw", true}, {"enc", false}} {
			b.Run(name+"/"+layout.label, func(b *testing.B) {
				r := benchOpenFile(b, tbl, layout.raw, partSize)
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
				b.StopTimer()
				if !layout.raw {
					b.ReportMetric(r.EncodingStats().Ratio, "compression-x")
				}
			})
		}
	}
}

// uniformHitFrac is the warm-and-measure loop of the cache-budget claim:
// two seeded uniform laps over r so the resident set reaches its steady
// state (a benchmark's timer restarts there), then reads more draws from
// the same stream. It returns the hit fraction of those reads and the
// closing cache counters.
func uniformHitFrac(tb testing.TB, r *Reader, reads int) (float64, CacheStats) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	read := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := r.Read(rng.Intn(r.NumParts())); err != nil {
				tb.Fatal(err)
			}
		}
	}
	read(2 * r.NumParts())
	start := r.CacheStats()
	if b, ok := tb.(*testing.B); ok {
		b.ResetTimer()
	}
	read(reads)
	st := r.CacheStats()
	hits, misses := st.Hits-start.Hits, st.Misses-start.Misses
	return float64(hits) / float64(hits+misses), st
}

// BenchmarkStoreEncodedHitRate measures the cache hit rate of a uniform
// random-read workload at fixed byte budgets: raw at 25% of the dataset's
// logical bytes, encoded at the same budget, and encoded at a third of it.
// TestEncodedCacheBudgetClaim asserts the headline pair of these figures.
func BenchmarkStoreEncodedHitRate(b *testing.B) {
	for _, name := range benchDatasets {
		tbl := benchDatasetTable(b, name)
		logical := int64(tbl.TotalBytes())
		budget := logical / 4
		for _, cfg := range []struct {
			label string
			raw   bool
			bytes int64
		}{
			{"raw-budget25pct", true, budget},
			{"enc-budget25pct", false, budget},
			{"enc-budget8pct", false, budget / 3},
		} {
			b.Run(name+"/"+cfg.label, func(b *testing.B) {
				r := benchOpenFile(b, tbl, cfg.raw, cfg.bytes)
				frac, st := uniformHitFrac(b, r, b.N)
				b.StopTimer()
				b.ReportMetric(frac, "hit-frac")
				b.ReportMetric(float64(st.ResidentParts), "resident-parts")
			})
		}
	}
}

// TestEncodedCacheBudgetClaim pins the encoded store's cache claim: on kdd
// the encoded store at a third of the raw cache budget (1/12 of the logical
// bytes against 1/4) holds an equal-or-better uniform-random hit rate, i.e.
// >= 3x fewer cache bytes for the same misses. On aria the honest result is
// that its ~2.2x ratio is not enough for the 3x budget cut to win; that
// shortfall is logged, not asserted.
func TestEncodedCacheBudgetClaim(t *testing.T) {
	const reads = 4000
	for _, name := range []string{"kdd", "aria"} {
		tbl := benchDatasetTable(t, name)
		logical := int64(tbl.TotalBytes())
		raw, _ := uniformHitFrac(t, benchOpenFile(t, tbl, true, logical/4), reads)
		enc, _ := uniformHitFrac(t, benchOpenFile(t, tbl, false, logical/12), reads)
		t.Logf("%s: hit fraction raw at logical/4 %.4f, encoded at logical/12 %.4f", name, raw, enc)
		if name == "kdd" && enc < raw {
			t.Errorf("kdd: encoded at a third of the raw budget hits %.4f of reads, raw hits %.4f", enc, raw)
		}
	}
}

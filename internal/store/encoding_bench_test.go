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
// tpch sits in between. Sizes match the recorded BENCH_store.json run.
var benchDatasets = []string{"aria", "tpch", "kdd"}

// benchDatasetTable memoizes dataset generation across benchmarks — the
// generators cost far more than a benchmark iteration.
var (
	benchTblMu    sync.Mutex
	benchTblCache = map[string]*table.Table{}
)

func benchDatasetTable(b *testing.B, name string) *table.Table {
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
func benchOpenFile(b *testing.B, tbl *table.Table, raw bool, cacheBytes int64) *Reader {
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

// BenchmarkStoreEncodedHitRate measures the cache hit rate of a uniform
// random-read workload at fixed byte budgets: raw at 25% of the dataset's
// logical bytes, encoded at the same budget, and encoded at a third of it.
// The reported hit-frac makes the headline claim measurable: on kdd the
// encoded store at budget/3 still beats raw at the full budget, i.e. >= 3x
// fewer cache bytes at equal (better) hit rate. On aria the honest result is
// that its ~2.2x ratio is not enough for the 3x budget cut to win.
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
				rng := rand.New(rand.NewSource(7))
				// Warm: two uniform laps so the resident set reaches its
				// steady state before measurement.
				for i := 0; i < 2*r.NumParts(); i++ {
					if _, err := r.Read(rng.Intn(r.NumParts())); err != nil {
						b.Fatal(err)
					}
				}
				start := r.CacheStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.Read(rng.Intn(r.NumParts())); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := r.CacheStats()
				hits := st.Hits - start.Hits
				misses := st.Misses - start.Misses
				if total := hits + misses; total > 0 {
					b.ReportMetric(float64(hits)/float64(total), "hit-frac")
				}
				b.ReportMetric(float64(st.ResidentParts), "resident-parts")
			})
		}
	}
}

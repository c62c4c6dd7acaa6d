// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5) at laptop scale, one Benchmark per artifact, plus micro-benchmarks of
// the core components. Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-artifact benchmarks report, via b.ReportMetric, the headline
// number of the artifact they reproduce (e.g. PS3's average relative error
// at the smallest budget for Fig 3) so that `-bench` output doubles as a
// compact experimental record; the full harness with aligned tables is
// cmd/ps3bench.
package ps3

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ps3/internal/dataset"
	"ps3/internal/exec"
	"ps3/internal/experiments"
	"ps3/internal/picker"
	"ps3/internal/query"
	"ps3/internal/store"
	"ps3/internal/table"
)

// benchCfg is deliberately small: each artifact regenerates in seconds. Use
// cmd/ps3bench -rows/-parts/-train to scale toward paper-sized runs.
func benchCfg() experiments.Config {
	return experiments.Config{
		Rows:         6_000,
		Parts:        40,
		TrainQueries: 30,
		TestQueries:  8,
		Budgets:      []float64{0.05, 0.1, 0.2, 0.4},
		Runs:         2,
		Seed:         42,
	}
}

// benchEnvs caches one trained environment per dataset across benchmarks so
// that per-artifact benchmarks measure the experiment, not repeated setup.
var benchEnvs sync.Map

func benchEnv(b *testing.B, name string) *experiments.Env {
	b.Helper()
	if v, ok := benchEnvs.Load(name); ok {
		return v.(*experiments.Env)
	}
	cfg := benchCfg()
	ds, err := dataset.ByName(name, dataset.Config{Rows: cfg.Rows, Parts: cfg.Parts, Seed: cfg.Seed})
	if err != nil {
		b.Fatal(err)
	}
	env, err := experiments.NewEnv(ds, cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchEnvs.Store(name, env)
	return env
}

// --- Fig 3: error vs budget, four methods, four datasets ---

func benchmarkFig3(b *testing.B, ds string) {
	env := benchEnv(b, ds)
	var last experiments.Curve
	for i := 0; i < b.N; i++ {
		last = env.ErrorCurve(experiments.MethodPS3, env.TestEx)
	}
	b.ReportMetric(last.Errs[0].AvgRelErr, "relerr@5%")
}

func BenchmarkFig3TPCH(b *testing.B)  { benchmarkFig3(b, "tpch") }
func BenchmarkFig3TPCDS(b *testing.B) { benchmarkFig3(b, "tpcds") }
func BenchmarkFig3Aria(b *testing.B)  { benchmarkFig3(b, "aria") }
func BenchmarkFig3KDD(b *testing.B)   { benchmarkFig3(b, "kdd") }

// --- Table 3: latency / compute speedups under the cluster cost model ---

func BenchmarkTable3Speedups(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable3(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].TotalComputeSpeedup, "compute-speedup@1%")
	}
}

// --- Table 4: per-partition statistics storage ---

func BenchmarkTable4StatsSize(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable4(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].Total, "KB/part")
	}
}

// --- Table 5: picker latency ---

// BenchmarkTable5PickerLatency measures the production pick path — batched
// featurization plus the flat-ensemble funnel — against the retained
// reference pipeline on the same query and budget.
func BenchmarkTable5PickerLatency(b *testing.B) {
	env := benchEnv(b, "aria")
	ex := env.TestEx[0]
	rng := rand.New(rand.NewSource(1))
	n := env.DS.Table.NumParts() / 10
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.Sys.Picker.PickReference(ex.Query, env.Sys.Stats.Features(ex.Query), n, rng)
		}
	})
	b.Run("batch", func(b *testing.B) {
		eo := exec.Options{Parallelism: 1}
		for i := 0; i < b.N; i++ {
			env.Sys.Picker.PickBatch(ex.Query, n, rng, eo)
		}
	})
}

// --- Fig 4: lesion study and factor analysis ---

func BenchmarkFig4Lesion(b *testing.B) {
	env := benchEnv(b, "aria")
	var lesion experiments.Curve
	for i := 0; i < b.N; i++ {
		lesion = env.ErrorCurve(experiments.MethodNoCluster, env.TestEx)
	}
	b.ReportMetric(lesion.Errs[0].AvgRelErr, "relerr-w/o-cluster@5%")
}

// --- Fig 5: regressor feature importance by sketch family ---

func BenchmarkFig5FeatureImportance(b *testing.B) {
	env := benchEnv(b, "kdd")
	var imp map[string]float64
	for i := 0; i < b.N; i++ {
		imp = experiments.CategoryImportance(env)
	}
	b.ReportMetric(imp["selectivity"], "selectivity-share-%")
}

// --- Fig 6: alternative data layouts ---

func BenchmarkFig6AltLayout(b *testing.B) {
	cfg := benchCfg()
	ds, err := dataset.ByName("aria", dataset.Config{Rows: cfg.Rows, Parts: cfg.Parts, Seed: cfg.Seed})
	if err != nil {
		b.Fatal(err)
	}
	alt, err := ds.WithLayout(ds.AltLayouts[0])
	if err != nil {
		b.Fatal(err)
	}
	var env *experiments.Env
	for i := 0; i < b.N; i++ {
		env, err = experiments.NewEnv(alt, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	c := env.ErrorCurve(experiments.MethodPS3, env.TestEx)
	b.ReportMetric(c.Errs[0].AvgRelErr, "relerr@5%")
}

// --- Fig 7: error by query selectivity ---

func BenchmarkFig7SelectivityBreakdown(b *testing.B) {
	cfg := benchCfg()
	cfg.TestQueries = 20
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 8: random layout + partition-count sweep ---

func BenchmarkFig8PartitionCount(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 9 / Fig 11: generalization to TPC-H template queries ---

func BenchmarkFig9Generalization(b *testing.B) {
	cfg := benchCfg()
	var res *experiments.GeneralizationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig9(io.Discard, cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil && len(res.Average) > 1 {
		b.ReportMetric(res.Average[1].Errs[0].AvgRelErr, "ps3-relerr@5%")
	}
}

// --- Fig 10: decay rate α sweep, learned vs oracle ---

func BenchmarkFig10AlphaSweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10(io.Discard, "kdd", cfg, []float64{1, 2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 12: biased vs unbiased exemplar estimator ---

func BenchmarkFig12EstimatorComparison(b *testing.B) {
	env := benchEnv(b, "tpcds")
	var biased, unbiased experiments.Curve
	for i := 0; i < b.N; i++ {
		biased = env.ErrorCurve(experiments.MethodPS3, env.TestEx)
		unbiased = env.ErrorCurve(experiments.MethodPS3Unbiased, env.TestEx)
	}
	b.ReportMetric(biased.Errs[0].AvgRelErr, "biased@5%")
	b.ReportMetric(unbiased.Errs[0].AvgRelErr, "unbiased@5%")
}

// --- Table 6: clustering algorithm comparison ---

func BenchmarkTable6ClusteringAlgos(b *testing.B) {
	cfg := benchCfg()
	cfg.TrainQueries = 16
	cfg.TestQueries = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable6(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 7: feature-selection effect on clustering ---

func BenchmarkTable7FeatureSelection(b *testing.B) {
	cfg := benchCfg()
	cfg.TrainQueries = 16
	cfg.TestQueries = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable7(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 8: LSS strata-size sweep ---

func BenchmarkTable8LSSStrata(b *testing.B) {
	env := benchEnv(b, "kdd")
	for i := 0; i < b.N; i++ {
		if _, err := picker.TrainLSS(env.Sys.Stats, env.TrainEx, env.Cfg.Budgets, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component micro-benchmarks ---

func BenchmarkStatsBuild(b *testing.B) {
	cfg := benchCfg()
	ds, err := dataset.ByName("aria", dataset.Config{Rows: cfg.Rows, Parts: cfg.Parts, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildStats(ds.Table, StatsOptions{GroupableCols: ds.Workload.GroupableCols}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeatureMatrix(b *testing.B) {
	env := benchEnv(b, "aria")
	q := env.TestEx[0].Query
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Sys.Stats.Features(q)
	}
}

func BenchmarkEndToEndRun(b *testing.B) {
	env := benchEnv(b, "aria")
	q := env.TestEx[0].Query
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Sys.Run(q, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel scan engine: speedup over the sequential baseline ---

// scanFixture builds a table large enough that partition scanning dominates
// setup, plus a compiled group-by query over it.
func scanFixture(b *testing.B) (*Table, *query.Compiled) {
	b.Helper()
	ds, err := dataset.ByName("aria", dataset.Config{Rows: 120_000, Parts: 96, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, ds.Table, 17)
	if err != nil {
		b.Fatal(err)
	}
	c, err := query.Compile(gen.Sample(), ds.Table)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Table, c
}

// BenchmarkGroundTruthSequential is the single-worker baseline for the
// speedup metric below.
func BenchmarkGroundTruthSequential(b *testing.B) {
	tbl, c := scanFixture(b)
	c.Exec = exec.Options{Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.GroundTruth(tbl)
	}
}

// BenchmarkGroundTruthParallel scans with GOMAXPROCS workers and reports
// the speedup over a sequential scan of the same table measured in-run.
func BenchmarkGroundTruthParallel(b *testing.B) {
	tbl, c := scanFixture(b)
	c.Exec = exec.Options{Parallelism: 1}
	const seqIters = 3
	seqStart := time.Now()
	for i := 0; i < seqIters; i++ {
		c.GroundTruth(tbl)
	}
	seqPer := time.Since(seqStart) / seqIters
	c.Exec = exec.Options{Parallelism: 0} // GOMAXPROCS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.GroundTruth(tbl)
	}
	b.StopTimer()
	parPer := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(seqPer)/float64(parPer), "speedup")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// --- Vectorized execution: selection-vector kernels vs row-at-a-time ---

// vecFixture builds the acceptance case for the vectorized engine: a
// multi-clause-predicate GROUP BY query over the skewed TPC-H* table.
func vecFixture(b *testing.B) (*Table, *query.Compiled) {
	b.Helper()
	ds, err := dataset.ByName("tpch", dataset.Config{Rows: 120_000, Parts: 24, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	q := &query.Query{
		GroupBy: []string{"L_RETURNFLAG"},
		Pred: query.NewAnd(
			&query.Clause{Col: "L_QUANTITY", Op: query.OpGe, Num: 3},
			&query.Clause{Col: "L_QUANTITY", Op: query.OpLe, Num: 47},
			&query.Clause{Col: "L_SHIPDATE", Op: query.OpGe, Num: 200},
			&query.Clause{Col: "L_SHIPDATE", Op: query.OpLt, Num: 2300},
			&query.Clause{Col: "L_SHIPMODE", Op: query.OpIn, Strs: []string{"AIR", "RAIL", "SHIP", "TRUCK"}},
		),
		Aggs: []query.Aggregate{
			{Kind: query.Sum, Expr: query.Col("L_EXTENDEDPRICE")},
			{Kind: query.Avg, Expr: query.Col("L_QUANTITY")},
			{Kind: query.Count},
		},
	}
	c, err := query.Compile(q, ds.Table)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Table, c
}

// BenchmarkEvalPartition compares the retained row-at-a-time reference
// evaluator against the vectorized kernel path on the same partitions; the
// vectorized sub-benchmark also reports its in-run speedup over the
// reference.
func BenchmarkEvalPartition(b *testing.B) {
	tbl, c := vecFixture(b)
	parts := tbl.Parts
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.EvalPartitionReference(parts[i%len(parts)])
		}
	})
	b.Run("vectorized", func(b *testing.B) {
		b.ReportAllocs()
		const refIters = 48
		refStart := time.Now()
		for i := 0; i < refIters; i++ {
			c.EvalPartitionReference(parts[i%len(parts)])
		}
		refPer := time.Since(refStart) / refIters
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.EvalPartition(parts[i%len(parts)])
		}
		b.StopTimer()
		vecPer := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(refPer)/float64(vecPer), "speedup")
	})
	// One four-clause conjunction over the serving benchmark's kdd shape
	// (4 500-row partitions, encoded, from a warm store-v2 reader, through
	// Estimate at Parallelism 1), written most selective clause first and
	// last: 3 %, 40 %, 99 % and 99.9 % of rows pass the clauses on their own.
	// The two are interleaved so both see the same machine noise; ns/op is
	// the cost of the pair. A scan learns the order of a conjunction from the
	// rows each clause passes, so the two agree within a few percent — the
	// worst-first scan pays the textual order on its first partition only.
	// Evaluated as written, worst-first costs three full-column passes more.
	b.Run("conjunction", func(b *testing.B) {
		const parts = 32
		ds, err := dataset.ByName("kdd", dataset.Config{Rows: 4500 * parts, Parts: parts, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "t.ps3")
		if _, err := store.WriteFile(path, ds.Table); err != nil {
			b.Fatal(err)
		}
		reader, err := store.Open(path, store.Options{CacheBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer reader.Close()
		sel := make([]query.WeightedPartition, parts)
		for i := range sel {
			sel[i] = query.WeightedPartition{Part: i, Weight: 1 + float64(i%7)/4}
		}
		clauses := []query.Pred{
			&query.Clause{Col: "service", Op: query.OpEq, Strs: []string{"http"}},
			&query.Clause{Col: "src_bytes", Op: query.OpLt, Num: 1032},
			&query.Clause{Col: "count", Op: query.OpGe, Num: 2},
			&query.Clause{Col: "flag", Op: query.OpIn, Strs: []string{"SF", "S0"}},
		}
		compile := func(clauses []query.Pred) *query.Compiled {
			c, err := query.Compile(&query.Query{
				GroupBy: []string{"protocol_type"},
				Pred:    &query.And{Children: clauses},
				Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("dst_bytes")}, {Kind: query.Count}},
			}, reader)
			if err != nil {
				b.Fatal(err)
			}
			c.Exec = exec.Options{Parallelism: 1}
			return c
		}
		best := compile(clauses)
		worst := compile([]query.Pred{clauses[3], clauses[2], clauses[1], clauses[0]})
		scan := func(c *query.Compiled) time.Duration {
			t0 := time.Now()
			if _, err := c.Estimate(reader, sel); err != nil {
				b.Fatal(err)
			}
			return time.Since(t0)
		}
		scan(best) // load every block and decode what the scans read twice
		scan(worst)
		b.ResetTimer()
		var bestNs, worstNs time.Duration
		for i := 0; i < b.N; i++ {
			bestNs += scan(best)
			worstNs += scan(worst)
		}
		b.ReportMetric(float64(bestNs)/float64(b.N), "best-first-ns/op")
		b.ReportMetric(float64(worstNs)/float64(b.N), "worst-first-ns/op")
		b.ReportMetric(float64(worstNs)/float64(bestNs), "worst/best")
	})
}

// BenchmarkEstimateGrouped measures the grouped weighted scan — Estimate
// over a picked selection, the second half of every served query — with 0,
// 1 and 2 GROUP BY columns, at the two partition shapes the serving
// benchmark (bench/) uses: 500-row aria and 4 500-row kdd partitions, read
// raw from a resident table and encoded from a warm store-v2 reader (and,
// "/cold" and "/warm", from encoded partitions no scan has read yet against
// ones read twice: the first-touch encoded arms against the memoized decoded
// loops). All runs are sequential (Parallelism 1) so the figures compare
// code, not scheduling.
//
// Per case, the plain sub-benchmark is Estimate; "/paired" interleaves it
// with the combine Estimate used before partial answers were flat — one
// Answer map per partition through EvalPartition, folded with AddWeighted —
// and reports the per-op speedup and each side's allocations. Both sides of
// the pair run today's kernels, so the ratio prices the per-partition maps
// and strings alone; the whole change is read off bench/ (repeat-zipf).
func BenchmarkEstimateGrouped(b *testing.B) {
	for _, fx := range []struct {
		name, dataset string
		rowsPerPart   int
	}{{"aria500", "aria", 500}, {"kdd4500", "kdd", 4500}} {
		const parts = 20 // one 5 %-budget selection of the 400-partition fixture
		ds, err := dataset.ByName(fx.dataset, dataset.Config{Rows: fx.rowsPerPart * parts, Parts: parts, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "t.ps3")
		if _, err := store.WriteFile(path, ds.Table); err != nil {
			b.Fatal(err)
		}
		reader, err := store.Open(path, store.Options{CacheBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer reader.Close()
		sel := make([]query.WeightedPartition, parts)
		for i := range sel {
			sel[i] = query.WeightedPartition{Part: i, Weight: 1 + float64(i%7)/4}
		}
		wl := ds.Workload
		for _, form := range []struct {
			name string
			src  table.PartitionSource
		}{{"raw", ds.Table}, {"encoded", reader}} {
			for groups := 0; groups <= 2; groups++ {
				c, err := query.Compile(&query.Query{
					GroupBy: wl.GroupableCols[:groups],
					Pred:    &query.Clause{Col: wl.AggCols[0], Op: query.OpGe, Num: 0},
					Aggs: []query.Aggregate{
						{Kind: query.Sum, Expr: query.Col(wl.AggCols[0])},
						{Kind: query.Avg, Expr: query.Col(wl.AggCols[1])},
						{Kind: query.Count},
					},
				}, form.src)
				if err != nil {
					b.Fatal(err)
				}
				c.Exec = exec.Options{Parallelism: 1}
				flat := func() *query.Answer {
					ans, err := c.Estimate(form.src, sel)
					if err != nil {
						b.Fatal(err)
					}
					return ans
				}
				perPartitionMaps := func() *query.Answer {
					ans := c.NewAnswer()
					for _, wp := range sel {
						p, err := form.src.Read(wp.Part)
						if err != nil {
							b.Fatal(err)
						}
						ans.AddWeighted(c.EvalPartition(p), wp.Weight)
					}
					return ans
				}
				name := fmt.Sprintf("%s/%s/groupby%d", fx.name, form.name, groups)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						flat()
					}
				})
				if form.name == "encoded" {
					// The two states of a loaded block. cold: partitions no
					// scan has read, so every aggregate and GROUP BY column
					// is evaluated in encoded form and nothing is decoded
					// (loading them is not timed). warm: one set, read twice
					// before the clock starts, so every column the query
					// names has its decoded slice.
					loaded := func(b *testing.B, scans int) *table.Table {
						tbl, err := reader.Materialize()
						if err != nil {
							b.Fatal(err)
						}
						for ; scans > 0; scans-- {
							if _, err := c.Estimate(tbl, sel); err != nil {
								b.Fatal(err)
							}
						}
						return tbl
					}
					b.Run(name+"/cold", func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							b.StopTimer()
							tbl := loaded(b, 0)
							b.StartTimer()
							if _, err := c.Estimate(tbl, sel); err != nil {
								b.Fatal(err)
							}
						}
					})
					b.Run(name+"/warm", func(b *testing.B) {
						b.ReportAllocs()
						tbl := loaded(b, 2)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if _, err := c.Estimate(tbl, sel); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
				b.Run(name+"/paired", func(b *testing.B) {
					benchPaired(b, func() { perPartitionMaps() }, func() { flat() })
				})
			}
		}
	}
}

// BenchmarkFinalizeGroups measures what happens to a scan's folded total on
// its way to a response — query.Compiled.EstimateGroupsCtx, the label-ordered
// rendering the serving path takes — for answers of 8, 512 and 2 048 groups
// over one 5 %-budget selection of 500-row aria partitions (three GROUP BY
// columns, the rows cut by ingestion time at the point that lets exactly G
// groups through). "/cold" compiles the query anew for every scan, so its
// label memo is empty and the scan renders and ranks G labels — an ad-hoc
// request; "/warm" finds every label and its rank in the memo — a dashboard
// request; "/paired" interleaves the warm scan with the rendering it replaced
// on the serving path (the map answer through FinalValues and GroupLabel,
// groups sorted by label) and reports the per-op speedup and each side's
// allocations. Sequential, like BenchmarkEstimateGrouped, whose scan this is.
func BenchmarkFinalizeGroups(b *testing.B) {
	const parts = 20
	ds, err := dataset.Aria(dataset.Config{Rows: 500 * parts, Parts: parts, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	sel := make([]query.WeightedPartition, parts)
	for i := range sel {
		sel[i] = query.WeightedPartition{Part: i, Weight: 1 + float64(i%7)/4}
	}
	ctx := context.Background()
	compile := func(before float64) *query.Compiled {
		c, err := query.Compile(&query.Query{
			GroupBy: []string{"TenantId", "AppInfo_Version", "DeviceInfo_NetworkType"},
			Pred:    &query.Clause{Col: "PipelineInfo_IngestionTime", Op: query.OpLt, Num: before},
			Aggs: []query.Aggregate{
				{Kind: query.Sum, Expr: query.Col("olsize")},
				{Kind: query.Avg, Expr: query.Col("ol_w")},
				{Kind: query.Count},
			},
		}, ds.Table)
		if err != nil {
			b.Fatal(err)
		}
		c.Exec = exec.Options{Parallelism: 1}
		return c
	}
	ordered := func(c *query.Compiled) []query.Group {
		groups, err := c.EstimateGroupsCtx(ctx, ds.Table, sel)
		if err != nil {
			b.Fatal(err)
		}
		return groups
	}
	viaMaps := func(c *query.Compiled) []query.Group {
		ans, err := c.EstimateCtx(ctx, ds.Table, sel)
		if err != nil {
			b.Fatal(err)
		}
		vals := c.FinalValues(ans)
		groups := make([]query.Group, 0, len(vals))
		for key, v := range vals { //lint:mapiter-ok sorted by label immediately below
			groups = append(groups, query.Group{Label: c.GroupLabel(key), Values: v})
		}
		slices.SortFunc(groups, func(a, b query.Group) int { return strings.Compare(a.Label, b.Label) })
		return groups
	}
	for _, g := range []int{8, 512, 2048} {
		// Groups only appear as the cut moves later: find the first minute
		// that lets g of them through.
		lo, hi := 0, 30*24*60
		for lo < hi {
			mid := (lo + hi) / 2
			if len(ordered(compile(float64(mid)))) < g {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		before := lo
		if got := len(ordered(compile(float64(before)))); got != g {
			b.Fatalf("no ingestion-time cut answers with exactly %d groups: minute %d gives %d", g, before, got)
		}
		b.Run(fmt.Sprintf("cold/G=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := compile(float64(before))
				b.StartTimer()
				ordered(c)
			}
		})
		warm := compile(float64(before))
		ordered(warm)
		b.Run(fmt.Sprintf("warm/G=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ordered(warm)
			}
		})
		b.Run(fmt.Sprintf("paired/G=%d", g), func(b *testing.B) {
			benchPaired(b, func() { viaMaps(warm) }, func() { ordered(warm) })
		})
	}
}

// benchPaired interleaves an old and a new way of doing one thing, as
// BenchmarkPick/paired does: both sides see the same machine noise. It
// reports old time over new time and each side's allocations; ns/op is the
// cost of the pair.
func benchPaired(b *testing.B, oldWay, newWay func()) {
	var oldNs, newNs int64
	var oldAllocs, newAllocs uint64
	var m0, m1, m2 runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		oldWay()
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		t2 := time.Now()
		newWay()
		newNs += int64(time.Since(t2))
		runtime.ReadMemStats(&m2)
		oldNs += int64(t1.Sub(t0))
		oldAllocs += m1.Mallocs - m0.Mallocs
		newAllocs += m2.Mallocs - m1.Mallocs
	}
	if newNs > 0 {
		b.ReportMetric(float64(oldNs)/float64(newNs), "speedup")
		b.ReportMetric(float64(oldAllocs)/float64(b.N), "old-allocs/op")
		b.ReportMetric(float64(newAllocs)/float64(b.N), "new-allocs/op")
	}
}

// BenchmarkSelectivity compares predicate evaluation row-at-a-time vs as
// selection kernels over the whole table. Both run sequentially so the
// comparison isolates the kernel effect from parallelism.
func BenchmarkSelectivity(b *testing.B) {
	tbl, c := vecFixture(b)
	c.Exec = exec.Options{Parallelism: 1}
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.SelectivityReference(tbl)
		}
	})
	b.Run("vectorized", func(b *testing.B) {
		b.ReportAllocs()
		const refIters = 3
		refStart := time.Now()
		for i := 0; i < refIters; i++ {
			c.SelectivityReference(tbl)
		}
		refPer := time.Since(refStart) / refIters
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Selectivity(tbl)
		}
		b.StopTimer()
		vecPer := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(refPer)/float64(vecPer), "speedup")
	})
	// One four-clause conjunction over the serving benchmark's kdd shape
	// (4 500-row partitions, encoded, from a warm store-v2 reader, through
	// Estimate at Parallelism 1), written most selective clause first and
	// last: 3 %, 40 %, 99 % and 99.9 % of rows pass the clauses on their own.
	// The two are interleaved so both see the same machine noise; ns/op is
	// the cost of the pair. A scan learns the order of a conjunction from the
	// rows each clause passes, so the two agree within a few percent — the
	// worst-first scan pays the textual order on its first partition only.
	// Evaluated as written, worst-first costs three full-column passes more.
	b.Run("conjunction", func(b *testing.B) {
		const parts = 32
		ds, err := dataset.ByName("kdd", dataset.Config{Rows: 4500 * parts, Parts: parts, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "t.ps3")
		if _, err := store.WriteFile(path, ds.Table); err != nil {
			b.Fatal(err)
		}
		reader, err := store.Open(path, store.Options{CacheBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer reader.Close()
		sel := make([]query.WeightedPartition, parts)
		for i := range sel {
			sel[i] = query.WeightedPartition{Part: i, Weight: 1 + float64(i%7)/4}
		}
		clauses := []query.Pred{
			&query.Clause{Col: "service", Op: query.OpEq, Strs: []string{"http"}},
			&query.Clause{Col: "src_bytes", Op: query.OpLt, Num: 1032},
			&query.Clause{Col: "count", Op: query.OpGe, Num: 2},
			&query.Clause{Col: "flag", Op: query.OpIn, Strs: []string{"SF", "S0"}},
		}
		compile := func(clauses []query.Pred) *query.Compiled {
			c, err := query.Compile(&query.Query{
				GroupBy: []string{"protocol_type"},
				Pred:    &query.And{Children: clauses},
				Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("dst_bytes")}, {Kind: query.Count}},
			}, reader)
			if err != nil {
				b.Fatal(err)
			}
			c.Exec = exec.Options{Parallelism: 1}
			return c
		}
		best := compile(clauses)
		worst := compile([]query.Pred{clauses[3], clauses[2], clauses[1], clauses[0]})
		scan := func(c *query.Compiled) time.Duration {
			t0 := time.Now()
			if _, err := c.Estimate(reader, sel); err != nil {
				b.Fatal(err)
			}
			return time.Since(t0)
		}
		scan(best) // load every block and decode what the scans read twice
		scan(worst)
		b.ResetTimer()
		var bestNs, worstNs time.Duration
		for i := 0; i < b.N; i++ {
			bestNs += scan(best)
			worstNs += scan(worst)
		}
		b.ReportMetric(float64(bestNs)/float64(b.N), "best-first-ns/op")
		b.ReportMetric(float64(worstNs)/float64(b.N), "worst-first-ns/op")
		b.ReportMetric(float64(worstNs)/float64(bestNs), "worst/best")
	})
}

// trainFixture returns an untrained system and training queries for the
// MakeExamples (offline pass) benchmarks.
func trainFixture(b *testing.B, parallelism int) (*System, []*Query) {
	b.Helper()
	ds, err := dataset.ByName("aria", dataset.Config{Rows: 40_000, Parts: 64, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := Open(ds.Table, Options{Workload: ds.Workload, Seed: 5, Parallelism: parallelism})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewGenerator(ds.Workload, ds.Table, 23)
	if err != nil {
		b.Fatal(err)
	}
	return sys, gen.SampleN(24)
}

// BenchmarkTrainSequential is the single-worker baseline of the offline
// example-preparation pass (one full scan per training query).
func BenchmarkTrainSequential(b *testing.B) {
	sys, qs := trainFixture(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.MakeExamples(qs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainParallel fans MakeExamples out across queries and reports
// the speedup over the sequential pass measured in-run.
func BenchmarkTrainParallel(b *testing.B) {
	seq, qs := trainFixture(b, 1)
	seqStart := time.Now()
	if _, err := seq.MakeExamples(qs); err != nil {
		b.Fatal(err)
	}
	seqPer := time.Since(seqStart)
	sys, _ := trainFixture(b, 0) // GOMAXPROCS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.MakeExamples(qs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	parPer := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(seqPer)/float64(parPer), "speedup")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

func BenchmarkExactRun(b *testing.B) {
	env := benchEnv(b, "aria")
	q := env.TestEx[0].Query
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Sys.RunExact(q); err != nil {
			b.Fatal(err)
		}
	}
}

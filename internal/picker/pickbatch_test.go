package picker

import (
	"math/rand"
	"testing"
	"time"

	"ps3/internal/cluster"
	"ps3/internal/exec"
	"ps3/internal/query"
	"ps3/internal/stats"
	"ps3/internal/table"
)

// selectionsEqual compares weighted selections bit for bit (order, partition
// ids, float weights).
func selectionsEqual(a, b []query.WeightedPartition) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Part != b[i].Part || a[i].Weight != b[i].Weight {
			return false
		}
	}
	return true
}

// TestPickBatchMatchesReference is the end-to-end bit-identity contract of
// the batched pick path: for every test query, every budget and every
// parallelism setting, PickBatch must return exactly the selection of
// pickReference (reference feature matrix + per-row funnel walk + exact
// k-means), with identical RNG streams.
func TestPickBatchMatchesReference(t *testing.T) {
	env := newTestEnv(t, 20, 25, Config{Seed: 5})
	budgets := []int{1, 2, 4, 7, 12, 19, 20, 25}
	for qi, ex := range env.exs {
		for _, n := range budgets {
			ref := env.p.pickReference(ex.Query, ex.Features, n, rand.New(rand.NewSource(int64(qi*100+n))))
			for _, par := range []int{1, 2, 0} {
				got := env.p.PickBatch(ex.Query, n, rand.New(rand.NewSource(int64(qi*100+n))), exec.Options{Parallelism: par})
				if !selectionsEqual(ref, got) {
					t.Fatalf("query %d budget %d parallelism %d: PickBatch diverges from reference\nref: %v\ngot: %v",
						qi, n, par, ref, got)
				}
			}
		}
	}
}

// TestPickBatchMatchesReferenceLesions re-runs the bit-identity check under
// every picker variant the paper's experiments pick with: each pipeline
// component disabled (no outliers, no funnel, no clustering, random
// fallback under complex predicates), the factor-analysis pairs, both HAC
// linkages, unbiased exemplars, α sweeps, and trained feature selection
// (a non-empty exclusion set), alone and with unbiased exemplars.
func TestPickBatchMatchesReferenceLesions(t *testing.T) {
	lesions := []Config{
		{Seed: 6, DisableOutlier: true},
		{Seed: 6, DisableRegressor: true},
		{Seed: 6, DisableCluster: true},
		{Seed: 6, MaxPredClauses: 1}, // force the random-fallback branch
		{Seed: 6, Alpha: 1},
		{Seed: 6, Alpha: 3},
		{Seed: 6, UnbiasedExemplar: true},
		{Seed: 6, Algo: AlgoHACWard},
		{Seed: 6, Algo: AlgoHACSingle},
		{Seed: 6, DisableCluster: true, DisableRegressor: true},
		{Seed: 6, DisableRegressor: true, DisableOutlier: true, Algo: AlgoHACWard},
		{Seed: 6, FeatureSelection: true, FeatureSelRestarts: 2},
		{Seed: 6, FeatureSelection: true, FeatureSelRestarts: 2, UnbiasedExemplar: true},
	}
	for li, cfg := range lesions {
		env := newTestEnv(t, 14, 20, cfg)
		if cfg.FeatureSelection && len(env.p.Excluded) == 0 {
			t.Fatalf("lesion %d: feature selection excluded no kind; the exclusion mask goes unexercised", li)
		}
		for qi, ex := range env.exs[:8] {
			for _, n := range []int{2, 5, 9} {
				ref := env.p.pickReference(ex.Query, ex.Features, n, rand.New(rand.NewSource(int64(qi*31+n))))
				got := env.p.PickBatch(ex.Query, n, rand.New(rand.NewSource(int64(qi*31+n))), exec.Options{Parallelism: 0})
				if !selectionsEqual(ref, got) {
					t.Fatalf("lesion %d (%+v) query %d budget %d: PickBatch diverges from reference", li, cfg, qi, n)
				}
			}
		}
	}
}

// TestPickBatchConcurrent hammers one picker from many goroutines (each
// query picked concurrently with itself and others) and checks every result
// against the sequential reference; run under -race this also proves the
// scratch pool and feature plans are data-race free.
func TestPickBatchConcurrent(t *testing.T) {
	env := newTestEnv(t, 18, 22, Config{Seed: 8})
	type job struct{ qi, n, rep int }
	var jobs []job
	for qi := range env.exs[:6] {
		for _, n := range []int{3, 8} {
			for rep := 0; rep < 3; rep++ {
				jobs = append(jobs, job{qi, n, rep})
			}
		}
	}
	want := make([][]query.WeightedPartition, len(jobs))
	for ji, j := range jobs {
		ex := env.exs[j.qi]
		want[ji] = env.p.pickReference(ex.Query, ex.Features, j.n, rand.New(rand.NewSource(int64(j.qi*7+j.n))))
	}
	got := make([][]query.WeightedPartition, len(jobs))
	done := make(chan struct{}, len(jobs))
	for ji, j := range jobs {
		go func(ji int, j job) {
			ex := env.exs[j.qi]
			got[ji] = env.p.PickBatch(ex.Query, j.n, rand.New(rand.NewSource(int64(j.qi*7+j.n))), exec.Options{Parallelism: 2})
			done <- struct{}{}
		}(ji, j)
	}
	for range jobs {
		<-done
	}
	for ji := range jobs {
		if !selectionsEqual(want[ji], got[ji]) {
			t.Fatalf("concurrent PickBatch job %d diverges from sequential reference", ji)
		}
	}
}

// TestPickBatchDegenerateBudgets covers the no-featurization early exits.
func TestPickBatchDegenerateBudgets(t *testing.T) {
	env := newTestEnv(t, 10, 20, Config{Seed: 9})
	ex := env.exs[0]
	if sel := env.p.PickBatch(ex.Query, 0, rand.New(rand.NewSource(1)), exec.Options{}); len(sel) != 0 {
		t.Fatalf("budget 0 selected %d partitions", len(sel))
	}
	sel := env.p.PickBatch(ex.Query, 10, rand.New(rand.NewSource(1)), exec.Options{})
	if len(sel) != 10 {
		t.Fatalf("full budget selected %d partitions, want 10", len(sel))
	}
	for i, wp := range sel {
		if wp.Part != i || wp.Weight != 1 {
			t.Fatalf("full budget selection[%d] = %+v, want {Part:%d Weight:1}", i, wp, i)
		}
	}
	if sel := env.p.PickBatch(ex.Query, 50, rand.New(rand.NewSource(1)), exec.Options{}); len(sel) != 10 {
		t.Fatalf("over-budget selected %d partitions, want 10", len(sel))
	}
}

// TestPickBatchStatsPopulated checks the timing breakdown fields.
func TestPickBatchStatsPopulated(t *testing.T) {
	env := newTestEnv(t, 16, 20, Config{Seed: 10})
	ex := env.exs[0]
	_, st := env.p.PickBatchWithStats(ex.Query, 5, rand.New(rand.NewSource(2)), exec.Options{Parallelism: 1})
	if st.Total <= 0 {
		t.Fatalf("PickStats.Total = %v, want > 0", st.Total)
	}
	if st.Featurize <= 0 || st.Featurize > st.Total {
		t.Fatalf("PickStats.Featurize = %v outside (0, %v]", st.Featurize, st.Total)
	}
}

// TestPickBatchKMeansSkipsDistances: the bounded k-means inside the pick
// path must skip a meaningful share of distance computations. Pick-time
// clusterings are small (tens of points, a couple of Lloyd iterations), so
// the skip fraction here is structurally lower than on the larger
// internal/cluster bench fixture, where the ≥70% bound is asserted; this
// pins the production path at a floor that catches a silently disabled
// pruning pass.
func TestPickBatchKMeansSkipsDistances(t *testing.T) {
	env := newBenchEnv(t, 128, 40)
	var agg cluster.KMeansStats
	clustered := 0
	for _, ex := range env.exs {
		_, st := env.p.PickBatchWithStats(ex.Query, 13, rand.New(rand.NewSource(2)), exec.Options{Parallelism: 1})
		if st.KMeans.PossibleDists == 0 {
			// Some queries take non-clustering branches (random fallback on
			// complex predicates, groups smaller than the budget).
			continue
		}
		clustered++
		agg.Iterations += st.KMeans.Iterations
		agg.PointDists += st.KMeans.PointDists
		agg.PossibleDists += st.KMeans.PossibleDists
	}
	if clustered < 4 {
		t.Fatalf("only %d of %d bench queries reached the clustering stage", clustered, len(env.exs))
	}
	if frac := 1 - float64(agg.PointDists)/float64(agg.PossibleDists); frac < 0.30 {
		t.Fatalf("pick-path bounded k-means skipped only %.1f%% of distances (%d of %d possible), want >= 30%%",
			100*frac, agg.PossibleDists-agg.PointDists, agg.PossibleDists)
	} else {
		t.Logf("pick-path skip fraction: %.3f over %d iterations", frac, agg.Iterations)
	}
}

// newBenchEnv builds a serving-representative environment: a wide table
// (eight numeric + two categorical columns, so the feature space has the
// couple-hundred dimensions real datasets produce) with learnable partition
// importance, and a trained picker.
func newBenchEnv(b testing.TB, parts, rowsPer int) *testEnv {
	b.Helper()
	cols := []table.Column{
		{Name: "g", Kind: table.Categorical},
		{Name: "h", Kind: table.Categorical},
	}
	for _, name := range []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"} {
		cols = append(cols, table.Column{Name: name, Kind: table.Numeric, Positive: true})
	}
	schema := table.MustSchema(cols...)
	bld, err := table.NewBuilder(schema, rowsPer)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	gVals := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < parts*rowsPer; i++ {
		part := i / rowsPer
		nums := make([]float64, len(cols))
		strs := make([]string, len(cols))
		strs[0] = gVals[(part+i%3)%len(gVals)]
		strs[1] = gVals[i%2]
		for c := 2; c < len(cols); c++ {
			nums[c] = float64(part+1)*float64(c) + rng.Float64()*10
		}
		if err := bld.Append(nums, strs); err != nil {
			b.Fatal(err)
		}
	}
	tbl := bld.Finish()
	ts, err := stats.Build(tbl, stats.Options{GroupableCols: []string{"g", "h"}})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := query.NewGenerator(query.Workload{
		GroupableCols: []string{"g", "h"},
		PredicateCols: []string{"c0", "c1", "c2", "c3", "g"},
		AggCols:       []string{"c4", "c5"},
	}, tbl, 29)
	if err != nil {
		b.Fatal(err)
	}
	var exs []Example
	for _, q := range gen.SampleN(16) {
		c, err := query.Compile(q, tbl)
		if err != nil {
			b.Fatal(err)
		}
		totalAns, perPart := c.GroundTruth(tbl)
		exs = append(exs, Example{
			Query:     q,
			Compiled:  c,
			Features:  ts.Features(q),
			Contrib:   Contribution(c, perPart, totalAns),
			PerPart:   perPart,
			TruthVals: c.FinalValues(totalAns),
		})
	}
	p, err := Train(ts, exs, Config{Seed: 12}, exec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return &testEnv{tbl: tbl, ts: ts, p: p, exs: exs}
}

// BenchmarkPick is the acceptance benchmark of the batched pick path,
// swept over the serving budget regime (the paper serves at 1–10%; the
// server default is 5%). Per budget, `reference` is the full-row
// reference pick (reference_test.go) — fresh feature matrix + per-row
// funnel walk + allocating cluster pipeline with exact k-means sweeps — and
// the batch sub-benchmarks run PickBatch at Parallelism=1 and GOMAXPROCS.
// Each batch case reports its in-run speedup over the reference.
//
// The full pick mixes the rebuilt inference path (featurization + funnel,
// where this PR's work lives and the speedup is >3x — see
// BenchmarkPickInference) with the clustering tail, whose exact k-means
// arithmetic is shared by both paths and dilutes the end-to-end ratio as
// the budget (and with it the exemplar count) grows.
func BenchmarkPick(b *testing.B) {
	env := newBenchEnv(b, 128, 40)
	qs := make([]*query.Query, len(env.exs))
	for i, ex := range env.exs {
		qs[i] = ex.Query
	}
	rng := rand.New(rand.NewSource(3))
	for _, bc := range []struct {
		name string
		n    int
	}{
		{"budget1pct", 2},
		{"budget5pct", 6},
		{"budget10pct", 13},
	} {
		n := bc.n
		reference := func(q *query.Query) []query.WeightedPartition {
			return env.p.pickReference(q, env.ts.Features(q), n, rng)
		}
		b.Run(bc.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reference(qs[i%len(qs)])
			}
		})
		b.Run(bc.name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			eo := exec.Options{Parallelism: 1}
			for i := 0; i < b.N; i++ {
				env.p.PickBatch(qs[i%len(qs)], n, rng, eo)
			}
		})
		b.Run(bc.name+"/paired", func(b *testing.B) {
			// Interleaved A/B measurement: each iteration times one reference
			// pick and one batch pick back to back, so both sides see the
			// same machine noise and the reported speedup is a fair per-op
			// ratio even on a loaded host (ns/op here is the cost of the
			// pair, not of either side).
			eo := exec.Options{Parallelism: 1}
			var refNs, batchNs int64
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				t0 := time.Now()
				reference(q)
				t1 := time.Now()
				env.p.PickBatch(q, n, rng, eo)
				refNs += int64(t1.Sub(t0))
				batchNs += int64(time.Since(t1))
			}
			if batchNs > 0 {
				b.ReportMetric(float64(refNs)/float64(batchNs), "speedup")
			}
		})
		b.Run(bc.name+"/batch-parallel", func(b *testing.B) {
			b.ReportAllocs()
			eo := exec.Options{Parallelism: 0} // GOMAXPROCS
			for i := 0; i < b.N; i++ {
				env.p.PickBatch(qs[i%len(qs)], n, rng, eo)
			}
		})
	}
}

// BenchmarkPickInference isolates the learned-picker inference path this
// PR rebuilt — featurization, predicate filter, and the full importance
// funnel — by running the paper's "w/o cluster" lesion (§5.4.1), which
// replaces only the final within-group exemplar clustering with weighted
// random draws. The reference is the same lesion on the full-row
// reference pick, so the ratio measures exactly the batched-inference work.
func BenchmarkPickInference(b *testing.B) {
	env := newBenchEnv(b, 128, 40)
	lesioned := *env.p
	cfg := lesioned.Cfg
	cfg.DisableCluster = true
	lesioned.Cfg = cfg
	p := &lesioned
	qs := make([]*query.Query, len(env.exs))
	for i, ex := range env.exs {
		qs[i] = ex.Query
	}
	rng := rand.New(rand.NewSource(3))
	n := 6 // the server-default 5% budget
	reference := func(q *query.Query) []query.WeightedPartition {
		return p.pickReference(q, env.ts.Features(q), n, rng)
	}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reference(qs[i%len(qs)])
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		const refIters = 30
		refStart := time.Now()
		for i := 0; i < refIters; i++ {
			reference(qs[i%len(qs)])
		}
		refPer := time.Since(refStart) / refIters
		eo := exec.Options{Parallelism: 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.PickBatch(qs[i%len(qs)], n, rng, eo)
		}
		b.StopTimer()
		batchPer := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(refPer)/float64(batchPer), "speedup")
	})
}

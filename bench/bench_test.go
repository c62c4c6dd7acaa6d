package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ps3/internal/dataset"
	"ps3/internal/query"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.99, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{2.0, 2.1, 9.0, 1.9, 2.2}); m != 2.1 {
		t.Errorf("median of an odd sample = %g, want 2.1 (one outlier must not move it)", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even sample = %g, want 2.5", m)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestQueryTiming(t *testing.T) {
	// 4 windows of 1 s, 100 queries each. The host ran at half speed in
	// window 2 (bursts took twice the reference), so its queries took 2 ms
	// instead of 1 ms and at reference speed the phase is uniform. Appends
	// and failures are not query samples.
	var samples []sample
	host := &hostMeter{}
	for w := 0; w < 4; w++ {
		lat, burstNs := int64(1e6), int64(refBurstNs)
		if w == 2 {
			lat, burstNs = 2e6, 2*refBurstNs
		}
		for i := 0; i < 100; i++ {
			at := int64(w)*1e9 + int64(i)*1e6
			samples = append(samples, sample{end: at, latNs: lat})
			host.record(at, burstNs)
		}
	}
	samples = append(samples, sample{end: 5e8, latNs: 9e9, append_: true}, sample{end: 6e8, latNs: 9e9, failed: true})
	scaled, raw, ws := queryTiming(phase{dur: 4e9, samples: samples, host: host}, 4)
	if scaled.queries != 400 || scaled.p50Ms != 1 || scaled.p99Ms != 1 || scaled.qps != 125 {
		t.Errorf("scaled = %+v, want 400 queries at 1 ms and 125/s (window 2's 100 count double)", scaled)
	}
	if raw.queries != 400 || raw.p50Ms != 1 || raw.p99Ms != 2 || raw.qps != 100 {
		t.Errorf("raw = %+v, want 400 queries, p50 1 ms, p99 2 ms, 100/s", raw)
	}
	for w, s := range ws {
		want, factor := 1.0, 1.0
		if w == 2 {
			want, factor = 2, 2
		}
		if s.queries != 100 || s.qps != 100 || s.p50Ms != want || s.hostFactor != factor {
			t.Errorf("window %d = %+v, want 100 queries at %g ms, host factor %g", w, s, want, factor)
		}
	}
}

// Reference values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 12, 11, 30, 13, 12.5, 11.5, 12, 10.5, 13.5}, 10.875, 13.125},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; Python gives %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTimeUnionsOverlappingChildren(t *testing.T) {
	parent := iv{100, 200}
	for _, c := range []struct {
		name     string
		children []iv
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []iv{{110, 120}, {150, 170}}, 70},
		{"overlapping (parallel reads)", []iv{{110, 150}, {130, 160}, {140, 145}}, 50},
		{"touching", []iv{{110, 120}, {120, 130}}, 80},
		{"clipped to the parent", []iv{{50, 110}, {190, 300}}, 80},
		{"outside the parent", []iv{{10, 20}, {300, 400}}, 100},
		{"covering", []iv{{0, 1000}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSummarizeAttributesLayers(t *testing.T) {
	// One request: parse 10, compile 20, pick 100 (featurize 30, funnel 20,
	// k-means 50), scan 200 with two parallel reads (one miss containing a
	// 40 ns positional read, one hit); 10 ns of the request are uncovered.
	spans := []span{
		{Req: 1, ID: 1, Name: spanReq, Start: 0, End: 340},
		{Req: 1, ID: 2, Parent: 1, Name: spanParse, Start: 0, End: 10},
		{Req: 1, ID: 13, Parent: 1, Name: spanCompiledCache, Start: 10, End: 30},
		{Req: 1, ID: 3, Parent: 13, Name: spanCompile, Start: 10, End: 30},
		{Req: 1, ID: 14, Parent: 1, Name: spanPickCache, Start: 30, End: 130},
		{Req: 1, ID: 4, Parent: 14, Name: spanPick, Start: 30, End: 130},
		{Req: 1, ID: 5, Parent: 4, Name: spanFeaturize, Start: 30, End: 60},
		{Req: 1, ID: 6, Parent: 4, Name: spanFunnel, Start: 60, End: 80},
		{Req: 1, ID: 7, Parent: 4, Name: spanKMeans, Start: 80, End: 130},
		{Req: 1, ID: 8, Parent: 1, Name: spanScan, Start: 140, End: 340},
		{Req: 1, ID: 9, Parent: 8, Name: spanRead, Start: 150, End: 250},
		{Req: 1, ID: 10, Parent: 8, Name: spanRead, Start: 200, End: 202},
	}
	shared := []span{{ID: 11, Name: spanReadAt, Start: 160, End: 200}, {ID: 12, Name: spanSync, Start: 0, End: 5}}
	ts := summarize(spans, shared)
	if ts.requests != 1 || ts.reqWallNs != 340 || ts.coveredNs != 330 {
		t.Errorf("requests %d wall %d covered %d, want 1, 340, 330", ts.requests, ts.reqWallNs, ts.coveredNs)
	}
	if ts.parseNs != 10 || ts.compileNs != 20 || ts.featurizeNs != 30 || ts.funnelNs != 20 || ts.kmeansNs != 50 {
		t.Errorf("stage times %+v", ts)
	}
	if ts.scanSelfNs != 100 {
		t.Errorf("scan self %d, want 200 − union(reads) 100", ts.scanSelfNs)
	}
	if ts.missReads != 1 || ts.missReadNs != 100 || ts.missReadAtNs != 40 {
		t.Errorf("misses %d miss ns %d readat ns %d, want 1, 100, 40", ts.missReads, ts.missReadNs, ts.missReadAtNs)
	}
}

func TestRenderSQLRoundTrip(t *testing.T) {
	// Shapes the generator draws rarely or never, then a generated pool per
	// dataset.
	hand := []*query.Query{
		{Aggs: []query.Aggregate{{Kind: query.Count}}},
		{
			Aggs: []query.Aggregate{
				{Kind: query.Sum, Expr: query.Col("a").Sub(query.Col("b")), Name: "agg0"},
				{Kind: query.Avg, Expr: query.Col("a"), Filter: &query.Clause{Col: "s", Op: query.OpEq, Strs: []string{"it's"}}},
			},
			Pred: query.NewAnd(
				query.NewOr(&query.Clause{Col: "a", Op: query.OpLt, Num: -1.5e-7}, &query.Clause{Col: "b", Op: query.OpGe, Num: 1e21}),
				&query.Not{Child: &query.Clause{Col: "s", Op: query.OpIn, Strs: []string{"x y", "O'Neil", ""}}},
				&query.Clause{Col: "a", Op: query.OpNe, Num: 3},
			),
			GroupBy: []string{"s", "u"},
		},
	}
	for _, q := range hand {
		if err := checkRoundTrip(q, renderSQL(q)); err != nil {
			t.Error(err)
		}
	}
	for _, name := range []string{"aria", "kdd"} {
		ds, err := dataset.ByName(name, dataset.Config{Rows: 4000, Parts: 8, Seed: dataSeed})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := query.NewGenerator(ds.Workload, ds.Table, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range gen.SampleN(300) {
			if err := checkRoundTrip(q, renderSQL(q)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	// The renderer exists because the canonical form is not parseable.
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}, Pred: &query.Clause{Col: "s", Op: query.OpEq, Strs: []string{"v"}}}
	if err := checkRoundTrip(q, q.String()); err == nil {
		t.Log("Query.String() now round-trips through sql.Parse; renderSQL may be retired")
	}
}

func TestPlanIsSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		w.Pool = min(w.Pool, 120)
		ds, err := dataset.ByName(w.Fixture.Dataset, dataset.Config{Rows: 4000, Parts: 8, Seed: dataSeed})
		if err != nil {
			t.Fatal(err)
		}
		a, err := newPlan(w, ds.Workload, ds.Table, 5, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlan(w, ds.Workload, ds.Table, 5, 8)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newPlan(w, ds.Workload, ds.Table, 6, 8)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(a.sqls, "\n") != strings.Join(b.sqls, "\n") {
			t.Errorf("%s: same seed gave different query pools", w.Name)
		}
		for i := range a.seq {
			if a.seq[i] != b.seq[i] {
				t.Fatalf("%s: same seed gave different operation %d", w.Name, i)
			}
		}
		for i := range a.batches {
			for r := range a.batches[i].num {
				for col := range a.batches[i].num[r] {
					x, y := a.batches[i].num[r][col], b.batches[i].num[r][col]
					if math.Float64bits(x) != math.Float64bits(y) || a.batches[i].cat[r][col] != b.batches[i].cat[r][col] {
						t.Fatalf("%s: same seed gave different append batch %d", w.Name, i)
					}
				}
			}
		}
		// Another seed keeps the pool and changes the order of arrival.
		samePool := strings.Join(a.sqls, "\n") == strings.Join(c.sqls, "\n")
		sameSeq := true
		for i := range a.seq {
			sameSeq = sameSeq && a.seq[i] == c.seq[i]
		}
		if !samePool || sameSeq {
			t.Errorf("%s: another seed must keep the pool (same: %v) and change the order (same: %v)", w.Name, samePool, sameSeq)
		}
		if w.ZipfS == 0 {
			// Ad-hoc traffic visits every pool query once per cycle.
			seen := make([]bool, w.Pool)
			for _, q := range a.seq {
				seen[q] = true
			}
			for q, ok := range seen {
				if !ok || len(a.seq) != w.Pool {
					t.Fatalf("%s: the order is not a permutation of the pool (query %d, %d operations)", w.Name, q, len(a.seq))
				}
			}
		}
		if strings.Join(renderAll(a.audit), "\n") != strings.Join(renderAll(c.audit), "\n") {
			t.Errorf("%s: the audit pool must not depend on the seed", w.Name)
		}
		if (len(a.batches) > 0) != (w.AppendsPerSec > 0) {
			t.Errorf("%s: %d append batches for %d appends a second", w.Name, len(a.batches), w.AppendsPerSec)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json must sit at the root of the repository: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of step with the tables in metrics.go and workloads.go; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEndMetrics {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better) must be an end-to-end metric")
	}
	for _, m := range perLayerMetrics {
		name(m.Name)
	}
	for _, m := range append(append([]metricDecl(nil), endToEndMetrics...), perLayerMetrics...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the contract's unit rule", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if n := len(perLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
}

func TestDiffVerdicts(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, p50, spread float64) string {
		rf := &resultFile{Runs: 10, Rows: []row{
			{Workload: "adhoc-pick", Metric: "query_p50_ms", Kind: "end_to_end", Unit: "ms", Better: "lower", Bound: 0.10, Value: p50, Spread: spread},
			{Workload: "adhoc-pick", Metric: "query_qps", Kind: "end_to_end", Unit: "1/s", Better: "higher", Bound: 0.10, Value: 100 / p50, Spread: spread},
			{Workload: "adhoc-pick", Metric: "picker.pick_ms", Kind: "per_layer", Unit: "ms", Better: "lower", Value: p50},
		}}
		path := filepath.Join(dir, name)
		if err := writeResult(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("old.json", 1.0, 0.02)
	for _, c := range []struct {
		name    string
		p50, sp float64
		ok      bool
		verdict string
	}{
		{"same.json", 1.02, 0.02, true, "ok"},
		{"slow.json", 1.25, 0.02, false, "regressed"},
		{"fast.json", 0.50, 0.02, true, "ok"},
		{"noisy.json", 1.25, 0.30, true, "unresolved"},
	} {
		var out bytes.Buffer
		ok, err := diffFiles(&out, base, mk(c.name, c.p50, c.sp))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok=%v, want %v with verdict %q in:\n%s", c.name, ok, c.ok, c.verdict, out.String())
		}
		if !strings.Contains(out.String(), "base: old = 1.0000") {
			t.Errorf("%s: ratios must be printed with their base:\n%s", c.name, out.String())
		}
	}
}

// TestSmoke runs every workload, end-to-end and traced, at test size: the
// harness must keep building, serving, verifying and reporting every
// declared metric. Run it under GOMAXPROCS=1, 2 and N; the run takes its
// processor and client counts from GOMAXPROCS.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			res, err := runOne(runOpts{
				workload: w, seed: 3, seconds: 0.6, trace: trace, smoke: true,
				dir: dir, outDir: filepath.Join(dir, "out"), log: &log,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not reported", w.Name, trace, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w.Name, trace, m.Name, v.Unit, m.Unit)
				case !trace && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.Name, m.Name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(dir, "out", w.Name+".seed3.trace.jsonl")); err != nil {
					t.Errorf("%s: trace not written: %v", w.Name, err)
				}
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run-") {
			t.Errorf("scratch directory %s left behind", e.Name())
		}
	}
}

func renderAll(qs []*query.Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = renderSQL(q)
	}
	return out
}

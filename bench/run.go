package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ps3/internal/fault"
)

// Timing plan of one run. --seconds is the measured interval; warm-up,
// set-up and verification come on top.
const (
	// numWindows cuts the measured interval into the windows the host factor
	// is taken over: long enough for ~50 bursts each at --seconds 10, short
	// enough to follow a host whose speed changes within seconds.
	numWindows = 10
	// warmShare of --seconds is spent on untimed warm-up first.
	warmShare = 0.15
	// setupRepeats: set-up is timed this many times per end-to-end run and
	// the median reported, because a single set-up is too short a sample to
	// gate on.
	setupRepeats = 3
	// The traced run splits --seconds between a window on the real server
	// (counters), a window on the replayed pipeline (spans) and the HTTP
	// transport probe.
	counterShare = 0.40
	spanShare    = 0.40
	httpShare    = 0.15
)

// runOpts selects one run: one workload, one seed, tracing on or off.
type runOpts struct {
	workload workloadSpec
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks fixtures and pools to test size and skips the regime
	// assertions, which only hold at the committed sizes.
	smoke bool
	// dir is the scratch root for fixtures; outDir receives the trace.
	dir, outDir string
	log         io.Writer
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run reports: the contract's four keys.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// set stores a metric under its declared unit.
func (r *runResult) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// count folds a phase's operations into attempted/failed.
func (r *runResult) count(samples []sample) {
	for _, sm := range samples {
		r.Attempted++
		if sm.failed {
			r.Failed++
		}
	}
}

// run is the state one run threads through its steps.
type run struct {
	o     runOpts
	w     workloadSpec // o.workload at the size in force
	hw    hardware
	res   *runResult
	sys   *system
	plan  *plan
	d     *driver
	rec   *recorder
	tfs   *timingFS          // nil with tracing off
	layer map[string]float64 // per-layer figures by metric name
}

func (r *run) dur(share float64) time.Duration {
	return time.Duration(share * r.o.seconds * float64(time.Second))
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.o.log, format, args...) }

// runOne executes one run and returns its result; err is a harness failure
// (the run could not be carried out), not a verification failure.
func runOne(o runOpts) (*runResult, error) {
	r := &run{o: o, w: o.workload, hw: detectHardware(), rec: newRecorder(), layer: map[string]float64{},
		res: &runResult{Correct: true, Metrics: map[string]metricValue{}}}
	runtime.GOMAXPROCS(r.hw.GoMaxProcs)
	spec := r.w.Fixture
	audit := auditQueries
	if o.smoke {
		spec = smokeSpec(spec)
		r.w.Pool = min(r.w.Pool, 300) // still larger than the 256-entry compiled cache
		audit = 32
	}
	r.logf("workload %s (seed %d, %gs, trace %v): %s\n", r.w.Name, o.seed, o.seconds, o.trace, r.w.Why)
	r.logf("%s\n", r.hw.describe())

	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var fsys fault.FS = fault.OS
	if o.trace {
		r.tfs = newTimingFS(r.rec)
		fsys = r.tfs
	}
	repeats := setupRepeats
	if o.trace || o.smoke {
		repeats = 1
	}
	var setupS, setupRaw, setupFactor []float64
	for i := 0; i < repeats; i++ {
		if r.sys != nil {
			r.sys.close()
			if err := os.RemoveAll(r.sys.dir); err != nil {
				return nil, err
			}
			r.sys = nil
			runtime.GC()
		}
		t0 := time.Now()
		factor, err := during(func() (err error) {
			r.sys, err = setup(spec, r.w, filepath.Join(work, fmt.Sprintf("setup-%d", i)), fsys, r.rec)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		raw := time.Since(t0).Seconds()
		setupS, setupRaw, setupFactor = append(setupS, raw/factor), append(setupRaw, raw), append(setupFactor, factor)
	}
	defer r.sys.close()
	r.logf("%s\n", r.sys.describe())
	if r.w.AppendsPerSec > 0 {
		r.logf("ingest: commit window %v, %d rows per partition, publish tail %v, one writer sending %d %d-row appends a second (open loop, latency from the due time), fresh directory\n",
			commitWindow, spec.Rows/spec.Parts, publishTail, r.w.AppendsPerSec, appendRows)
	}

	r.plan, err = newPlan(r.w, r.sys.workload, r.sys.table, o.seed, audit)
	if err != nil {
		return nil, err
	}
	r.sys.dropTable()
	r.d = &driver{s: r.sys, p: r.plan, budget: r.w.Budget, clients: r.hw.Clients}
	if r.w.AppendsPerSec > 0 {
		// The writer is one of the client threads, so that the load
		// generator never has more of them than processors.
		r.d.appendEvery = time.Second / time.Duration(r.w.AppendsPerSec)
		r.d.clients = max(1, r.hw.Clients-1)
	}
	r.logf("load: closed loop, %d query clients (≤ MaxInFlight %d, so admission never queues and no wait is reported), budget %.2f, pool %d queries\n",
		r.d.clients, 2*r.hw.GoMaxProcs, r.w.Budget, r.w.Pool)

	r.res.count(r.d.runFor(r.dur(warmShare), r.d.query).samples)
	if o.trace {
		if err := r.traced(); err != nil {
			return nil, err
		}
	} else {
		r.res.set("setup_s", median(setupS))
		r.logf("  %-26s %12.4f s      median of %d set-ups %.3f at reference host speed; as measured %.3f, host factors %.3f\n",
			"setup_s", median(setupS), len(setupS), setupS, setupRaw, setupFactor)
		r.endToEnd()
	}
	if err := r.verify(); err != nil {
		return nil, err
	}

	if !o.smoke {
		for _, c := range r.w.Regime {
			v, ok := r.layer[c.Metric]
			switch {
			case !ok:
				r.res.fail("regime assertion %s: metric not measured", c)
			case !c.holds(v):
				r.res.fail("regime assertion %s is false: measured %.4f", c, v)
			default:
				r.logf("  regime: %s holds (%.4f)\n", c, v)
			}
		}
	}
	if r.res.Failed > 0 {
		r.res.fail("%d of %d operations failed (fail_frac %.6f > 0)", r.res.Failed, r.res.Attempted, float64(r.res.Failed)/float64(r.res.Attempted))
	}
	if o.trace {
		for _, m := range perLayerMetrics {
			r.res.set(m.Name, r.layer[m.Name])
		}
		printLayers(o.log, r.res)
	}
	for _, p := range r.res.problems {
		r.logf("FAIL: %s\n", p)
	}
	return r.res, nil
}

// measure runs a timed interval on the real server and derives the figures
// that come for free from counters (the regime assertions read them on
// every run, traced or not).
func (r *run) measure(dur time.Duration) phase {
	c0 := r.sys.reader.CacheStats()
	var f0 int64
	if r.sys.pipe != nil {
		f0 = r.sys.pipe.Stats().Flushes
	}
	ph := r.d.runFor(dur, r.d.query)
	r.res.count(ph.samples)
	c1 := r.sys.reader.CacheStats()
	t := tallyOf(ph.samples)
	r.layer["picker.pick_frac"] = ratio(float64(t.pickNs), float64(t.latNs))
	r.layer["picker.selcache_hit_rate"] = ratio(float64(t.pickHits), float64(t.queries))
	r.layer["store.cache_hit_rate"] = ratio(float64(c1.Hits-c0.Hits), float64(c1.Hits-c0.Hits+c1.Misses-c0.Misses))
	if r.sys.pipe != nil {
		r.layer["ingest.flushes"] = float64(r.sys.pipe.Stats().Flushes - f0)
		r.layer["ingest.flushes_per_10s"] = r.layer["ingest.flushes"] * 10 / dur.Seconds()
	}
	return ph
}

// endToEnd is the --trace 0 body: --seconds of load on the real server with
// tracing off, its query timing taken over the whole interval and scaled to
// reference host speed (calib.go).
func (r *run) endToEnd() {
	ph := r.measure(r.dur(1))
	scaled, raw, ws := queryTiming(ph, numWindows)
	report := func(name string, pick func(timing) float64) {
		lo, hi := pick(ws[0].timing), pick(ws[0].timing)
		for _, w := range ws[1:] {
			lo, hi = min(lo, pick(w.timing)), max(hi, pick(w.timing))
		}
		r.res.set(name, pick(scaled))
		r.logf("  %-26s %12.4f %-6s over %d queries at reference host speed; as measured %.4f, per window [min %.4f, max %.4f]\n",
			name, pick(scaled), unitOf(name), scaled.queries, pick(raw), lo, hi)
	}
	report("query_p50_ms", func(t timing) float64 { return t.p50Ms })
	report("query_p99_ms", func(t timing) float64 { return t.p99Ms })
	report("query_qps", func(t timing) float64 { return t.qps })
	factors := make([]float64, len(ws))
	for i, w := range ws {
		factors[i] = w.hostFactor
		if w.queries == 0 {
			r.res.fail("timed window %d completed no query", i)
		}
	}
	r.logf("  host factor per window %.3f (burst time / %d ns reference; > 1 = host slower than reference)\n", factors, refBurstNs)
	t := tallyOf(ph.samples)
	r.res.set("parts_read_per_query", ratio(float64(t.partsN), float64(t.queries)))
	r.logf("  %-26s %12.4f count  mean over %d queries\n", "parts_read_per_query", ratio(float64(t.partsN), float64(t.queries)), t.queries)
}

// traced is the --trace 1 body: a counter window on the real server, a span
// window on the replayed pipeline, and the HTTP transport probe. Per-layer
// times are raw; host.speed_factor says how the host ran meanwhile.
func (r *run) traced() error {
	sys, layer := r.sys, r.layer

	// Counter window: the real server, spans off. Everything here is a
	// delta of a counter some layer already keeps, or of the timing
	// filesystem's.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st0, fs0, enc0, c0 := sys.srv.Stats(), r.tfs.counters(), sys.reader.EncodingStats(), sys.reader.CacheStats()
	counterDur := r.dur(counterShare)
	ph := r.measure(counterDur)
	runtime.ReadMemStats(&m1)
	st1, fs1, enc1, c1 := sys.srv.Stats(), r.tfs.counters(), sys.reader.EncodingStats(), sys.reader.CacheStats()
	fsd := fs1.sub(fs0)
	t := tallyOf(ph.samples)
	nq := float64(t.queries)
	untracedP50 := percentile(t.queryLatMs, 0.5)

	layer["host.speed_factor"] = ph.host.factor(0, int64(counterDur))
	layer["picker.pick_ms"] = nsToMs(t.pickNs, t.queries)
	layer["serve.compiled_cache_hit_rate"] = ratio(float64(t.compiledHits), nq)
	layer["serve.overhead_ms"] = percentile(t.overheadMs, 0.5)
	layer["serve.heap_alloc_bytes_per_query"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), nq)
	layer["serve.gc_pause_ms_total"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	layer["serve.sheds"] = float64(st1.Sheds - st0.Sheds)
	layer["serve.deadlines"] = float64(st1.Deadlines - st0.Deadlines)
	layer["serve.degraded"] = float64(st1.Degraded - st0.Degraded)
	layer["store.io_ms_per_query"] = ratio(float64(fsd.ReadNs)/1e6, nq)
	layer["store.read_ops_per_query"] = ratio(float64(fsd.ReadOps), nq)
	layer["store.read_bytes_per_query"] = ratio(float64(fsd.ReadBytes), nq)
	layer["store.evictions_per_query"] = ratio(float64(c1.Evictions-c0.Evictions), nq)
	layer["store.loaded_bytes_per_query"] = ratio(float64(c1.LoadedBytes-c0.LoadedBytes), nq)
	layer["store.lazy_decode_bytes_per_query"] = ratio(float64(enc1.LazyDecodeBytes-enc0.LazyDecodeBytes), nq)
	layer["store.compression_ratio"] = enc1.Ratio
	layer["query.encoded_kernel_evals_per_query"] = ratio(float64(st1.EncodedKernelEvals-st0.EncodedKernelEvals), nq)
	layer["query.rows_scanned_per_s"] = ratio(float64(t.partsN)*float64(sys.spec.Rows/sys.spec.Parts), counterDur.Seconds())

	if sys.pipe != nil {
		ev := sys.events.snapshot()
		appended := float64(t.appends) * appendRows
		userBytes := appended * float64(sys.rowBytes)
		layer["ingest.append_rows_per_s"] = ratio(appended, counterDur.Seconds())
		layer["ingest.append_ack_ms_p50"] = percentile(t.appendLatMs, 0.5)
		layer["ingest.append_p99_ms"] = percentile(t.appendLatMs, 0.99)
		layer["ingest.fsyncs_per_append"] = ratio(float64(fsd.Syncs), float64(t.appends))
		layer["ingest.write_ops"] = float64(fsd.WriteOps)
		layer["ingest.write_bytes_per_user_byte"] = ratio(float64(fsd.WriteBytes), userBytes)
		layer["ingest.wal_bytes_per_user_byte"] = ratio(float64(fsd.WALBytes), userBytes)
		layer["ingest.segment_bytes_per_user_byte"] = ratio(float64(fsd.SegmentBytes), userBytes)
		layer["ingest.flush_publish_ms_p50"], layer["ingest.flush_publish_ms_max"] = p50Max(ev.flushNs)
		layer["serve.swap_ms_p50"], layer["serve.swap_ms_max"] = p50Max(ev.swapNs)
		layer["serve.swaps"] = float64(st1.Swaps - st0.Swaps)
	}

	// Span window: the replayed pipeline with spans on.
	rp := newReplayer(sys, r.rec, r.w.Budget, r.d.clients)
	r.rec.on.Store(true)
	sp := r.d.runFor(r.dur(spanShare), func(c int, i int64) sample { return rp.query(c, r.d.text(i)) })
	r.rec.on.Store(false)
	r.res.count(sp.samples)
	spans, shared := rp.allSpans(), r.rec.takeShared()
	ts := summarize(spans, shared)
	n := ts.requests
	layer["sql.parse_us"] = nsToMs(ts.parseNs, n) * 1e3
	layer["query.compile_us"] = nsToMs(ts.compileNs, n) * 1e3
	layer["stats.featurize_ms"] = nsToMs(ts.featurizeNs, n)
	layer["picker.funnel_ms"] = nsToMs(ts.funnelNs, n)
	layer["cluster.kmeans_ms"] = nsToMs(ts.kmeansNs, n)
	layer["cluster.iterations"] = ratio(float64(rp.km.iterations), float64(rp.picks))
	if rp.km.possibleDists > 0 {
		layer["cluster.skipped_dist_frac"] = 1 - float64(rp.km.pointDists)/float64(rp.km.possibleDists)
	}
	layer["query.scan_self_ms"] = nsToMs(ts.scanSelfNs, n)
	layer["store.read_miss_ms"] = nsToMs(ts.missReadNs, ts.missReads)
	layer["store.load_cpu_ms_per_query"] = nsToMs(ts.missReadNs-ts.missReadAtNs, n)
	layer["core.trace_coverage"] = ratio(float64(ts.coveredNs), float64(ts.reqWallNs))
	layer["core.tracing_overhead_frac"] = ratio(percentile(tallyOf(sp.samples).queryLatMs, 0.5)-untracedP50, untracedP50)
	if cov := layer["core.trace_coverage"]; cov < 0.95 || cov > 1.05 {
		r.res.fail("core.trace_coverage %.4f outside [0.95, 1.05]", cov)
	}

	// HTTP probe, then peak RSS (a high-water mark, so read it last).
	layer["serve.http_overhead_ms"] = httpOverhead(r)
	layer["serve.rss_peak_mb"] = peakRSSMB()

	tracePath := filepath.Join(r.o.outDir, fmt.Sprintf("%s.seed%d.trace.jsonl", r.w.Name, r.o.seed))
	all := append(spans, shared...)
	sort.Slice(all, func(a, b int) bool { return all[a].Start < all[b].Start })
	if err := writeJSONL(tracePath, all); err != nil {
		return err
	}
	r.logf("trace: %d spans of %d replayed requests (+%d shared fs/ingest spans) written to %s\n", len(spans), n, len(shared), tracePath)
	return nil
}

// p50Max returns the median and the maximum of a nanosecond sample in ms.
func p50Max(ns []int64) (p50, max float64) {
	if len(ns) == 0 {
		return 0, 0
	}
	ms := make([]float64, len(ns))
	for i, v := range ns {
		ms[i] = float64(v) / 1e6
	}
	sort.Float64s(ms)
	return percentile(ms, 0.5), ms[len(ms)-1]
}

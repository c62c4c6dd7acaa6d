package main

import (
	"fmt"
	"math/rand"

	"ps3/internal/query"
	"ps3/internal/table"
)

// workloadSpec is one traffic mix. Names are fixed: later issues cite them.
type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why     string
	Fixture fixtureSpec
	Budget  float64
	// Pool is the number of distinct queries traffic draws from. The pool
	// itself is part of the workload, the same for every -seed (see plan).
	Pool int
	// ZipfS > 1 draws queries Zipf(s) over the pool; 0 cycles through the
	// pool in a seed-drawn order. Which query holds which Zipf rank rotates
	// every zipfRotate queries (see newPlan).
	ZipfS float64
	// CacheFrac sets the block-cache budget to this share of the fixture's
	// encoded working set; 0 keeps the store default (256 MiB).
	CacheFrac float64
	// AppendsPerSec > 0 adds a paced write stream: an appendRows-row append
	// falls due this many times a second and the next free client sends it.
	AppendsPerSec int
	// Regime lists the assertions that make the workload what its Why
	// claims; a false one fails the run.
	Regime []regimeCheck
}

// regimeCheck bounds one per-layer figure from one side.
type regimeCheck struct {
	Metric string
	AtMost bool // true: value ≤ Bound; false: value ≥ Bound
	Bound  float64
}

func (c regimeCheck) String() string {
	if c.AtMost {
		return fmt.Sprintf("%s ≤ %g", c.Metric, c.Bound)
	}
	return fmt.Sprintf("%s ≥ %g", c.Metric, c.Bound)
}

func (c regimeCheck) holds(v float64) bool {
	if c.AtMost {
		return v <= c.Bound
	}
	return v >= c.Bound
}

// minFlushCycles is the least number of flush → publish → swap cycles a
// mixed-ingest run must complete per ten seconds measured, so its tail
// latency really is the cost of ingest to readers.
const minFlushCycles = 20

var workloads = []workloadSpec{
	{
		Name:    "adhoc-pick",
		Why:     "ad-hoc exploration over many small partitions: 4096 distinct queries defeat both serve caches, so sql, compile, featurize, funnel and k-means do most of the work and the resident store almost none",
		Fixture: ariaMany, Budget: 0.10, Pool: 4096,
		Regime: []regimeCheck{
			{Metric: "picker.pick_frac", Bound: 0.6},
			{Metric: "store.cache_hit_rate", Bound: 0.99},
		},
	},
	{
		Name:    "adhoc-scan",
		Why:     "the same ad-hoc traffic over few large partitions with a block cache a quarter of the working set: disk reads, CRC, block parse, eviction, lazy decode and encoded kernels dominate, the picker is small",
		Fixture: kddBig, Budget: 0.10, Pool: 4096, CacheFrac: 0.25,
		Regime: []regimeCheck{
			{Metric: "picker.pick_frac", AtMost: true, Bound: 0.25},
			{Metric: "store.cache_hit_rate", AtMost: true, Bound: 0.6},
		},
	},
	{
		Name:    "repeat-zipf",
		Why:     "dashboard traffic, Zipf(1.3) over 200 templates: the compiled-query and pick-result caches absorb most requests, so the median is serve overhead plus warm kernels and the tail is the pick-miss path",
		Fixture: ariaMany, Budget: 0.05, Pool: 200, ZipfS: 1.3,
		Regime: []regimeCheck{
			{Metric: "picker.selcache_hit_rate", Bound: 0.9},
		},
	},
	{
		Name:    "mixed-ingest",
		Why:     "writes beside reads: Zipf queries beside 192 64-row appends a second, so flushes extend stats, cut segments and swap snapshots that empty both serve caches; p99 is the cost of ingest to readers",
		Fixture: kddBig, Budget: 0.05, Pool: 200, ZipfS: 1.3, AppendsPerSec: 192,
		Regime: []regimeCheck{
			{Metric: "ingest.flushes_per_10s", Bound: minFlushCycles},
		},
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// zipfLen is the length of a Zipf workload's precomputed draw sequence;
// clients cycle through it (a run issues fewer queries than this).
const zipfLen = 1 << 17

// batchPool is the number of distinct precomputed append batches.
const batchPool = 128

// A workload's query pool is part of the workload, drawn once from poolSeed
// and the same for every -seed: the ad-hoc users' questions, the dashboards'
// definitions. -seed decides the order they arrive in. With seed-drawn pools
// the timings measured the draw: queries differ severalfold in cost, so a
// median over a few thousand of them moved by 2-3 % from pool to pool, and
// Zipf(1.3), which sends a third of the traffic to rank 1, reported the
// latency of whichever query the seed ranked first (seeds differed sixfold).
//
// Ad-hoc traffic cycles through the whole pool in a seed-drawn permutation
// (cyclic access over a pool larger than an LRU never hits it). Zipf traffic
// draws ranks from the seed and moves the ranks on by zipfStride queries
// every zipfRotate draws, from a seed-drawn start: the skew and the cache
// behaviour stay (every template fits both serve caches), and a run makes
// every template the hot one about as often as every other.
const (
	zipfRotate = 64
	zipfStride = 37 // coprime to the pool size, so the rotation visits every template
)

// appendBatch is one append in server wire form.
type appendBatch struct {
	num [][]float64
	cat [][]string
}

// plan is a workload's inputs: the fixed query pool (as SQL text) and audit
// pool, and what -seed decides — the order queries arrive in and the append
// batches. The same seed gives the identical plan; the served system never
// sees the seed.
type plan struct {
	queries []*query.Query
	sqls    []string
	// audit is the fixed accuracy-audit pool (auditSeed).
	audit []*query.Query
	// seq[i] is the pool index of the i-th query; clients cycle through it.
	seq     []int32
	batches []appendBatch
}

// newPlan draws the workload's plan over the fixture's resident table (query
// constants and append rows are sampled from real data).
func newPlan(w workloadSpec, wl query.Workload, tbl *table.Table, seed int64, audit int) (*plan, error) {
	gen, err := query.NewGenerator(wl, tbl, poolSeed)
	if err != nil {
		return nil, err
	}
	auditGen, err := query.NewGenerator(wl, tbl, auditSeed)
	if err != nil {
		return nil, err
	}
	p := &plan{queries: gen.SampleN(w.Pool), audit: auditGen.SampleN(audit)}
	for _, q := range p.audit {
		if err := checkRoundTrip(q, renderSQL(q)); err != nil {
			return nil, err
		}
	}
	if len(p.queries) < w.Pool {
		return nil, fmt.Errorf("workload %s: only %d distinct queries sampled, want %d", w.Name, len(p.queries), w.Pool)
	}
	p.sqls = make([]string, len(p.queries))
	for i, q := range p.queries {
		p.sqls[i] = renderSQL(q)
		if err := checkRoundTrip(q, p.sqls[i]); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(seed))
	if w.ZipfS > 1 {
		zipf := rand.NewZipf(rng, w.ZipfS, 1, uint64(w.Pool-1))
		start := rng.Intn(w.Pool)
		p.seq = make([]int32, zipfLen)
		for i := range p.seq {
			shift := start + i/zipfRotate*zipfStride
			p.seq[i] = int32((int(zipf.Uint64()) + shift) % w.Pool)
		}
	} else {
		p.seq = make([]int32, w.Pool)
		for i, j := range rng.Perm(w.Pool) {
			p.seq[i] = int32(j)
		}
	}
	if w.AppendsPerSec > 0 {
		p.batches = make([]appendBatch, batchPool)
		for b := range p.batches {
			p.batches[b] = sampleBatch(tbl, rng)
		}
	}
	return p, nil
}

// sampleBatch copies appendRows consecutive rows of a random partition into
// append wire form. Replaying existing rows keeps the dictionary and value
// ranges those of the base table, so appended partitions look like base
// ones to the statistics and the encoders.
func sampleBatch(tbl *table.Table, rng *rand.Rand) appendBatch {
	p := tbl.Parts[rng.Intn(len(tbl.Parts))]
	start := rng.Intn(p.Rows())
	cols := tbl.Schema.Cols
	b := appendBatch{num: make([][]float64, appendRows), cat: make([][]string, appendRows)}
	for i := 0; i < appendRows; i++ {
		r := (start + i) % p.Rows()
		nr := make([]float64, len(cols))
		cr := make([]string, len(cols))
		for c, col := range cols {
			if col.IsNumeric() {
				nr[c] = p.NumCol(c)[r]
			} else {
				cr[c] = tbl.Dict.Value(p.CatCol(c)[r])
			}
		}
		b.num[i], b.cat[i] = nr, cr
	}
	return b
}

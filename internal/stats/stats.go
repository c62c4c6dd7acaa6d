// Package stats implements PS3's statistics builder (paper §3): it computes
// the per-partition, per-column lightweight sketches at ingest time, derives
// the summary-statistics feature vectors of Table 2 (measures, distinct
// values, heavy hitters, occurrence bitmaps, selectivity estimates), applies
// the query-dependent column mask, and normalizes features for clustering
// and learning (Appendix B).
package stats

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ps3/internal/cluster"
	"ps3/internal/exec"
	"ps3/internal/sketch"
	"ps3/internal/table"
)

// Options configures the statistics builder.
type Options struct {
	// HistogramBuckets per column histogram (0 = paper default 10).
	HistogramBuckets int
	// AKMVK is the AKMV budget (0 = paper default 128).
	AKMVK int
	// HHSupport is the heavy-hitter support threshold (0 = paper default 1%).
	HHSupport float64
	// BitmapK caps the global heavy hitters tracked per grouping column for
	// the occurrence bitmap (0 = paper default 25).
	BitmapK int
	// GroupableCols lists columns that may appear in GROUP BY clauses of the
	// workload; occurrence bitmaps are computed only for these (§3.2).
	GroupableCols []string
	// Parallelism bounds builder goroutines (0 = GOMAXPROCS).
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.HistogramBuckets <= 0 {
		o.HistogramBuckets = sketch.DefaultHistogramBuckets
	}
	if o.AKMVK <= 0 {
		o.AKMVK = sketch.DefaultAKMVK
	}
	if o.HHSupport <= 0 {
		o.HHSupport = sketch.DefaultHHSupport
	}
	if o.BitmapK <= 0 {
		o.BitmapK = 25
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// ColumnStats bundles the sketches of one column within one partition.
type ColumnStats struct {
	Measures *sketch.Measures    // numeric columns only
	Hist     *sketch.Histogram   // numeric: values; categorical: hash-derived
	AKMV     *sketch.AKMV        // all columns
	HH       *sketch.HeavyHitter // all columns (ids: code or value hash)
	Dict     *sketch.ExactDict   // categorical columns only
}

// PartitionStats holds the sketches for every column of one partition plus
// derived artifacts used by the picker.
type PartitionStats struct {
	Part int
	Rows int
	Cols []ColumnStats
	// Bitmap[c] is the occurrence bitmap of the partition for groupable
	// column c: bit i set iff global heavy hitter i of column c is also a
	// heavy hitter of this partition (§3.2). Only present for groupable
	// categorical columns.
	Bitmap map[int]uint32
}

// TableStats is the full statistics store for a table: one PartitionStats
// per partition plus the table-global artifacts (global heavy hitters per
// groupable column) and the feature space.
type TableStats struct {
	Schema *table.Schema
	Dict   *table.Dict
	Opts   Options
	Parts  []*PartitionStats
	// GlobalHH[c] lists the global heavy-hitter dictionary codes of
	// groupable column c, ranked by total count, capped at BitmapK.
	GlobalHH map[int][]uint32
	// Space describes the feature vector layout.
	Space *FeatureSpace
	// base is the precomputed query-independent feature matrix, stored
	// row-major (partition i's features at [i*M, (i+1)*M)); selectivity
	// slots are zero and filled per query. Built once at Build/ReadStats
	// time, it is the query-static half of featurization: FeaturePlan.FillRow
	// only copies it and fills the query-dependent slots.
	base []float64

	// norm is the normalized base matrix and its rank index under the
	// fitted scale it was built with (Normalized); normMu serializes its
	// builds, never its reads.
	norm   atomic.Pointer[Normalized]
	normMu sync.Mutex
}

// Base returns the query-independent feature matrix, row-major with stride
// Dim(): partition i's features with the selectivity slots left at zero.
// What a query changes about a row is only those four slots and which
// columns' slots are masked to zero, which is what lets the picker fold the
// funnel's conditions on base values once per binding. The returned slice
// aliases the store; callers must not mutate it.
func (ts *TableStats) Base() []float64 { return ts.base }

// Normalized is the query-independent feature matrix normalized under one
// fitted scale, with a rank index over its columns. It is immutable once
// published: readers share it without a lock.
type Normalized struct {
	// Vals is row-major with stride Dim(): partition i's row is exactly
	// FeatureSpace.NormalizeValue of its base row, slot by slot. Entries at
	// the selectivity slots are the normalization of zero and must be
	// recomputed by callers from per-query values. Callers must not mutate
	// it.
	Vals []float64
	// Ranks ranks every partition in each column of Vals (the medians of
	// cluster.MedianExemplars); its columns are built on first use.
	Ranks *cluster.RankIndex
	scale []float64
}

// Normalized returns the normalized matrix under the space's current
// scale, building it on the first call after a fit (Fit replaces the scale
// wholesale, once per training). A store made by ExtendedWith from one that
// already had it starts with it. Safe for concurrent use; a call that finds
// the matrix built takes no lock.
func (ts *TableStats) Normalized() *Normalized {
	if nv := ts.norm.Load(); nv != nil && sameScale(nv.scale, ts.Space.Scale) {
		return nv
	}
	ts.normMu.Lock()
	defer ts.normMu.Unlock()
	if nv := ts.norm.Load(); nv != nil && sameScale(nv.scale, ts.Space.Scale) {
		return nv
	}
	m := ts.Space.Dim()
	nv := &Normalized{Vals: make([]float64, len(ts.base)), scale: ts.Space.Scale}
	ts.normalizeRows(nv.Vals, 0)
	nv.Ranks = cluster.NewRankIndex(nv.Vals, len(ts.Parts), m)
	ts.norm.Store(nv)
	return nv
}

// normalizeRows fills rows [from, len(ts.Parts)) of dst with the normalized
// base rows.
func (ts *TableStats) normalizeRows(dst []float64, from int) {
	m := ts.Space.Dim()
	for p := from; p < len(ts.Parts); p++ {
		row := ts.base[p*m : (p+1)*m]
		out := dst[p*m : (p+1)*m]
		for j, x := range row {
			out[j] = ts.Space.NormalizeValue(j, x)
		}
	}
}

// sameScale reports whether two scale slices are the same fitted scale
// (identity comparison: Fit replaces the slice wholesale).
func sameScale(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// Build constructs all sketches for every partition of t, derives global
// heavy hitters and occurrence bitmaps, and assembles the feature space.
func Build(t *table.Table, opts Options) (*TableStats, error) {
	opts = opts.withDefaults()
	// Resolve groupable columns into a deduplicated index slice, keeping
	// slice order for the derivation loops below: iterating a map here cost
	// run-to-run determinism once already (fixed in PR 1's sweep).
	seen := make(map[int]bool)
	var groupCis []int
	for _, name := range opts.GroupableCols {
		ci := t.Schema.ColIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("stats: groupable column %q not in schema", name)
		}
		if !seen[ci] {
			seen[ci] = true
			groupCis = append(groupCis, ci)
		}
	}
	ts := &TableStats{
		Schema:   t.Schema,
		Dict:     t.Dict,
		Opts:     opts,
		Parts:    make([]*PartitionStats, len(t.Parts)),
		GlobalHH: make(map[int][]uint32),
	}

	// Build per-partition sketches on the shared bounded pool; each
	// partition is one pass, and results land in index order.
	exec.ForEach(len(t.Parts), exec.Options{Parallelism: opts.Parallelism}, func(i int) {
		ts.Parts[i] = buildPartition(t.Schema, t.Parts[i], opts)
	})

	// Global heavy hitters per groupable categorical column: merge
	// per-partition HH lists and rank by total count (§3.2).
	for _, ci := range groupCis {
		if t.Schema.Col(ci).Kind != table.Categorical {
			continue
		}
		totals := make(map[uint64]int64)
		for _, ps := range ts.Parts {
			for _, item := range ps.Cols[ci].HH.Items() {
				totals[item.ID] += item.Count
			}
		}
		type hhTotal struct {
			id    uint64
			count int64
		}
		ranked := make([]hhTotal, 0, len(totals))
		for id, c := range totals { //lint:mapiter-ok ranked is fully sorted by (count, id) below before use
			ranked = append(ranked, hhTotal{id, c})
		}
		sort.Slice(ranked, func(a, b int) bool {
			if ranked[a].count != ranked[b].count {
				return ranked[a].count > ranked[b].count
			}
			return ranked[a].id < ranked[b].id
		})
		if len(ranked) > opts.BitmapK {
			ranked = ranked[:opts.BitmapK]
		}
		codes := make([]uint32, len(ranked))
		for j, r := range ranked {
			codes[j] = uint32(r.id)
		}
		ts.GlobalHH[ci] = codes
	}

	// Per-partition occurrence bitmaps, in groupable-column order.
	for _, ps := range ts.Parts {
		ps.Bitmap = make(map[int]uint32)
		for _, ci := range groupCis {
			codes, ok := ts.GlobalHH[ci]
			if !ok {
				continue // non-categorical groupable column
			}
			var bm uint32
			for bit, code := range codes {
				if ps.Cols[ci].HH.Contains(uint64(code)) {
					bm |= 1 << uint(bit)
				}
			}
			ps.Bitmap[ci] = bm
		}
	}

	ts.Space = newFeatureSpace(t.Schema, ts.GlobalHH, opts)
	ts.base = ts.buildBaseMatrix()
	return ts, nil
}

// buildPartition computes every sketch for one partition in one pass per
// column.
func buildPartition(s *table.Schema, p *table.Partition, opts Options) *PartitionStats {
	ps := &PartitionStats{Part: p.ID, Rows: p.Rows(), Cols: make([]ColumnStats, s.NumCols())}
	for ci, col := range s.Cols {
		cs := ColumnStats{
			Hist: sketch.NewHistogram(opts.HistogramBuckets),
			AKMV: sketch.NewAKMV(opts.AKMVK),
			HH:   sketch.NewHeavyHitter(opts.HHSupport),
		}
		if col.IsNumeric() {
			cs.Measures = sketch.NewMeasures(col.Positive)
			vals := p.NumCol(ci)
			for _, v := range vals {
				cs.Measures.Add(v)
				cs.Hist.Add(v)
				h := sketch.Hash64(math.Float64bits(v))
				cs.AKMV.Add(h)
				cs.HH.Add(h)
			}
		} else {
			cs.Dict = sketch.NewExactDict(0)
			codes := p.CatCol(ci)
			for _, c := range codes {
				// Categorical histograms are built over value hashes mapped
				// to [0,1): they only support existence-style estimates.
				h := sketch.Hash64(uint64(c))
				cs.Hist.Add(float64(h) / float64(math.MaxUint64))
				cs.AKMV.Add(h)
				cs.HH.Add(uint64(c))
				cs.Dict.Add(c)
			}
		}
		cs.Hist.Finalize()
		cs.AKMV.Finalize()
		cs.HH.Finalize()
		ps.Cols[ci] = cs
	}
	return ps
}

// SizeBreakdown reports the average per-partition storage of each sketch
// family in bytes: total, histogram, heavy hitter, AKMV, measures (+ exact
// dictionaries counted with heavy hitters' family? No — dictionaries are
// reported inside the AKMV/dv family since they serve distinct-value
// estimates). Reproduces Table 4.
type SizeBreakdown struct {
	Total, Histogram, HH, AKMV, Measure float64
}

// Sizes returns the average per-partition storage footprint in bytes.
func (ts *TableStats) Sizes() SizeBreakdown {
	var b SizeBreakdown
	if len(ts.Parts) == 0 {
		return b
	}
	for _, ps := range ts.Parts {
		for _, cs := range ps.Cols {
			b.Histogram += float64(cs.Hist.SizeBytes())
			b.HH += float64(cs.HH.SizeBytes())
			b.AKMV += float64(cs.AKMV.SizeBytes())
			if cs.Dict != nil {
				b.AKMV += float64(cs.Dict.SizeBytes())
			}
			if cs.Measures != nil {
				b.Measure += float64(cs.Measures.SizeBytes())
			}
		}
	}
	n := float64(len(ts.Parts))
	b.Histogram /= n
	b.HH /= n
	b.AKMV /= n
	b.Measure /= n
	b.Total = b.Histogram + b.HH + b.AKMV + b.Measure
	return b
}

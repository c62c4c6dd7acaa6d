// Package ps3 is the public API of this repository: a from-scratch Go
// reproduction of "Approximate Partition Selection for Big-Data Workloads
// using Summary Statistics" (Rong et al., VLDB 2020).
//
// PS3 answers single-table aggregation queries approximately by reading only
// a subset of data partitions and combining the partial answers with
// weights. The selection is driven entirely by lightweight per-partition
// summary statistics — measures, equi-depth histograms, AKMV distinct-value
// sketches and lossy-counting heavy hitters — plus a learned importance
// funnel, similarity clustering and heavy-hitter-bitmap outlier detection.
//
// # Quick start
//
//	schema := ps3.MustSchema(
//	    ps3.Column{Name: "price", Kind: ps3.Numeric, Positive: true},
//	    ps3.Column{Name: "region", Kind: ps3.Categorical},
//	)
//	b, _ := ps3.NewBuilder(schema, 1000) // 1000 rows per partition
//	// ... b.Append(...) for every row ...
//	tbl := b.Finish()
//
//	sys, _ := ps3.Open(tbl, ps3.Options{Workload: ps3.Workload{
//	    GroupableCols: []string{"region"},
//	    PredicateCols: []string{"price", "region"},
//	    AggCols:       []string{"price"},
//	}})
//	gen, _ := ps3.NewGenerator(sys.Opts.Workload, tbl, 42)
//	_ = sys.Train(gen.SampleN(200), nil) // offline, once per workload
//
//	q := &ps3.Query{
//	    Aggs:    []ps3.Aggregate{{Kind: ps3.Sum, Expr: ps3.Col("price")}},
//	    GroupBy: []string{"region"},
//	}
//	res, _ := sys.Run(q, 0.01) // read ~1% of partitions
//
// The sub-packages live under internal/ and are re-exported here; see
// DESIGN.md for the system inventory, internal/experiments for the code
// that reproduces the paper's tables and figures (run by cmd/ps3bench), and
// CHANGES.md for the measured record of every change.
package ps3

import (
	"io"

	"ps3/internal/core"
	"ps3/internal/picker"
	"ps3/internal/query"
	"ps3/internal/serve"
	"ps3/internal/stats"
	"ps3/internal/table"
)

// --- Storage substrate (internal/table) ---

// Table is a partitioned columnar dataset with partition-granular access.
type Table = table.Table

// Schema is an ordered list of columns.
type Schema = table.Schema

// Column describes one column of a schema.
type Column = table.Column

// ColumnKind enumerates column storage types.
type ColumnKind = table.Kind

// Column kinds.
const (
	Numeric     = table.Numeric
	Categorical = table.Categorical
	Date        = table.Date
)

// Builder ingests rows and seals them into fixed-size partitions.
type Builder = table.Builder

// Dict is the shared dictionary encoding categorical values.
type Dict = table.Dict

// Partition is one immutable chunk of rows.
type Partition = table.Partition

// MustSchema builds a schema, panicking if two columns share a name; for
// static schemas.
func MustSchema(cols ...Column) *Schema { return table.MustSchema(cols...) }

// NewBuilder returns a table builder producing partitions of rowsPerPart
// rows.
func NewBuilder(s *Schema, rowsPerPart int) (*Builder, error) {
	return table.NewBuilder(s, rowsPerPart)
}

// PartitionSource is the seam between query execution and partition
// storage: a fully resident *Table, or a paged store reader that faults
// picked partitions in from disk through a bounded cache.
type PartitionSource = table.PartitionSource

// --- Query model (internal/query) ---

// Query is a single-table aggregation query within PS3's scope (§2.2 of the
// paper): SUM/COUNT/AVG aggregates over linear column expressions, an
// optional predicate tree, and an optional GROUP BY.
type Query = query.Query

// Aggregate is one aggregate in the SELECT list; a non-nil Filter restricts
// it to matching rows (the CASE-condition rewrite of §2.2).
type Aggregate = query.Aggregate

// AggKind enumerates aggregate functions.
type AggKind = query.AggKind

// Aggregate kinds.
const (
	Sum   = query.Sum
	Count = query.Count
	Avg   = query.Avg
)

// LinearExpr is a ±-linear combination of numeric columns plus a constant.
type LinearExpr = query.LinearExpr

// Col returns the expression consisting of one column.
func Col(name string) LinearExpr { return query.Col(name) }

// Pred is a predicate tree node: And, Or, Not or Clause.
type Pred = query.Pred

// Clause is a single-column comparison (c op v).
type Clause = query.Clause

// And, Or, Not are predicate combinators.
type (
	And = query.And
	Or  = query.Or
	Not = query.Not
)

// Comparison operators for clauses.
const (
	OpEq = query.OpEq
	OpNe = query.OpNe
	OpLt = query.OpLt
	OpLe = query.OpLe
	OpGt = query.OpGt
	OpGe = query.OpGe
	OpIn = query.OpIn
)

// Workload declares the aggregate functions, predicate columns and group-by
// columnsets PS3 is trained for.
type Workload = query.Workload

// Generator samples random queries from a workload over a concrete table.
type Generator = query.Generator

// NewGenerator validates the workload against the source's schema and
// returns a seeded query sampler; constants are drawn from actual rows of
// src, which may be a resident table or a paged store.
func NewGenerator(w Workload, src PartitionSource, seed int64) (*Generator, error) {
	return query.NewGenerator(w, src, seed)
}

// WeightedPartition is one (partition, weight) choice in a sample; partial
// answers combine as Σ wᵢ·Aᵢ (paper §2.4).
type WeightedPartition = query.WeightedPartition

// --- System facade (internal/core) ---

// System is a PS3 instance bound to one table and workload: statistics
// builder + trained partition picker + weighted executor. Partition picking
// runs on a batched inference path: per-query features fill a pooled
// row-major scratch matrix (in parallel across partition blocks) and the
// learned funnel evaluates whole partition batches on flat struct-of-arrays
// tree ensembles — bit-identical to the retained reference pipeline, several
// times faster, and allocation-free per partition.
type System = core.System

// Options configures a System. Options.Parallelism bounds the worker
// goroutines of the shared partition-scan engine (internal/exec) used by
// Run, RunExact, and Train's example preparation; 0 means GOMAXPROCS, and
// answers are bit-identical at every setting.
type Options = core.Options

// Result is the outcome of an approximate query execution. Its PickTime and
// ScanTime fields split the latency between partition selection and the
// weighted scan; the serving layer aggregates the same split into its
// /stats metrics.
type Result = core.Result

// Open builds the summary statistics for t (the offline "stats builder"
// pass); call Train before Run.
func Open(t *Table, opts Options) (*System, error) { return core.New(t, opts) }

// OpenWithStats binds a System to t using a pre-built statistics store
// (e.g. restored via ReadStats), skipping the sketch-building pass.
func OpenWithStats(t *Table, ts *TableStats, opts Options) (*System, error) {
	return core.NewFromStats(t, ts, opts)
}

// OpenSnapshot restores a trained System from a snapshot written with
// System.WriteTo and binds it to src — a resident *Table, or a paged store
// for out-of-core serving where only picked partitions are ever loaded. A
// snapshot bundles the statistics store, the trained picker (and LSS
// baseline, if fitted) and the options, so a fresh process cold-starts with
// zero retraining and produces bit-identical selections and answers to the
// process that trained.
func OpenSnapshot(r io.Reader, src PartitionSource) (*System, error) {
	return core.OpenSnapshot(r, src)
}

// --- Serving layer (internal/serve) ---

// Server is a long-lived, concurrency-safe query service over a trained
// System: compiled-query LRU cache, per-request RNG derivation, bounded
// in-flight scans, and request/latency counters. Its Handler method exposes
// the HTTP/JSON API that cmd/ps3serve listens on.
type Server = serve.Server

// ServeConfig tunes a Server (default budget, cache size, max in-flight).
type ServeConfig = serve.Config

// ServeMetrics is a point-in-time snapshot of a Server's counters,
// including the pick-time vs scan-time latency breakdown (AvgPickMs,
// AvgScanMs, PickFrac) and, on store-backed systems, partition-cache
// counters.
type ServeMetrics = serve.Metrics

// NewServer returns a serving layer over a trained (typically
// snapshot-restored) system.
func NewServer(sys *System, cfg ServeConfig) (*Server, error) { return serve.New(sys, cfg) }

// --- Statistics ---

// StatsOptions configures the statistics builder (histogram buckets, AKMV
// k, heavy-hitter support, bitmap width).
type StatsOptions = stats.Options

// TableStats is the per-partition summary-statistics store.
type TableStats = stats.TableStats

// ReadStats deserializes a statistics store written with TableStats.WriteTo.
// The store is fully usable for feature extraction and partition picking
// without access to the original data — the paper's deployment model, where
// sketches live separately from partitions (§2.3.1).
var ReadStats = stats.ReadStats

// --- Variance analysis (Appendix D) ---

// PartitionVsRowVariance compares the true estimator variance of uniform
// partition-level vs row-level Poisson sampling at the same sampling
// fraction (Appendix D.2, Eq 4–5): partition-level is larger by the cross
// terms of rows sharing a partition.
func PartitionVsRowVariance(partitionTotals []float64, rowValues [][]float64, p float64) (partVar, rowVar float64) {
	return picker.PartitionVsRowVariance(partitionTotals, rowValues, p)
}

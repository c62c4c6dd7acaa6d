// Package core is PS3's public facade: it ties the statistics builder
// (internal/stats), the partition picker (internal/picker) and the query
// engine (internal/query) into the two-phase system of Fig 1:
//
//	sys, _ := core.New(tbl, core.Options{Workload: wl})
//	_ = sys.Train(trainQueries, nil)             // offline, once per workload
//	res, _ := sys.Run(q, 0.01)                   // online: read 1% of partitions
//	fmt.Println(res.Values, res.PartsRead)
//
// Run replaces the table in the query plan with a weighted set of partition
// choices; partial answers combine linearly per §2.4.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ps3/internal/exec"
	"ps3/internal/picker"
	"ps3/internal/query"
	"ps3/internal/sketch"
	"ps3/internal/stats"
	"ps3/internal/table"
)

// Options configures a System.
type Options struct {
	// Workload declares the aggregate functions and group-by columnsets the
	// picker is trained for (§2.1 "Generalization").
	Workload query.Workload
	// Stats configures the statistics builder; GroupableCols is filled from
	// the workload when empty.
	Stats stats.Options
	// Picker configures the partition picker.
	Picker picker.Config
	// TrainLSS additionally fits the LSS baseline during Train.
	TrainLSS bool
	// LSSBudgets are the budget fractions LSS sweeps strata sizes for.
	LSSBudgets []float64
	// Seed drives query-time randomness.
	Seed int64
	// Parallelism bounds the worker goroutines of every partition scan the
	// system performs — ground truth, estimation, selectivity, and the
	// per-query fan-out of MakeExamples — and of training, whose funnel
	// stages fit concurrently (0 = GOMAXPROCS, matching
	// stats.Options.Parallelism). Answers and trained models are
	// bit-identical at every setting.
	Parallelism int
}

// execOpts converts the concurrency knob into engine options.
func (o Options) execOpts() exec.Options { return exec.Options{Parallelism: o.Parallelism} }

// errNotResident is returned by training entry points on a store-backed
// system: the offline pass scans every partition once per training query,
// which through a bounded page cache would thrash — materialize the store
// into a resident table first (store.Reader.Materialize).
var errNotResident = errors.New("core: training requires a resident table, not a paged source; materialize the store first")

// System is a PS3 instance bound to one partition source and workload.
type System struct {
	// Source is what query execution reads partitions from: a fully
	// resident *table.Table, or a paged store.Reader that faults picked
	// partitions in through a bounded cache.
	Source table.PartitionSource
	// Table is the resident table when the source is one, nil when the
	// system is store-backed. Training (MakeExamples/Train) requires it:
	// the offline pass repeatedly scans every partition, so it is run over
	// materialized data, never through the page cache.
	Table *table.Table
	Stats *stats.TableStats
	Opts  Options

	Picker *picker.Picker
	LSS    *picker.LSS
}

// New builds the summary statistics for t (the offline "stats builder" pass
// of Fig 1). Training is a separate step.
func New(t *table.Table, opts Options) (*System, error) {
	if len(opts.Stats.GroupableCols) == 0 {
		opts.Stats.GroupableCols = opts.Workload.GroupableCols
	}
	if opts.Stats.Parallelism == 0 {
		opts.Stats.Parallelism = opts.Parallelism
	}
	ts, err := stats.Build(t, opts.Stats)
	if err != nil {
		return nil, err
	}
	return &System{Source: t, Table: t, Stats: ts, Opts: opts}, nil
}

// NewFromStats binds a System to a partition source using a pre-built
// statistics store — typically one restored with stats.ReadStats, matching
// the paper's deployment where sketches are computed at ingest and persisted
// separately from the data. The store's schema must match the source's. The
// source may be a resident *table.Table or a paged store reader.
func NewFromStats(src table.PartitionSource, ts *stats.TableStats, opts Options) (*System, error) {
	schema := src.TableSchema()
	if len(ts.Parts) != src.NumParts() {
		return nil, fmt.Errorf("core: stats cover %d partitions, table has %d", len(ts.Parts), src.NumParts())
	}
	if got, want := len(ts.Schema.Cols), len(schema.Cols); got != want {
		return nil, fmt.Errorf("core: stats schema has %d columns, table has %d", got, want)
	}
	for i, c := range ts.Schema.Cols {
		if schema.Cols[i] != c {
			return nil, fmt.Errorf("core: stats column %d is %+v, table has %+v", i, c, schema.Cols[i])
		}
	}
	s := &System{Source: src, Stats: ts, Opts: opts}
	if t, ok := src.(*table.Table); ok {
		s.Table = t
	}
	return s, nil
}

// MakeExamples prepares training/evaluation examples for a set of queries:
// feature matrices, exact per-partition answers, ground truth, and partition
// contributions. This is the expensive offline pass (one full scan per
// query); examples are reusable across training and evaluation. The scans
// run in parallel across queries — the dominant offline cost — with each
// query's own scan kept sequential so the pool is not oversubscribed.
func (s *System) MakeExamples(queries []*query.Query) ([]picker.Example, error) {
	if s.Table == nil {
		return nil, errNotResident
	}
	return exec.MapErr(len(queries), s.Opts.execOpts(), func(i int) (picker.Example, error) {
		ex, err := s.makeExample(queries[i], exec.Options{Parallelism: 1})
		if err != nil {
			return picker.Example{}, fmt.Errorf("core: preparing query %q: %w", queries[i], err)
		}
		return ex, nil
	})
}

// MakeExample prepares one example, parallelizing its full scan across
// partitions.
func (s *System) MakeExample(q *query.Query) (picker.Example, error) {
	if s.Table == nil {
		return picker.Example{}, errNotResident
	}
	return s.makeExample(q, s.Opts.execOpts())
}

func (s *System) makeExample(q *query.Query, eo exec.Options) (picker.Example, error) {
	c, err := query.Compile(q, s.Table)
	if err != nil {
		return picker.Example{}, err
	}
	c.Exec = eo
	total, perPart := c.GroundTruth(s.Table)
	// The compiled query outlives this scan inside the example; later scans
	// through it (e.g. selectivity bucketing in experiments) should use the
	// system's parallelism, not the fan-out-local setting.
	c.Exec = s.Opts.execOpts()
	return picker.Example{
		Query:     q,
		Compiled:  c,
		Features:  s.Stats.Features(q),
		Contrib:   picker.Contribution(c, perPart, total),
		PerPart:   perPart,
		TruthVals: c.FinalValues(total),
	}, nil
}

// compile binds q to the system's source and threads the concurrency knob
// into the scan engine.
func (s *System) compile(q *query.Query) (*query.Compiled, error) {
	c, err := query.Compile(q, s.Source)
	if err != nil {
		return nil, err
	}
	c.Exec = s.Opts.execOpts()
	return c, nil
}

// Train fits the picker (and optionally the LSS baseline) on the given
// training queries. Pre-built examples may be passed to avoid recomputing
// ground truth; pass nil to have Train build them, which requires a
// resident table (store-backed systems restore a trained snapshot or
// materialize first).
func (s *System) Train(queries []*query.Query, examples []picker.Example) error {
	if examples == nil {
		var err error
		examples, err = s.MakeExamples(queries)
		if err != nil {
			return err
		}
	}
	p, err := picker.Train(s.Stats, examples, s.Opts.Picker, s.Opts.execOpts())
	if err != nil {
		return err
	}
	s.Picker = p
	if s.Opts.TrainLSS {
		budgets := s.Opts.LSSBudgets
		if len(budgets) == 0 {
			budgets = []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
		}
		l, err := picker.TrainLSS(s.Stats, examples, budgets, s.Opts.Seed+7)
		if err != nil {
			return err
		}
		s.LSS = l
	}
	return nil
}

// Pick selects a weighted partition sample for q at the given budget
// (fraction of partitions to read). The system must be trained. Picking
// runs picker.PickBatch: the selectivity estimates are computed into pooled
// scratch (in parallel across partition blocks, bounded by
// Options.Parallelism) and the funnel regressors score whole groups from
// their fold tables — the same selection at every parallelism setting, and
// the same as the full-row reference pick in picker's tests.
func (s *System) Pick(q *query.Query, budgetFrac float64) ([]query.WeightedPartition, error) {
	sel, _, err := s.PickWithStats(q, budgetFrac)
	return sel, err
}

// PickWithStats is Pick with the picker's timing breakdown (total,
// featurization, clustering) for latency accounting.
func (s *System) PickWithStats(q *query.Query, budgetFrac float64) ([]query.WeightedPartition, picker.PickStats, error) {
	return s.PickParts(q, s.PartsForBudget(budgetFrac))
}

// PartsForBudget resolves a fractional budget to the partition count Pick
// reads (≥1, ≤ the partition count). The serve layer keys its pick-result
// cache on this resolved count, so budgets that round to the same count
// share cache entries.
func (s *System) PartsForBudget(frac float64) int {
	return budgetParts(frac, s.Source.NumParts())
}

// PickParts is Pick for an already-resolved partition count. The randomness
// stream depends only on the system seed and the query text (pickRNG), so
// repeated calls with equal arguments return identical selections — which is
// what makes pick results cacheable.
func (s *System) PickParts(q *query.Query, n int) ([]query.WeightedPartition, picker.PickStats, error) {
	if s.Picker == nil {
		return nil, picker.PickStats{}, fmt.Errorf("core: system is not trained; call Train first")
	}
	sel, st := s.Picker.PickBatchWithStats(q, n, s.pickRNG(q), s.Opts.execOpts())
	return sel, st, nil
}

// pickRNG derives the query-time randomness stream: the system seed mixed
// with a hash of the full query text, so distinct queries get independent
// streams (length alone collides — every equal-length query would share one
// stream) while repeated runs of the same query stay deterministic. Each
// call returns a fresh generator, which is what makes Pick and Run safe to
// invoke from concurrent requests.
func (s *System) pickRNG(q *query.Query) *rand.Rand {
	return rand.New(rand.NewSource(s.Opts.Seed ^ int64(sketch.HashString(q.String()))))
}

// Result is the outcome of an approximate query execution.
type Result struct {
	// Values maps group keys to final aggregate values.
	Values map[string][]float64
	// Labels maps group keys to human-readable group labels.
	Labels map[string]string
	// Groups is the answer as RunSelectionGroupsCtx renders it, in place of
	// Values and Labels: the groups under their labels, ascending by label
	// (strings.Compare). Read-only: see query.Group.
	Groups []query.Group
	// Selection is the weighted partition sample that was read.
	Selection []query.WeightedPartition
	// PartsRead and FracRead account the I/O spent.
	PartsRead int
	FracRead  float64
	// PickTime and ScanTime split the execution latency into partition
	// selection (featurization + funnel + clustering) and the weighted
	// partition scan; the serve layer aggregates them into its /stats
	// breakdown. Zero on RunExact, which does not pick.
	PickTime time.Duration
	ScanTime time.Duration
	// Degraded reports that quarantined partitions were dropped from the
	// selection before scanning: the answer covers less data than the
	// picker chose, and SkippedParts lists what was excluded. A degraded
	// answer is never silently wrong — callers surface the flag (the serve
	// layer returns it per response) so the client can decide whether a
	// partial answer is acceptable. Always false on RunExact, which fails
	// rather than degrade.
	Degraded     bool
	SkippedParts []int
}

// Compile binds q to the system's table, ready for repeated execution via
// RunCompiled. The serve layer caches the result per canonical query text so
// sustained traffic skips predicate compilation; a Compiled is safe for
// concurrent use.
func (s *System) Compile(q *query.Query) (*query.Compiled, error) {
	return s.compile(q)
}

// Run picks partitions for q at the budget, reads them from the source, and
// returns the combined approximate answer.
func (s *System) Run(q *query.Query, budgetFrac float64) (*Result, error) {
	c, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	return s.RunCompiled(c, budgetFrac)
}

// RunCompiled is Run for a pre-compiled query. It is safe for concurrent
// callers: picking derives a fresh per-request RNG, and evaluation state
// lives in per-call (or pooled per-worker) buffers. On a store-backed
// system the picked partitions are faulted in through the page cache.
func (s *System) RunCompiled(c *query.Compiled, budgetFrac float64) (*Result, error) {
	return s.RunCompiledCtx(context.Background(), c, budgetFrac)
}

// RunExact evaluates q exactly over every partition (the baseline a user
// compares against). On a resident table this is the uncharged offline
// oracle scan; on a store-backed system every partition is read through the
// source — an exact scan over paged data is real I/O. Both paths combine
// per-partition answers in partition order, so the results are
// bit-identical (weight-1 accumulation equals plain summation in IEEE-754).
func (s *System) RunExact(q *query.Query) (*Result, error) {
	return s.RunExactCtx(context.Background(), q)
}

// uncachedReader is the optional capability a paged source offers for
// full scans that must not disturb its partition cache (store.Reader's
// ReadUncached).
type uncachedReader interface {
	ReadUncached(i int) (*table.Partition, error)
}

// exactScanSource routes an exact scan's reads around the source's
// partition cache when the source supports it: one RunExact over a paged
// store must not evict the approximate-serving working set. Sources
// without the capability (resident tables) pass through unchanged.
func exactScanSource(src table.PartitionSource) table.PartitionSource {
	if u, ok := src.(uncachedReader); ok {
		return &uncachedSource{PartitionSource: src, u: u}
	}
	return src
}

// uncachedSource is a PartitionSource whose Read bypasses the cache.
type uncachedSource struct {
	table.PartitionSource
	u uncachedReader
}

func (s *uncachedSource) Read(i int) (*table.Partition, error) { return s.u.ReadUncached(i) }

// budgetParts converts a fractional budget to a partition count (≥1).
func budgetParts(frac float64, total int) int {
	n := int(frac*float64(total) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	return n
}

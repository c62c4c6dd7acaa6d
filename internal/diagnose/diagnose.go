// Package diagnose implements the diagnostic procedures the paper calls for
// in §7 ("Developing error guarantees and diagnostic procedures for failure
// cases will be of immediate value to practitioners"): given a query, the
// statistics store and the trained workload, it flags the failure modes the
// paper documents —
//
//   - GROUP BY on high-cardinality columns (§2.2: sampling cannot help;
//     any downsampling misses groups),
//   - predicates too complex for clustering features (Appendix B.1: the
//     picker falls back to random selection past 10 clauses),
//   - highly selective predicates (§4.2: features are computed over whole
//     partitions and stop being representative when few rows match),
//   - queries referencing columns outside the trained workload (§2.1: the
//     picker should be retrained on workload change).
package diagnose

import (
	"fmt"

	"ps3/internal/query"
	"ps3/internal/stats"
)

// Severity grades a finding.
type Severity uint8

const (
	// Info findings describe conditions worth knowing but not acting on.
	Info Severity = iota
	// Warn findings predict degraded accuracy.
	Warn
	// Critical findings predict PS3 performing no better than (or worse
	// than) uniform sampling; the caller should consider exact execution or
	// plain uniform samples.
	Critical
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	default:
		return "critical"
	}
}

// Code identifies the failure mode a finding refers to.
type Code string

const (
	CodeHighCardinalityGroupBy Code = "high-cardinality-group-by"
	CodeComplexPredicate       Code = "complex-predicate"
	CodeHighlySelective        Code = "highly-selective-predicate"
	CodeUntrainedColumns       Code = "untrained-columns"
	CodeNoMatchingPartitions   Code = "no-matching-partitions"
)

// Finding is one diagnostic result.
type Finding struct {
	Severity Severity
	Code     Code
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s", f.Severity, f.Code, f.Message)
}

// Options tunes the thresholds; zero values take defaults matching the
// paper's observations.
type Options struct {
	// MaxGroups is the distinct-count above which a GROUP BY column is
	// flagged (default 1000; "moderate distinctiveness", §2.2).
	MaxGroups float64
	// MaxPredClauses mirrors the picker's clustering fallback (default 10).
	MaxPredClauses int
	// MinSelectivity is the estimated fraction of matching rows below which
	// clustering features stop being representative (default 0.001).
	MinSelectivity float64
}

func (o Options) withDefaults() Options {
	if o.MaxGroups <= 0 {
		o.MaxGroups = 1000
	}
	if o.MaxPredClauses <= 0 {
		o.MaxPredClauses = 10
	}
	if o.MinSelectivity <= 0 {
		o.MinSelectivity = 0.001
	}
	return o
}

// Query inspects one query against the statistics store and the trained
// workload, returning all findings (empty means no known failure mode
// applies).
func Query(q *query.Query, ts *stats.TableStats, wl query.Workload, opts Options) []Finding {
	opts = opts.withDefaults()
	var out []Finding
	out = append(out, checkGroupBy(q, ts, opts)...)
	out = append(out, checkPredicate(q, ts, opts)...)
	out = append(out, checkWorkload(q, wl)...)
	return out
}

// checkGroupBy flags group-by columns whose estimated distinct count is too
// high for sampling to preserve groups.
func checkGroupBy(q *query.Query, ts *stats.TableStats, opts Options) []Finding {
	var out []Finding
	for _, g := range q.GroupBy {
		ci := ts.Schema.ColIndex(g)
		if ci < 0 {
			continue
		}
		// Estimate the table-level distinct count as the max per-partition
		// AKMV estimate (a lower bound on the true table-level count, which
		// is enough to trigger the flag) scaled by the share of partitions
		// that could hold disjoint values. We use the conservative lower
		// bound: max over partitions.
		var est float64
		for _, ps := range ts.Parts {
			if e := ps.Cols[ci].AKMV.DistinctEstimate(); e > est {
				est = e
			}
		}
		if est > opts.MaxGroups {
			out = append(out, Finding{
				Severity: Critical,
				Code:     CodeHighCardinalityGroupBy,
				Message: fmt.Sprintf("column %q has ≥%.0f distinct values in a single partition; "+
					"sampling cannot preserve that many groups (§2.2) — answer exactly or drop the GROUP BY", g, est),
			})
		}
	}
	return out
}

// checkPredicate flags complex and highly selective predicates using the
// same selectivity features the picker consumes.
func checkPredicate(q *query.Query, ts *stats.TableStats, opts Options) []Finding {
	var out []Finding
	if q.Pred == nil {
		return out
	}
	if n := len(query.Clauses(q.Pred)); n > opts.MaxPredClauses {
		out = append(out, Finding{
			Severity: Warn,
			Code:     CodeComplexPredicate,
			Message: fmt.Sprintf("predicate has %d clauses (> %d); clustering features are unreliable "+
				"and the picker falls back to random selection within importance groups (Appendix B.1)",
				n, opts.MaxPredClauses),
		})
	}
	rows := ts.Features(q)
	if len(rows) == 0 {
		return out
	}
	upSlot, indepSlot, _, _ := ts.Space.SelectivitySlots()
	matching := 0
	var indepSum float64
	for _, r := range rows {
		if r[upSlot] > 0 {
			matching++
		}
		indepSum += r[indepSlot]
	}
	if matching == 0 {
		out = append(out, Finding{
			Severity: Info,
			Code:     CodeNoMatchingPartitions,
			Message:  "no partition can contain matching rows (selectivity upper bound is 0 everywhere); the exact answer is empty",
		})
		return out
	}
	if avg := indepSum / float64(len(rows)); avg < opts.MinSelectivity {
		out = append(out, Finding{
			Severity: Warn,
			Code:     CodeHighlySelective,
			Message: fmt.Sprintf("estimated selectivity ≈ %.4f%%: partition-level features are computed over "+
				"whole partitions and stop being representative when few rows match (§4.2)", avg*100),
		})
	}
	return out
}

// checkWorkload flags query columns absent from the trained workload.
func checkWorkload(q *query.Query, wl query.Workload) []Finding {
	trained := map[string]bool{}
	for _, c := range wl.GroupableCols {
		trained[c] = true
	}
	for _, c := range wl.PredicateCols {
		trained[c] = true
	}
	for _, c := range wl.AggCols {
		trained[c] = true
	}
	if len(trained) == 0 {
		return nil
	}
	var missing []string
	for _, c := range q.Columns() {
		if !trained[c] {
			missing = append(missing, c)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	return []Finding{{
		Severity: Warn,
		Code:     CodeUntrainedColumns,
		Message: fmt.Sprintf("columns %v are outside the trained workload; the importance models were never "+
			"shown them — retrain with an updated workload specification (§2.1)", missing),
	}}
}

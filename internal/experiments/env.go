// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: shared setup (dataset →
// statistics → workload → training), method runners for PS3 and the
// baselines, error-curve computation, and per-experiment drivers keyed by
// the artifact ids of DESIGN.md (fig3..fig12, table3..table8).
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"ps3/internal/core"
	"ps3/internal/dataset"
	"ps3/internal/exec"
	"ps3/internal/metrics"
	"ps3/internal/picker"
	"ps3/internal/query"
)

// Config sizes an experiment environment. Zero values take laptop-scale
// defaults; cmd/ps3bench exposes flags to scale toward paper-sized runs.
type Config struct {
	Rows         int
	Parts        int
	TrainQueries int
	TestQueries  int
	// Budgets are the sampling budget fractions swept by error curves.
	Budgets []float64
	// Runs is the number of repetitions for randomized methods (paper: 10).
	Runs int
	// NoFeatureSelection disables Algorithm 3 during training (the paper
	// runs with feature selection on).
	NoFeatureSelection bool
	// Alpha / K override the picker defaults when nonzero.
	Alpha float64
	K     int
	Seed  int64
	// Parallelism bounds the worker goroutines of partition scans and
	// per-query evaluation loops (0 = GOMAXPROCS). Results are identical at
	// every setting: every per-query RNG is independently seeded and merges
	// run in deterministic order.
	Parallelism int
}

// execOpts converts the concurrency knob into engine options.
func (c Config) execOpts() exec.Options { return exec.Options{Parallelism: c.Parallelism} }

// WithDefaults fills the laptop-scale defaults.
func (c Config) WithDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 60_000
	}
	if c.Parts <= 0 {
		c.Parts = 150
	}
	if c.TrainQueries <= 0 {
		c.TrainQueries = 100
	}
	if c.TestQueries <= 0 {
		c.TestQueries = 30
	}
	if len(c.Budgets) == 0 {
		c.Budgets = []float64{0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8}
	}
	if c.Runs <= 0 {
		c.Runs = 3
	}
	return c
}

// Env is a fully prepared experiment environment: dataset, trained system,
// and cached examples (features + per-partition answers + ground truth) for
// train and test queries.
type Env struct {
	Cfg     Config
	DS      *dataset.Dataset
	Sys     *core.System
	TrainEx []picker.Example
	TestEx  []picker.Example
}

// NewEnv builds an environment on the dataset's default layout.
func NewEnv(ds *dataset.Dataset, cfg Config) (*Env, error) {
	cfg = cfg.WithDefaults()
	pcfg := picker.Config{
		Seed:               cfg.Seed + 101,
		FeatureSelection:   !cfg.NoFeatureSelection,
		FeatureSelRestarts: 3,
		Alpha:              cfg.Alpha,
		K:                  cfg.K,
	}
	sys, err := core.New(ds.Table, core.Options{
		Workload:    ds.Workload,
		Picker:      pcfg,
		TrainLSS:    true,
		LSSBudgets:  cfg.Budgets,
		Seed:        cfg.Seed + 11,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	gen, err := query.NewGenerator(ds.Workload, ds.Table, cfg.Seed+1000)
	if err != nil {
		return nil, err
	}
	trainQs := gen.SampleN(cfg.TrainQueries)
	testQs := distinctFrom(gen, trainQs, cfg.TestQueries)

	trainEx, err := sys.MakeExamples(trainQs)
	if err != nil {
		return nil, err
	}
	if err := sys.Train(nil, trainEx); err != nil {
		return nil, err
	}
	testEx, err := sys.MakeExamples(testQs)
	if err != nil {
		return nil, err
	}
	return &Env{Cfg: cfg, DS: ds, Sys: sys, TrainEx: trainEx, TestEx: testEx}, nil
}

// distinctFrom samples n test queries that do not collide with the training
// set (§5.1.2: "no identical queries between the test and training sets").
func distinctFrom(gen *query.Generator, train []*query.Query, n int) []*query.Query {
	seen := make(map[string]bool, len(train))
	for _, q := range train {
		seen[q.String()] = true
	}
	var out []*query.Query
	for attempts := 0; len(out) < n && attempts < 50*n; attempts++ {
		q := gen.Sample()
		key := q.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, q)
	}
	return out
}

// Method identifies a selection strategy under evaluation.
type Method string

const (
	MethodRandom       Method = "random"
	MethodRandomFilter Method = "random+filter"
	MethodLSS          Method = "LSS"
	MethodPS3          Method = "PS3"
	MethodOracle       Method = "oracle"
	MethodPS3Unbiased  Method = "PS3-unbiased"
	// Lesion variants (§5.4.1).
	MethodNoCluster   Method = "w/o cluster"
	MethodNoOutlier   Method = "w/o outlier"
	MethodNoRegressor Method = "w/o regressor"
	// Factor-analysis variants: filter + exactly one component.
	MethodOnlyOutlier   Method = "+outlier"
	MethodOnlyRegressor Method = "+regressor"
	MethodOnlyCluster   Method = "+cluster"
)

// Deterministic reports whether the method needs repeated runs to average
// out sampling noise.
func (m Method) Deterministic() bool {
	switch m {
	case MethodPS3, MethodOracle, MethodNoOutlier, MethodOnlyCluster:
		// Clustering with median exemplars is deterministic up to k-means
		// seeding; we still treat it as deterministic for run counting (the
		// paper reports single-run numbers for PS3).
		return true
	}
	return false
}

// pickerVariant returns a shallow copy of the trained picker with lesion /
// estimator flags applied; the trained models are shared.
func (e *Env) pickerVariant(mutate func(*picker.Config)) *picker.Picker {
	p := *e.Sys.Picker
	cfg := p.Cfg
	mutate(&cfg)
	p.Cfg = cfg
	return &p
}

// SelectionFor produces the weighted partition selection of method m for
// example ex at an absolute budget of n partitions.
func (e *Env) SelectionFor(m Method, ex picker.Example, n int, rng *rand.Rand) []query.WeightedPartition {
	total := e.DS.Table.NumParts()
	switch m {
	case MethodRandom:
		return picker.Uniform(total, n, rng)
	case MethodRandomFilter:
		return picker.UniformFilter(e.Sys.Stats, ex.Features, n, rng)
	case MethodLSS:
		return e.Sys.LSS.PickN(ex.Features, n, rng)
	case MethodPS3:
		return e.Sys.Picker.PickBatch(ex.Query, n, rng, exec.Options{Parallelism: 1})
	case MethodPS3Unbiased:
		p := e.pickerVariant(func(c *picker.Config) { c.UnbiasedExemplar = true })
		return p.PickBatch(ex.Query, n, rng, exec.Options{Parallelism: 1})
	case MethodOracle:
		return e.Sys.Picker.PickWithOracle(ex.Query, ex.Features, ex.Contrib, n, rng)
	case MethodNoCluster:
		p := e.pickerVariant(func(c *picker.Config) { c.DisableCluster = true })
		return p.PickBatch(ex.Query, n, rng, exec.Options{Parallelism: 1})
	case MethodNoOutlier:
		p := e.pickerVariant(func(c *picker.Config) { c.DisableOutlier = true })
		return p.PickBatch(ex.Query, n, rng, exec.Options{Parallelism: 1})
	case MethodNoRegressor:
		p := e.pickerVariant(func(c *picker.Config) { c.DisableRegressor = true })
		return p.PickBatch(ex.Query, n, rng, exec.Options{Parallelism: 1})
	case MethodOnlyOutlier:
		p := e.pickerVariant(func(c *picker.Config) {
			c.DisableCluster = true
			c.DisableRegressor = true
		})
		return p.PickBatch(ex.Query, n, rng, exec.Options{Parallelism: 1})
	case MethodOnlyRegressor:
		p := e.pickerVariant(func(c *picker.Config) {
			c.DisableCluster = true
			c.DisableOutlier = true
		})
		return p.PickBatch(ex.Query, n, rng, exec.Options{Parallelism: 1})
	case MethodOnlyCluster:
		p := e.pickerVariant(func(c *picker.Config) {
			c.DisableRegressor = true
			c.DisableOutlier = true
		})
		return p.PickBatch(ex.Query, n, rng, exec.Options{Parallelism: 1})
	default:
		panic(fmt.Sprintf("experiments: unknown method %q", m))
	}
}

// Curve is one method's error trajectory over sampling budgets.
type Curve struct {
	Method  Method
	Budgets []float64
	Errs    []metrics.Errors
}

// AvgRelErrs extracts the average-relative-error series.
func (c Curve) AvgRelErrs() []float64 {
	out := make([]float64, len(c.Errs))
	for i, e := range c.Errs {
		out[i] = e.AvgRelErr
	}
	return out
}

// ErrorCurve evaluates method m over the environment's test examples at
// every budget, averaging randomized methods over Cfg.Runs repetitions.
func (e *Env) ErrorCurve(m Method, examples []picker.Example) Curve {
	return e.CurveFor(m, m.Deterministic(), examples,
		func(ex picker.Example, n int, rng *rand.Rand) []query.WeightedPartition {
			return e.SelectionFor(m, ex, n, rng)
		})
}

// CurveFor evaluates an arbitrary selection function over examples at every
// budget; randomized selectors are averaged over Cfg.Runs repetitions.
// Queries are evaluated in parallel on the shared scan engine — each
// (query, run) pair seeds its own RNG and per-query results merge in query
// order, so curves are identical to a sequential evaluation.
func (e *Env) CurveFor(name Method, deterministic bool, examples []picker.Example,
	selFn func(ex picker.Example, n int, rng *rand.Rand) []query.WeightedPartition) Curve {
	runs := e.Cfg.Runs
	if deterministic {
		runs = 1
	}
	total := e.DS.Table.NumParts()
	curve := Curve{Method: name, Budgets: e.Cfg.Budgets}
	type queryErrs struct {
		errs metrics.Errors
		ok   bool
	}
	for _, b := range e.Cfg.Budgets {
		n := budgetParts(b, total)
		per := exec.Map(len(examples), e.Cfg.execOpts(), func(qi int) queryErrs {
			ex := examples[qi]
			if len(ex.TruthVals) == 0 {
				return queryErrs{}
			}
			var acc metrics.Errors
			for r := 0; r < runs; r++ {
				rng := rand.New(rand.NewSource(e.Cfg.Seed + int64(qi*1009+r*31)))
				sel := selFn(ex, n, rng)
				est := picker.EstimateFromPerPart(ex.Compiled, ex.PerPart, sel)
				er := metrics.Compare(ex.TruthVals, est)
				acc.MissedGroups += er.MissedGroups
				acc.AvgRelErr += er.AvgRelErr
				acc.AbsOverTrue += er.AbsOverTrue
			}
			acc.MissedGroups /= float64(runs)
			acc.AvgRelErr /= float64(runs)
			acc.AbsOverTrue /= float64(runs)
			return queryErrs{errs: acc, ok: true}
		})
		var perQuery []metrics.Errors
		for _, qe := range per {
			if qe.ok {
				perQuery = append(perQuery, qe.errs)
			}
		}
		curve.Errs = append(curve.Errs, metrics.Mean(perQuery))
	}
	return curve
}

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

// DataReadReduction estimates how much less data `better` reads to match
// `base`'s error at the given budget: it takes base's error at fromBudget
// and finds (by linear interpolation) the smallest budget where better
// achieves it, returning fromBudget / thatBudget. Mirrors the paper's
// "2.7×–70× reduction in data read" headline.
func DataReadReduction(better, base Curve, fromBudget float64) float64 {
	baseErr := math.NaN()
	for i, b := range base.Budgets {
		if b == fromBudget {
			baseErr = base.Errs[i].AvgRelErr
		}
	}
	if math.IsNaN(baseErr) {
		return math.NaN()
	}
	// Find first crossing of better's curve below baseErr.
	prevB, prevE := 0.0, math.Inf(1)
	for i, b := range better.Budgets {
		e := better.Errs[i].AvgRelErr
		if e <= baseErr {
			if prevE == math.Inf(1) || prevE == e {
				return fromBudget / b
			}
			// Interpolate between (prevB, prevE) and (b, e).
			t := (prevE - baseErr) / (prevE - e)
			cross := prevB + t*(b-prevB)
			if cross <= 0 {
				cross = b
			}
			return fromBudget / cross
		}
		prevB, prevE = b, e
	}
	return 1
}

// printCurves renders curves as an aligned text table, one row per budget.
func printCurves(w io.Writer, title, metric string, curves []Curve, pick func(metrics.Errors) float64) {
	fmt.Fprintf(w, "\n%s — %s\n", title, metric)
	fmt.Fprintf(w, "%-10s", "budget")
	for _, c := range curves {
		fmt.Fprintf(w, "%16s", c.Method)
	}
	fmt.Fprintln(w)
	for i, b := range curves[0].Budgets {
		fmt.Fprintf(w, "%-10.2f", b)
		for _, c := range curves {
			fmt.Fprintf(w, "%16.4f", pick(c.Errs[i]))
		}
		fmt.Fprintln(w)
	}
}

package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ps3/internal/dataset"
	"ps3/internal/exec"
	"ps3/internal/metrics"
	"ps3/internal/picker"
	"ps3/internal/query"
)

// AlphaSweepResult holds Fig 10: learned vs oracle error curves per decay
// rate α.
type AlphaSweepResult struct {
	Dataset string
	Alphas  []float64
	Learned []Curve // one per α
	Oracle  []Curve
}

// RunFig10 reproduces Fig 10: the impact of the sampling decay rate α on
// learned importance sampling and on an oracle with perfect contribution
// knowledge (the paper uses the KDD dataset). Importance-only pickers
// (clustering and outliers disabled) isolate the effect of α.
func RunFig10(w io.Writer, dsName string, cfg Config, alphas []float64) (*AlphaSweepResult, error) {
	cfg = cfg.WithDefaults()
	if len(alphas) == 0 {
		alphas = []float64{1, 2, 3, 4, 5}
	}
	ds, err := dataset.ByName(dsName, dataset.Config{Rows: cfg.Rows, Parts: cfg.Parts, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(ds, cfg)
	if err != nil {
		return nil, err
	}
	res := &AlphaSweepResult{Dataset: dsName, Alphas: alphas}
	for _, alpha := range alphas {
		a := alpha
		variant := env.pickerVariant(func(c *picker.Config) {
			c.Alpha = a
			c.DisableCluster = true
			c.DisableOutlier = true
		})
		lc := env.CurveFor(Method(fmt.Sprintf("learned α=%.0f", a)), false, env.TestEx,
			func(ex picker.Example, n int, rng *rand.Rand) []query.WeightedPartition {
				return variant.PickBatch(ex.Query, n, rng, exec.Options{Parallelism: 1})
			})
		res.Learned = append(res.Learned, lc)
		oc := env.CurveFor(Method(fmt.Sprintf("oracle α=%.0f", a)), false, env.TestEx,
			func(ex picker.Example, n int, rng *rand.Rand) []query.WeightedPartition {
				return variant.PickWithOracle(ex.Query, ex.Features, ex.Contrib, n, rng)
			})
		res.Oracle = append(res.Oracle, oc)
	}
	printCurves(w, fmt.Sprintf("Fig 10 [%s, learned regressors]", dsName), "avg relative error",
		res.Learned, func(e metrics.Errors) float64 { return e.AvgRelErr })
	printCurves(w, fmt.Sprintf("Fig 10 [%s, oracle]", dsName), "avg relative error",
		res.Oracle, func(e metrics.Errors) float64 { return e.AvgRelErr })
	return res, nil
}

// EstimatorResult holds Fig 12: biased (closest-to-median) vs unbiased
// (random member) cluster exemplars.
type EstimatorResult struct {
	Dataset string
	Curves  []Curve // [biased, unbiased]
}

// RunFig12 reproduces Fig 12 on every dataset: the biased estimator tends
// to win at small budgets and the two converge at larger ones (Appendix D).
func RunFig12(w io.Writer, cfg Config) ([]EstimatorResult, error) {
	cfg = cfg.WithDefaults()
	var out []EstimatorResult
	for _, name := range dataset.Names() {
		ds, err := dataset.ByName(name, dataset.Config{Rows: cfg.Rows, Parts: cfg.Parts, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		env, err := NewEnv(ds, cfg)
		if err != nil {
			return nil, err
		}
		res := EstimatorResult{Dataset: name}
		res.Curves = append(res.Curves, env.ErrorCurve(MethodPS3, env.TestEx))
		res.Curves = append(res.Curves, env.ErrorCurve(MethodPS3Unbiased, env.TestEx))
		printCurves(w, fmt.Sprintf("Fig 12 [%s]", name), "avg relative error",
			res.Curves, func(e metrics.Errors) float64 { return e.AvgRelErr })
		out = append(out, res)
	}
	return out, nil
}

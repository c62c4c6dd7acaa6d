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

// Table6Row holds one dataset's clustering-algorithm AUC comparison.
type Table6Row struct {
	Dataset                       string
	HACSingle, HACWard, KMeansAUC float64
}

// clusteringOnlyCurve evaluates pure clustering selection (funnel and
// outliers disabled) under the given algorithm.
func clusteringOnlyCurve(env *Env, algo picker.ClusterAlgo, name Method) Curve {
	variant := env.pickerVariant(func(c *picker.Config) {
		c.DisableRegressor = true
		c.DisableOutlier = true
		c.Algo = algo
	})
	return env.CurveFor(name, true, env.TestEx,
		func(ex picker.Example, n int, rng *rand.Rand) []query.WeightedPartition {
			return variant.PickBatch(ex.Query, n, rng, exec.Options{Parallelism: 1})
		})
}

// RunTable6 reproduces Table 6: area under the avg-relative-error curve for
// HAC(single), HAC(ward) and KMeans clustering on tpcds, aria, kdd.
func RunTable6(w io.Writer, cfg Config) ([]Table6Row, error) {
	cfg = cfg.WithDefaults()
	fmt.Fprintf(w, "\nTable 6 — clustering algorithm AUC (avg rel err × 100, smaller is better)\n")
	fmt.Fprintf(w, "%-10s%14s%12s%10s\n", "dataset", "HAC(single)", "HAC(ward)", "KMeans")
	var rows []Table6Row
	for _, name := range []string{"tpcds", "aria", "kdd"} {
		ds, err := dataset.ByName(name, dataset.Config{Rows: cfg.Rows, Parts: cfg.Parts, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		env, err := NewEnv(ds, cfg)
		if err != nil {
			return nil, err
		}
		auc := func(algo picker.ClusterAlgo, label Method) float64 {
			c := clusteringOnlyCurve(env, algo, label)
			return metrics.AUC(c.Budgets, c.AvgRelErrs())
		}
		row := Table6Row{
			Dataset:   name,
			HACSingle: auc(picker.AlgoHACSingle, "hac-single"),
			HACWard:   auc(picker.AlgoHACWard, "hac-ward"),
			KMeansAUC: auc(picker.AlgoKMeans, "kmeans"),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s%14.2f%12.2f%10.2f\n", name, row.HACSingle, row.HACWard, row.KMeansAUC)
	}
	return rows, nil
}

// Table7Row holds one dataset's feature-selection ablation.
type Table7Row struct {
	Dataset                                    string
	WardAUC, WardFSAUC, KMeansAUC, KMeansFSAUC float64
}

// RunTable7 reproduces Table 7: the effect of Algorithm 3's feature
// selection on clustering AUC for HAC(ward) and KMeans.
func RunTable7(w io.Writer, cfg Config) ([]Table7Row, error) {
	cfg = cfg.WithDefaults()
	fmt.Fprintf(w, "\nTable 7 — feature selection effect on clustering AUC (smaller is better)\n")
	fmt.Fprintf(w, "%-10s%12s%12s%10s%12s\n", "dataset", "HAC(ward)", "+feat sel", "KMeans", "+feat sel")
	var rows []Table7Row
	for _, name := range []string{"tpcds", "aria", "kdd"} {
		ds, err := dataset.ByName(name, dataset.Config{Rows: cfg.Rows, Parts: cfg.Parts, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		// Environment without feature selection...
		noFS := cfg
		noFS.NoFeatureSelection = true
		envA, err := NewEnv(ds, noFS)
		if err != nil {
			return nil, err
		}
		// ... and with it.
		withFS := cfg
		withFS.NoFeatureSelection = false
		envB, err := NewEnv(ds, withFS)
		if err != nil {
			return nil, err
		}
		auc := func(env *Env, algo picker.ClusterAlgo, label Method) float64 {
			c := clusteringOnlyCurve(env, algo, label)
			return metrics.AUC(c.Budgets, c.AvgRelErrs())
		}
		row := Table7Row{
			Dataset:     name,
			WardAUC:     auc(envA, picker.AlgoHACWard, "ward"),
			WardFSAUC:   auc(envB, picker.AlgoHACWard, "ward+fs"),
			KMeansAUC:   auc(envA, picker.AlgoKMeans, "kmeans"),
			KMeansFSAUC: auc(envB, picker.AlgoKMeans, "kmeans+fs"),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s%12.2f%12.2f%10.2f%12.2f\n", name,
			row.WardAUC, row.WardFSAUC, row.KMeansAUC, row.KMeansFSAUC)
	}
	return rows, nil
}

// Package picker implements PS3's partition picker (paper §4): given a
// query, per-partition summary-statistic feature vectors and a sampling
// budget, it returns a weighted set of partitions whose combined partial
// answers approximate the query (Algorithm 1). It combines:
//
//   - outlier detection over heavy-hitter occurrence bitmaps (§4.4),
//   - a learned importance funnel of k boosted regressors that sorts
//     partitions into importance groups (§4.3, Algorithm 2),
//   - budget allocation with sampling rates decaying by α per group,
//   - similarity-aware selection via clustering with exemplar weights
//     (§4.2), falling back to random sampling for very complex predicates.
//
// The package also provides the evaluation baselines: uniform random
// sampling, random sampling with the selectivity filter, and the modified
// Learned Stratified Sampling of Appendix C.1.
package picker

import (
	"fmt"
	"math"
	"math/rand"

	"ps3/internal/cluster"
)

// ClusterAlgo selects the clustering algorithm for sample selection.
type ClusterAlgo uint8

const (
	// AlgoKMeans uses k-means++ (the default; Table 6 shows it matches
	// HAC-ward).
	AlgoKMeans ClusterAlgo = iota
	// AlgoHACWard uses agglomerative clustering with Ward linkage.
	AlgoHACWard
	// AlgoHACSingle uses agglomerative clustering with single linkage.
	AlgoHACSingle
)

func (a ClusterAlgo) String() string {
	switch a {
	case AlgoKMeans:
		return "kmeans"
	case AlgoHACWard:
		return "hac-ward"
	default:
		return "hac-single"
	}
}

// Config holds the picker's tunables; zero values take the paper defaults
// noted on each field.
type Config struct {
	// K is the number of funnel regressors (paper default 4).
	K int
	// Alpha is the sampling-rate decay between adjacent importance groups
	// (paper default 2; α=1 disables importance weighting).
	Alpha float64
	// OutlierBudgetFrac caps the share of the budget spent on outlier
	// partitions (paper default 10%).
	OutlierBudgetFrac float64
	// OutlierAbsSize: bitmap groups smaller than this are outlier
	// candidates (paper default 10).
	OutlierAbsSize int
	// OutlierRelSize: ... and smaller than this fraction of the largest
	// bitmap group (paper default 10%).
	OutlierRelSize float64
	// MaxPredClauses: predicates with more clauses fall back from
	// clustering to random selection (paper default 10, Appendix B.1).
	MaxPredClauses int
	// Algo selects the clustering algorithm.
	Algo ClusterAlgo
	// UnbiasedExemplar picks a random cluster member instead of the
	// closest-to-median member (Appendix D).
	UnbiasedExemplar bool
	// FeatureSelection enables Algorithm 3's greedy leave-one-out feature
	// selection during training.
	FeatureSelection bool
	// FeatureSelRestarts is the number of random restarts (paper: 10).
	FeatureSelRestarts int
	// Lesion switches (§5.4.1): disable one component while keeping the
	// others.
	DisableCluster   bool
	DisableOutlier   bool
	DisableRegressor bool
	// TopFrac is the positive fraction targeted by the most selective
	// funnel model (paper: top 1%).
	TopFrac float64
	// Seed drives all randomized choices.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 4
	}
	if c.Alpha <= 0 {
		c.Alpha = 2
	}
	if c.OutlierBudgetFrac <= 0 {
		c.OutlierBudgetFrac = 0.10
	}
	if c.OutlierAbsSize <= 0 {
		c.OutlierAbsSize = 10
	}
	if c.OutlierRelSize <= 0 {
		c.OutlierRelSize = 0.10
	}
	if c.MaxPredClauses <= 0 {
		c.MaxPredClauses = 10
	}
	if c.FeatureSelRestarts <= 0 {
		c.FeatureSelRestarts = 10
	}
	if c.TopFrac <= 0 {
		c.TopFrac = 0.01
	}
	return c
}

// validate rejects a config a pick cannot run under: an outlier share
// outside [0, 1] slices the outlier list out of range or overspends the
// budget, a non-finite or non-positive α stalls or skews the budget
// allocation, and a NaN size fraction or an unknown algorithm has no
// meaning. Train refuses one after filling in the defaults, and ReadPicker
// refuses one from a corrupt snapshot.
func (c Config) validate() error {
	switch {
	case !(c.OutlierBudgetFrac >= 0 && c.OutlierBudgetFrac <= 1):
		return fmt.Errorf("outlier budget fraction %v outside [0, 1]", c.OutlierBudgetFrac)
	case !(c.Alpha > 0) || math.IsInf(c.Alpha, 1):
		return fmt.Errorf("decay rate α = %v, want finite and positive", c.Alpha)
	case math.IsNaN(c.OutlierRelSize):
		return fmt.Errorf("outlier relative size is NaN")
	case math.IsNaN(c.TopFrac):
		return fmt.Errorf("top fraction is NaN")
	case c.Algo > AlgoHACSingle:
		return fmt.Errorf("unknown clustering algorithm %d", c.Algo)
	}
	return nil
}

// clusterize runs the configured clustering algorithm. k-means is the
// triangle-inequality-bounded KMeansBounded under o: a pick passes the scan
// engine's parallelism and its distance-work counters, training's feature
// selection passes Strict, whose sweeps are the exact reference sweeps bit
// for bit (pruned sweeps may split a nearest-center near-tie at rounding
// scale differently, which would move a feature-selection score). The HAC
// algorithms have no bounded variant and ignore o.
func (c Config) clusterize(points [][]float64, k int, rng *rand.Rand, o cluster.KMeansOpts) cluster.Assignment {
	switch c.Algo {
	case AlgoHACWard:
		return cluster.HAC(points, k, cluster.Ward)
	case AlgoHACSingle:
		return cluster.HAC(points, k, cluster.Single)
	default:
		return cluster.KMeansBounded(points, k, rng, o)
	}
}

// exemplars picks one weighted representative per cluster; ix (nil: none)
// is the rank index the median exemplars may read (cluster.MedianExemplars).
func (c Config) exemplars(points [][]float64, a cluster.Assignment, rng *rand.Rand, ix *cluster.MedianIndex) []cluster.Exemplar {
	if c.UnbiasedExemplar {
		return cluster.RandomExemplars(points, a, rng)
	}
	return cluster.MedianExemplars(points, a, ix)
}

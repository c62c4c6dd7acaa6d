package picker

import "math"

// This file implements the variance analysis of paper Appendix D.2: the
// Horvitz–Thompson variance of uniform partition- and row-level Poisson
// sampling, showing that partition-level sampling has strictly larger
// variance at equal sampling fraction (Eq 4–5). The D.1 estimator for the
// unbiased clustering picker, and Eq 3's sampled HT estimate, live in
// variance_test.go beside the coverage tests that use them, until a served
// audit gives them a caller.

// PartitionVsRowVariance compares, for one group total, the estimated
// variance of uniform partition-level Poisson sampling against row-level
// Poisson sampling at the same sampling fraction p (Appendix D.2, Eq 4–5).
// partitionTotals[i] is the group's total on partition i; rowValues are the
// per-row contributions. Both variances are computed over the full
// population (the census version of the estimators, i.e. the true variance
// rather than its sampled estimate). The partition-level variance exceeds
// the row-level one by the cross terms of rows sharing a partition.
func PartitionVsRowVariance(partitionTotals []float64, rowValues [][]float64, p float64) (partVar, rowVar float64) {
	if p <= 0 || p > 1 {
		return math.NaN(), math.NaN()
	}
	f := (1 - p) / p
	for _, y := range partitionTotals {
		partVar += f * y * y
	}
	for _, rows := range rowValues {
		for _, t := range rows {
			rowVar += f * t * t
		}
	}
	return partVar, rowVar
}

package picker

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHTVarianceBasics(t *testing.T) {
	// p = 1 → census → zero variance.
	if v := HTVariance([]float64{1, 2, 3}, 1); v != 0 {
		t.Fatalf("census variance = %v, want 0", v)
	}
	// Invalid p → NaN.
	if v := HTVariance([]float64{1}, 0); !math.IsNaN(v) {
		t.Fatalf("p=0 variance = %v, want NaN", v)
	}
	// Variance grows as p shrinks.
	vals := []float64{5, 5, 5}
	if v1, v2 := HTVariance(vals, 0.5), HTVariance(vals, 0.1); v2 <= v1 {
		t.Fatalf("variance at p=0.1 (%v) not above p=0.5 (%v)", v2, v1)
	}
}

func TestHTVarianceMatchesEmpiricalPoisson(t *testing.T) {
	// Simulate Poisson sampling of a fixed population and compare the
	// empirical variance of the HT estimator against the analytic Eq 1
	// (true) value Σ (1-p)/p · y².
	rng := rand.New(rand.NewSource(1))
	population := make([]float64, 60)
	for i := range population {
		population[i] = rng.Float64() * 10
	}
	p := 0.3
	var trueVar float64
	for _, y := range population {
		trueVar += (1 - p) / p * y * y
	}
	runs := 20000
	var sum, sumSq float64
	for r := 0; r < runs; r++ {
		var est float64
		for _, y := range population {
			if rng.Float64() < p {
				est += y / p
			}
		}
		sum += est
		sumSq += est * est
	}
	mean := sum / float64(runs)
	empVar := sumSq/float64(runs) - mean*mean
	if math.Abs(empVar-trueVar)/trueVar > 0.1 {
		t.Fatalf("empirical variance %v vs analytic %v", empVar, trueVar)
	}
}

func TestPartitionVarianceExceedsRowVariance(t *testing.T) {
	// Appendix D.2: with rows of the same sign sharing partitions,
	// partition-level sampling has strictly larger variance.
	rowValues := [][]float64{
		{1, 2, 3},
		{4, 5},
		{6},
	}
	var partitionTotals []float64
	for _, rows := range rowValues {
		var s float64
		for _, v := range rows {
			s += v
		}
		partitionTotals = append(partitionTotals, s)
	}
	pv, rv := PartitionVsRowVariance(partitionTotals, rowValues, 0.2)
	if pv <= rv {
		t.Fatalf("partition variance %v not above row variance %v", pv, rv)
	}
	// Single-row partitions → identical variance (the limit the paper
	// notes: one-row partitions make partition sampling = row sampling).
	single := [][]float64{{1}, {4}, {6}}
	pv2, rv2 := PartitionVsRowVariance([]float64{1, 4, 6}, single, 0.2)
	if math.Abs(pv2-rv2) > 1e-12 {
		t.Fatalf("one-row partitions: %v vs %v, want equal", pv2, rv2)
	}
}

func TestPartitionVarianceProperty(t *testing.T) {
	// For non-negative rows, partition variance ≥ row variance at any p.
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := (float64(pRaw%90) + 5) / 100
		nParts := rng.Intn(8) + 1
		rows := make([][]float64, nParts)
		totals := make([]float64, nParts)
		for i := range rows {
			n := rng.Intn(6) + 1
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				rows[i][j] = rng.Float64() * 5
				totals[i] += rows[i][j]
			}
		}
		pv, rv := PartitionVsRowVariance(totals, rows, p)
		return pv >= rv-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceEstimateHomogeneousStrataZero(t *testing.T) {
	// Identical values within every cluster → zero estimated variance: the
	// stratified estimator is exact.
	members := [][]int{{0, 1, 2}, {3, 4}, {5}}
	values := []float64{7, 7, 7, 3, 3, 9}
	rep := VarianceEstimate(members, func(p int) float64 { return values[p] }, 2, rand.New(rand.NewSource(1)))
	if rep.TotalVar != 0 {
		t.Fatalf("homogeneous strata variance = %v, want 0", rep.TotalVar)
	}
	if rep.CI95() != 0 {
		t.Fatalf("CI = %v, want 0", rep.CI95())
	}
}

func TestVarianceEstimateSingletonStrataAreCensus(t *testing.T) {
	members := [][]int{{0}, {1}, {2}}
	rep := VarianceEstimate(members, func(p int) float64 { return float64(p) * 100 }, 3, rand.New(rand.NewSource(2)))
	if rep.TotalVar != 0 || rep.ExtraReads != 0 {
		t.Fatalf("singleton strata: var %v, extra reads %d; want 0/0", rep.TotalVar, rep.ExtraReads)
	}
}

func TestVarianceEstimateHeterogeneousStrataPositive(t *testing.T) {
	members := [][]int{{0, 1, 2, 3}}
	values := []float64{0, 10, 20, 30}
	rep := VarianceEstimate(members, func(p int) float64 { return values[p] }, 4, rand.New(rand.NewSource(3)))
	if rep.TotalVar <= 0 {
		t.Fatalf("heterogeneous stratum variance = %v, want > 0", rep.TotalVar)
	}
	// With all 4 probed, s² is the exact within-stratum sample variance:
	// mean 15, s² = (225+25+25+225)/3.
	wantS2 := 500.0 / 3
	if math.Abs(rep.Strata[0].S2-wantS2) > 1e-9 {
		t.Fatalf("s² = %v, want %v", rep.Strata[0].S2, wantS2)
	}
	if want := 4 * 3 * wantS2; math.Abs(rep.TotalVar-want) > 1e-9 {
		t.Fatalf("Var = %v, want N(N-1)s² = %v", rep.TotalVar, want)
	}
}

func TestVarianceEstimateAccountsProbeReads(t *testing.T) {
	members := [][]int{{0, 1, 2, 3, 4}, {5, 6}}
	rep := VarianceEstimate(members, func(p int) float64 { return float64(p) }, 3, rand.New(rand.NewSource(4)))
	// First stratum probes 3 (2 extra), second probes 2 (1 extra).
	if rep.ExtraReads != 3 {
		t.Fatalf("extra reads = %d, want 3", rep.ExtraReads)
	}
}

func TestVarianceEstimateCoversTrueValue(t *testing.T) {
	// End-to-end calibration: strata with known within-stratum variance;
	// the 95% CI from the estimated variance should cover the true total
	// for most random draws of the estimator.
	rng := rand.New(rand.NewSource(5))
	nStrata, per := 10, 8
	values := make([]float64, nStrata*per)
	members := make([][]int, nStrata)
	var truth float64
	for s := 0; s < nStrata; s++ {
		base := rng.Float64() * 100
		for j := 0; j < per; j++ {
			id := s*per + j
			values[id] = base + rng.NormFloat64()*5
			truth += values[id]
			members[s] = append(members[s], id)
		}
	}
	value := func(p int) float64 { return values[p] }
	covered := 0
	trials := 200
	for trial := 0; trial < trials; trial++ {
		trng := rand.New(rand.NewSource(int64(trial)))
		// One random exemplar per stratum, weighted by stratum size.
		var est float64
		for _, m := range members {
			est += float64(len(m)) * values[m[trng.Intn(len(m))]]
		}
		rep := VarianceEstimate(members, value, 4, trng)
		if math.Abs(est-truth) <= rep.CI95() {
			covered++
		}
	}
	if frac := float64(covered) / float64(trials); frac < 0.85 {
		t.Fatalf("95%% CI covered truth in only %.0f%% of trials", frac*100)
	}
}

// The Appendix D.1 variance estimator of the unbiased (random-exemplar)
// clustering picker, analyzed as stratified SRSWoR with one draw per
// stratum and estimated with extra probe reads per stratum, and Eq 3's
// Horvitz–Thompson variance of a Poisson sample (D.2). The tests below are
// their only callers.

// HTVariance estimates the variance of the Horvitz–Thompson estimator for a
// SUM/COUNT total under Poisson sampling where every unit is included
// independently with probability p (Eq 3 of Appendix D.2). values are the
// per-unit contributions y_i of the *sampled* units only.
func HTVariance(values []float64, p float64) float64 {
	if p <= 0 || p > 1 {
		return math.NaN()
	}
	f := 1/(p*p) - 1/p
	var v float64
	for _, y := range values {
		v += f * y * y
	}
	return v
}

// StratumVariance holds one cluster's contribution to the unbiased
// estimator's variance.
type StratumVariance struct {
	// Size is the number of partitions in the stratum (cluster).
	Size int
	// Probes is how many partitions were evaluated to estimate s².
	Probes int
	// S2 is the sample variance of the per-partition values within the
	// stratum (per aggregate of the first group dimension aggregated; see
	// VarianceEstimate for the reduction used).
	S2 float64
	// Var is the stratum's variance contribution N(N-n)/n · s² with n = 1
	// draw: N(N-1)·s².
	Var float64
}

// VarianceReport is the result of estimating the unbiased estimator's
// variance for one query.
type VarianceReport struct {
	Strata []StratumVariance
	// TotalVar is Σ stratum variances — the variance of the stratified
	// estimator for the scalar reduction described in VarianceEstimate.
	TotalVar float64
	// ExtraReads is the number of additional partition evaluations spent on
	// probing beyond the one exemplar per stratum.
	ExtraReads int
}

// CI95 returns the ± half-width of the 95% confidence interval implied by
// the variance estimate (±1.96·σ, Appendix D.1), assuming the CLT holds.
func (r VarianceReport) CI95() float64 { return 1.96 * math.Sqrt(r.TotalVar) }

// VarianceEstimate estimates the variance of the unbiased clustering
// estimator (Appendix D.1) for one scalar query statistic: the first
// aggregate summed over all groups. members lists the partition ids of each
// cluster; value(p) evaluates the statistic on partition p (a real read if
// the caller wires it to one). probesPerStratum ≥ 2 partitions are
// evaluated in each stratum of size ≥ 2 to form the sample variance s²
// (strata of size 1 contribute zero variance — their draw is a census).
func VarianceEstimate(members [][]int, value func(part int) float64, probesPerStratum int, rng *rand.Rand) VarianceReport {
	if probesPerStratum < 2 {
		probesPerStratum = 2
	}
	var rep VarianceReport
	for _, m := range members {
		sv := StratumVariance{Size: len(m)}
		if len(m) >= 2 {
			probes := probesPerStratum
			if probes > len(m) {
				probes = len(m)
			}
			perm := rng.Perm(len(m))[:probes]
			vals := make([]float64, probes)
			var mean float64
			for i, pi := range perm {
				vals[i] = value(m[pi])
				mean += vals[i]
			}
			mean /= float64(probes)
			var s2 float64
			for _, v := range vals {
				d := v - mean
				s2 += d * d
			}
			s2 /= float64(probes - 1)
			sv.Probes = probes
			sv.S2 = s2
			// SRSWoR with n=1 draw from N: Var = N(N-n)/n · s² = N(N-1)·s².
			N := float64(len(m))
			sv.Var = N * (N - 1) * s2
			rep.ExtraReads += probes - 1
		}
		rep.Strata = append(rep.Strata, sv)
		rep.TotalVar += sv.Var
	}
	return rep
}

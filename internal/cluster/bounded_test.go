package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// benchFixture is the clustering workload of the pick benchmarks' 10%-budget
// regime: n normalized feature rows with blob structure plus noise, the
// shape clusterSelectFast hands to the clusterer. Shared by the skip-rate
// test and BenchmarkKMeans so the counter assertion covers exactly what the
// benchmark measures.
func benchFixture(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	nBlobs := 4
	centers := make([][]float64, nBlobs)
	for b := range centers {
		centers[b] = make([]float64, dim)
		for j := range centers[b] {
			centers[b][j] = rng.Float64()
		}
	}
	points := make([][]float64, n)
	for i := range points {
		c := centers[i%nBlobs]
		p := make([]float64, dim)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()*0.3
		}
		points[i] = p
	}
	return points
}

// assertLabelsEquivalent checks the divergence contract of the bounded path:
// labels must match the reference exactly, except for points whose two
// closest reference centers are equidistant to within float rounding (a
// nearest-center tie, where the bounds may legitimately keep the stale
// label).
func assertLabelsEquivalent(t *testing.T, points [][]float64, ref, got Assignment) {
	t.Helper()
	if ref.K != got.K {
		t.Fatalf("K = %d, reference %d", got.K, ref.K)
	}
	// Reference centroids for tie checking.
	refCenters := centroids(points, ref)
	gotCenters := centroids(points, got)
	for i := range ref.Labels {
		if ref.Labels[i] == got.Labels[i] {
			continue
		}
		dRef := sqDist(points[i], refCenters[ref.Labels[i]])
		dGot := sqDist(points[i], gotCenters[got.Labels[i]])
		if rel := math.Abs(dRef-dGot) / math.Max(math.Max(dRef, dGot), 1e-300); rel > 1e-9 {
			t.Fatalf("point %d: label %d (dist² %v) vs reference %d (dist² %v) — divergence beyond a nearest-center tie",
				i, got.Labels[i], dGot, ref.Labels[i], dRef)
		}
	}
}

func centroids(points [][]float64, a Assignment) [][]float64 {
	if len(points) == 0 {
		return nil
	}
	dim := len(points[0])
	out := make([][]float64, a.K)
	counts := make([]int, a.K)
	for c := range out {
		out[c] = make([]float64, dim)
	}
	for i, l := range a.Labels {
		counts[l]++
		for j, v := range points[i] {
			out[l][j] += v
		}
	}
	for c := range out {
		if counts[c] > 0 {
			for j := range out[c] {
				out[c][j] /= float64(counts[c])
			}
		}
	}
	return out
}

// TestKMeansBoundedStrictBitIdentical is the strict half of the equivalence
// contract: with pruning disabled, the bounded implementation (flat center
// storage, parallel sweep, shared in-place update) must reproduce the
// reference assignment bit for bit across randomized inputs, seeds, shapes
// and parallelism settings.
func TestKMeansBoundedStrictBitIdentical(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(60) + 1
		dim := rng.Intn(12) + 1
		k := rng.Intn(12) + 1
		points := make([][]float64, n)
		for i := range points {
			points[i] = make([]float64, dim)
			for j := range points[i] {
				points[i][j] = rng.NormFloat64()
			}
		}
		// A quarter of the trials use duplicated points, which force empty
		// clusters and the re-seed path.
		if trial%4 == 0 {
			for i := range points {
				points[i] = points[0]
			}
		}
		for _, par := range []int{1, 4} {
			ref := KMeansReference(points, k, rand.New(rand.NewSource(int64(trial)*7+1)), 0)
			got := KMeansBounded(points, k, rand.New(rand.NewSource(int64(trial)*7+1)),
				KMeansOpts{Strict: true, Parallelism: par})
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("trial %d parallelism %d: strict bounded diverges from reference\nref: %v\ngot: %v",
					trial, par, ref, got)
			}
		}
	}
}

// TestKMeansBoundedMatchesReference is the default-mode half: with pruning
// on, labels must match the reference except on documented nearest-center
// ties.
func TestKMeansBoundedMatchesReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1000))
		n := rng.Intn(80) + 1
		dim := rng.Intn(16) + 1
		k := rng.Intn(14) + 1
		points := make([][]float64, n)
		for i := range points {
			points[i] = make([]float64, dim)
			for j := range points[i] {
				points[i][j] = rng.NormFloat64() * (1 + float64(i%3))
			}
		}
		ref := KMeansReference(points, k, rand.New(rand.NewSource(int64(trial)*13+5)), 0)
		got := KMeansBounded(points, k, rand.New(rand.NewSource(int64(trial)*13+5)), KMeansOpts{})
		assertLabelsEquivalent(t, points, ref, got)
	}
}

// TestKMeansBoundedSkipsDistancesOnBenchFixture counter-asserts the point of
// the bounds: on the pick benchmark's clustering shape the sweeps must skip
// at least 70% of the distance computations the reference performs.
func TestKMeansBoundedSkipsDistancesOnBenchFixture(t *testing.T) {
	points := benchFixture(128, 32, 42)
	var st KMeansStats
	KMeansBounded(points, 13, rand.New(rand.NewSource(9)), KMeansOpts{Stats: &st})
	if st.Iterations < 2 {
		t.Fatalf("fixture converged in %d iteration(s); not a meaningful pruning workload", st.Iterations)
	}
	if st.PointDists >= st.PossibleDists {
		t.Fatalf("bounded path computed %d of %d possible distances — no pruning at all", st.PointDists, st.PossibleDists)
	}
	if frac := st.SkippedFrac(); frac < 0.70 {
		t.Fatalf("skipped %.1f%% of distance computations (%d of %d), want ≥ 70%%",
			frac*100, st.PossibleDists-st.PointDists, st.PossibleDists)
	}
	// Strict mode must report no savings.
	var strict KMeansStats
	KMeansBounded(points, 13, rand.New(rand.NewSource(9)), KMeansOpts{Strict: true, Stats: &strict})
	if strict.PointDists != strict.PossibleDists {
		t.Fatalf("strict mode computed %d of %d distances, want all", strict.PointDists, strict.PossibleDists)
	}
}

// TestKMeansBoundedDeterministicAcrossParallelism runs the bounded path at
// Parallelism 1, 4 and 8 over randomized inputs; all settings must agree bit
// for bit. Under -race this also proves the sweep's sharing discipline.
func TestKMeansBoundedDeterministicAcrossParallelism(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 500))
		n := rng.Intn(300) + 50 // enough points for several sweep blocks
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.Float64() * 5}
		}
		k := rng.Intn(10) + 2
		base := KMeansBounded(points, k, rand.New(rand.NewSource(int64(trial))), KMeansOpts{Parallelism: 1})
		for _, par := range []int{4, 8} {
			got := KMeansBounded(points, k, rand.New(rand.NewSource(int64(trial))), KMeansOpts{Parallelism: par})
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("trial %d: parallelism %d diverges from parallelism 1", trial, par)
			}
		}
	}
}

// TestKMeansReseedsEmptyClusters forces the empty-cluster re-seed path:
// duplicate points make k-means++ seed two centers on the same coordinates,
// so one cluster captures nothing on the first assignment (ascending-scan
// tie-break sends every tied point to the lower center) and must be
// re-seeded at the farthest point. Both implementations must agree and
// still produce k non-degenerate clusters.
func TestKMeansReseedsEmptyClusters(t *testing.T) {
	// 10 copies of the origin and two distant singletons: with k=3 the
	// origin-heavy mass forces at least one duplicate seed.
	var points [][]float64
	for i := 0; i < 10; i++ {
		points = append(points, []float64{0, 0})
	}
	points = append(points, []float64{100, 0}, []float64{0, 100})
	for seed := int64(0); seed < 30; seed++ {
		ref := KMeansReference(points, 3, rand.New(rand.NewSource(seed)), 0)
		got := KMeansBounded(points, 3, rand.New(rand.NewSource(seed)), KMeansOpts{})
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("seed %d: bounded diverges from reference on the re-seed fixture\nref: %v\ngot: %v", seed, ref, got)
		}
		strict := KMeansBounded(points, 3, rand.New(rand.NewSource(seed)), KMeansOpts{Strict: true})
		if !reflect.DeepEqual(ref, strict) {
			t.Fatalf("seed %d: strict bounded diverges from reference on the re-seed fixture", seed)
		}
	}
	// All-duplicates input: every non-first cluster is empty after each
	// sweep, so the re-seed path runs on every iteration and must still
	// terminate with a valid assignment.
	dup := make([][]float64, 6)
	for i := range dup {
		dup[i] = []float64{7, 7, 7}
	}
	a := KMeansBounded(dup, 3, rand.New(rand.NewSource(3)), KMeansOpts{})
	if len(a.Labels) != 6 || a.K != 3 {
		t.Fatalf("duplicate-point clustering returned %d labels, K=%d", len(a.Labels), a.K)
	}
	for _, l := range a.Labels {
		if l < 0 || l >= a.K {
			t.Fatalf("label %d out of range [0,%d)", l, a.K)
		}
	}
}

// --- k-means++ seeding edge cases (shared by both implementations) ---

func TestKMeansBoundedClampsKToN(t *testing.T) {
	points := [][]float64{{0}, {1}, {2}}
	a := KMeansBounded(points, 10, rand.New(rand.NewSource(1)), KMeansOpts{})
	if a.K != 3 {
		t.Fatalf("K = %d, want clamp to 3", a.K)
	}
	seen := map[int]bool{}
	for _, l := range a.Labels {
		if seen[l] {
			t.Fatalf("k==n but two points share label %d", l)
		}
		seen[l] = true
	}
}

func TestKMeansBoundedIdenticalPointsFallbackSeeding(t *testing.T) {
	// All-identical points drive the seeding distance mass to zero, which
	// must fall back to uniform seeding (sum <= 0 branch) instead of
	// dividing by zero, in both implementations, identically.
	points := make([][]float64, 9)
	for i := range points {
		points[i] = []float64{2, 4, 8}
	}
	for seed := int64(0); seed < 10; seed++ {
		ref := KMeansReference(points, 4, rand.New(rand.NewSource(seed)), 0)
		got := KMeansBounded(points, 4, rand.New(rand.NewSource(seed)), KMeansOpts{})
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("seed %d: identical-point seeding diverges", seed)
		}
		for _, l := range got.Labels {
			if l < 0 || l >= got.K {
				t.Fatalf("label %d out of range", l)
			}
		}
	}
}

func TestKMeansBoundedZeroDimVectors(t *testing.T) {
	// Zero-dimensional points: every distance is zero. Must not panic and
	// must match the reference.
	points := make([][]float64, 5)
	for i := range points {
		points[i] = []float64{}
	}
	for seed := int64(0); seed < 10; seed++ {
		ref := KMeansReference(points, 3, rand.New(rand.NewSource(seed)), 0)
		got := KMeansBounded(points, 3, rand.New(rand.NewSource(seed)), KMeansOpts{})
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("seed %d: dim-0 clustering diverges\nref: %v\ngot: %v", seed, ref, got)
		}
	}
}

func TestKMeansBoundedEmptyAndDegenerate(t *testing.T) {
	if a := KMeansBounded(nil, 3, rand.New(rand.NewSource(1)), KMeansOpts{}); len(a.Labels) != 0 {
		t.Fatalf("empty input: labels = %v", a.Labels)
	}
	one := [][]float64{{1, 2}}
	a := KMeansBounded(one, 5, rand.New(rand.NewSource(1)), KMeansOpts{})
	if a.K != 1 || a.Labels[0] != 0 {
		t.Fatalf("single point: %+v", a)
	}
}

// --- benchmarks (make bench-cluster) ---

// BenchmarkKMeans measures one clustering call on the bench fixture:
// reference (exact sweeps) vs bounded, the isolated version of the
// clustering tail inside BenchmarkPick.
func BenchmarkKMeans(b *testing.B) {
	points := benchFixture(128, 32, 42)
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			KMeansReference(points, 13, rand.New(rand.NewSource(9)), 0)
		}
	})
	b.Run("bounded", func(b *testing.B) {
		b.ReportAllocs()
		var st KMeansStats
		for i := 0; i < b.N; i++ {
			st = KMeansStats{}
			KMeansBounded(points, 13, rand.New(rand.NewSource(9)), KMeansOpts{Parallelism: 1, Stats: &st})
		}
		b.ReportMetric(st.SkippedFrac(), "skipped-dist-frac")
	})
}

// TestSqDistKernels pins the contract the nearest-center searches rely on:
// sqDistBounded takes the same d < bound branch as sqDist, returns exactly
// sqDist when it does not abandon, and an abandoned call's partial sum lies
// in [bound, sqDist]. Dimensions straddle the 4-lane groups and the
// 8-dimension abandon checkpoint.
func TestSqDistKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, dim := range []int{0, 1, 3, 4, 7, 8, 9, 16, 88, 245} {
		for trial := 0; trial < 200; trial++ {
			a, b := make([]float64, dim), make([]float64, dim)
			for j := range a {
				a[j], b[j] = rng.NormFloat64(), rng.NormFloat64()
			}
			full := sqDist(a, b)
			if got := sqDistBounded(a, b, math.Inf(1)); got != full {
				t.Fatalf("dim %d: unbounded sqDistBounded = %v, sqDist = %v", dim, got, full)
			}
			// Bounds below, at and above the full sum, plus the exact edge.
			for _, bound := range []float64{0, full * rng.Float64(), full, math.Nextafter(full, math.Inf(1)), full * (1 + rng.Float64())} {
				got := sqDistBounded(a, b, bound)
				if (got < bound) != (full < bound) {
					t.Fatalf("dim %d bound %v: sqDistBounded = %v takes a different branch than sqDist = %v", dim, bound, got, full)
				}
				if got < bound && got != full {
					t.Fatalf("dim %d bound %v: un-abandoned sqDistBounded = %v, sqDist = %v", dim, bound, got, full)
				}
				if got >= bound && got > full {
					t.Fatalf("dim %d bound %v: abandoned partial sum %v exceeds the full sum %v", dim, bound, got, full)
				}
			}
		}
	}
}

// BenchmarkSqDist measures the distance kernel alone at a small dimension,
// the adhoc-pick serving average (88 active columns) and the full feature
// width.
func BenchmarkSqDist(b *testing.B) {
	for _, dim := range []int{16, 88, 245} {
		points := benchFixture(2, dim, 5)
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += sqDist(points[0], points[1])
			}
			sqDistSink = sink
		})
	}
}

var sqDistSink float64

// TestUpdateHalfDistsIncrementalMatchesFull: refreshing only the rows of
// moved centers must leave exactly the matrix and row minima a full
// recomputation produces.
func TestUpdateHalfDistsIncrementalMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const k, dim = 9, 13
	centers := benchFixture(k, dim, 22)
	cc, half := make([]float64, k*k), make([]float64, k)
	wantCC, wantHalf := make([]float64, k*k), make([]float64, k)
	move := make([]float64, k)
	updateHalfDists(centers, cc, half, move, true)
	for round := 0; round < 50; round++ {
		for c := range centers {
			move[c] = 0
			if rng.Intn(3) == 0 { // round 0 may move none, later ones any subset
				old := append([]float64(nil), centers[c]...)
				for j := range centers[c] {
					centers[c][j] += rng.NormFloat64() * 0.1
				}
				move[c] = math.Sqrt(sqDist(old, centers[c]))
			}
		}
		updateHalfDists(centers, cc, half, move, false)
		updateHalfDists(centers, wantCC, wantHalf, nil, true)
		if !reflect.DeepEqual(cc, wantCC) || !reflect.DeepEqual(half, wantHalf) {
			t.Fatalf("round %d: incremental half-distances differ from a full recomputation", round)
		}
	}
}

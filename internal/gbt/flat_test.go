package gbt

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// trainRandomModel fits a small ensemble on noisy random data so trees have
// real depth and varied topology.
func trainRandomModel(t testing.TB, seed int64, n, dim int) (*Model, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64() * float64(j+1)
		}
		xs[i] = row
		ys[i] = row[0]*2 - row[dim-1] + rng.NormFloat64()*0.1
	}
	m, err := Train(xs, ys, Params{Trees: 25, MaxDepth: 5, Subsample: 0.9, ColSample: 0.9, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m, xs
}

// TestFlatMatchesReferenceBitIdentical is the core equivalence contract: the
// compiled flat engine must reproduce the pointer-tree reference evaluator
// bit for bit, on training rows and on fresh random rows.
func TestFlatMatchesReferenceBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		m, xs := trainRandomModel(t, seed, 300, 6)
		rng := rand.New(rand.NewSource(seed + 100))
		probe := append([][]float64(nil), xs...)
		for i := 0; i < 200; i++ {
			row := make([]float64, 6)
			for j := range row {
				row[j] = rng.NormFloat64() * 50
			}
			probe = append(probe, row)
		}
		for i, x := range probe {
			ref := m.PredictReference(x)
			if got := m.Predict(x); got != ref {
				t.Fatalf("seed %d row %d: Predict %v != reference %v", seed, i, got, ref)
			}
		}
	}
}

// TestNaNGoesRight pins the defined non-finite traversal rule: NaN features
// descend right at every split, in both evaluators, and ±Inf behave as
// ordered extremes. The rule is goesRight(x, t) = !(x <= t).
func TestNaNGoesRight(t *testing.T) {
	nan := math.NaN()
	if !goesRight(nan, 0) || !goesRight(nan, math.Inf(1)) || !goesRight(nan, math.Inf(-1)) {
		t.Fatal("NaN must descend right at every split")
	}
	if goesRight(math.Inf(-1), 0) {
		t.Fatal("-Inf must descend left of any finite threshold")
	}
	if !goesRight(math.Inf(1), 0) {
		t.Fatal("+Inf must descend right of any finite threshold")
	}
	if goesRight(math.Inf(1), math.Inf(1)) {
		t.Fatal("+Inf <= +Inf: must descend left")
	}

	// End to end: non-finite feature vectors evaluate identically (bitwise)
	// on the reference and flat paths, and produce finite outputs (leaves are
	// finite, traversal is total).
	m, _ := trainRandomModel(t, 11, 300, 4)
	rng := rand.New(rand.NewSource(12))
	specials := []float64{nan, math.Inf(1), math.Inf(-1), 0, -1e300, 1e300}
	for i := 0; i < 500; i++ {
		row := make([]float64, 4)
		for j := range row {
			if rng.Intn(2) == 0 {
				row[j] = specials[rng.Intn(len(specials))]
			} else {
				row[j] = rng.NormFloat64() * 10
			}
		}
		ref := m.PredictReference(row)
		if got := m.Predict(row); got != ref {
			t.Fatalf("non-finite row %v: flat %v != reference %v", row, got, ref)
		}
		if math.IsNaN(ref) || math.IsInf(ref, 0) {
			t.Fatalf("non-finite prediction %v for row %v", ref, row)
		}
	}
	// A NaN feature must take the right subtree of a split on that feature:
	// build a deterministic one-split model via snapshot.
	s := ModelSnapshot{
		Params: Params{LearningRate: 1},
		Base:   0,
		Dim:    1,
		Trees: []TreeSnapshot{{Nodes: []NodeSnapshot{
			{Feature: 0, Thresh: 0.5, Left: 1, Right: 2},
			{Feature: -1, Value: -1}, // left
			{Feature: -1, Value: +1}, // right
		}}},
	}
	sm, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := sm.Predict([]float64{nan}); got != 1 {
		t.Fatalf("NaN routed to value %v, want right leaf (+1)", got)
	}
	if got := sm.PredictReference([]float64{nan}); got != 1 {
		t.Fatalf("reference routed NaN to value %v, want right leaf (+1)", got)
	}
}

// TestSnapshotRoundTripsThroughFlatCompiler is the golden guarantee for
// PR-3/PR-4 snapshots: restoring a snapshot and compiling it flat yields
// exactly the arrays of the original model's flat form, and bit-identical
// predictions.
func TestSnapshotRoundTripsThroughFlatCompiler(t *testing.T) {
	m, xs := trainRandomModel(t, 21, 250, 5)
	back, err := FromSnapshot(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.flat, back.flat) {
		t.Fatal("flat compile of restored snapshot differs from original")
	}
	for i, x := range xs {
		if a, b := m.Predict(x), back.Predict(x); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("row %d: restored snapshot predicts %v through the flat engine, original %v", i, b, a)
		}
	}
}

// TestFlatTopologyCounts sanity-checks the compiled layout: every tree
// contributes nodes+leaves matching its pointer form, and single-leaf trees
// compile to a negative root.
func TestFlatTopologyCounts(t *testing.T) {
	m, _ := trainRandomModel(t, 5, 300, 4)
	splits, leaves := 0, 0
	for _, tr := range m.trees {
		for _, n := range tr.nodes {
			if n.feature < 0 {
				leaves++
			} else {
				splits++
			}
		}
	}
	if len(m.flat.feat) != splits {
		t.Fatalf("flat has %d split nodes, trees have %d", len(m.flat.feat), splits)
	}
	if len(m.flat.leafVal) != leaves {
		t.Fatalf("flat has %d leaves, trees have %d", len(m.flat.leafVal), leaves)
	}
	// Every child reference is either a valid node index or a valid negative
	// leaf reference.
	for j := 0; j < len(m.flat.feat); j++ {
		for _, ref := range []int32{m.flat.left[j], m.flat.right[j]} {
			if ref >= 0 && int(ref) >= len(m.flat.feat) {
				t.Fatalf("node %d links to out-of-range node %d", j, ref)
			}
			if ref < 0 && int(-ref-1) >= len(m.flat.leafVal) {
				t.Fatalf("node %d links to out-of-range leaf %d", j, -ref-1)
			}
		}
	}

	// Single-leaf tree: constant target keeps later trees leaf-only.
	xs := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}}
	ys := []float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}
	cm, err := Train(xs, ys, Params{Trees: 3})
	if err != nil {
		t.Fatal(err)
	}
	foundLeafRoot := false
	for _, r := range cm.flat.roots {
		if r < 0 {
			foundLeafRoot = true
		}
	}
	if !foundLeafRoot {
		t.Fatal("constant model compiled no single-leaf tree")
	}
	for _, x := range xs {
		if got, want := cm.Predict(x), cm.PredictReference(x); got != want {
			t.Fatalf("single-leaf tree: flat %v != reference %v", got, want)
		}
	}
}

// BenchmarkPredict compares the pointer-tree reference against the flat
// traversal arrays on one partition-batch-sized matrix, row by row; the
// flat sub-benchmark reports its in-run speedup over the reference.
func BenchmarkPredict(b *testing.B) {
	m, _ := trainRandomModel(b, 13, 400, 24)
	rng := rand.New(rand.NewSource(14))
	const rows = 512
	xs := make([][]float64, rows)
	for i := range xs {
		row := make([]float64, 24)
		for j := range row {
			row[j] = rng.NormFloat64() * 10
		}
		xs[i] = row
	}
	dst := make([]float64, rows)
	sweep := func(predict func([]float64) float64) {
		for j, x := range xs {
			dst[j] = predict(x)
		}
	}

	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep(m.PredictReference)
		}
	})
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		const refIters = 20
		refStart := time.Now()
		for i := 0; i < refIters; i++ {
			sweep(m.PredictReference)
		}
		refPer := time.Since(refStart) / refIters
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(m.Predict)
		}
		b.StopTimer()
		flatPer := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(refPer)/float64(flatPer), "speedup")
	})
}

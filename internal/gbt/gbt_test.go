package gbt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ps3/internal/exec"
)

func TestTrainRejectsEmptyInput(t *testing.T) {
	if _, err := Train(nil, nil, Params{}); err == nil {
		t.Fatal("want error on empty training set")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatal("want error on xs/ys length mismatch")
	}
}

func TestTrainRejectsRaggedRows(t *testing.T) {
	xs := [][]float64{{1, 2}, {3}}
	if _, err := Train(xs, []float64{1, 2}, Params{}); err == nil {
		t.Fatal("want error on ragged feature rows")
	}
}

func TestConstantTargetPredictsConstant(t *testing.T) {
	xs := make([][]float64, 50)
	ys := make([]float64, 50)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = 7.5
	}
	m, err := Train(xs, ys, Params{Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if got := m.Predict(x); math.Abs(got-7.5) > 1e-9 {
			t.Fatalf("Predict = %v, want 7.5", got)
		}
	}
}

func TestFitsStepFunction(t *testing.T) {
	// y = 10 if x0 > 0.5 else 0; plenty of data, single informative feature.
	rng := rand.New(rand.NewSource(2))
	n := 400
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x0 := rng.Float64()
		xs[i] = []float64{x0, rng.Float64(), rng.Float64()}
		if x0 > 0.5 {
			ys[i] = 10
		}
	}
	m, err := Train(xs, ys, Params{Trees: 60, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	mse := 0.0
	for i, x := range xs {
		d := m.Predict(x) - ys[i]
		mse += d * d
	}
	mse /= float64(n)
	if mse > 0.5 {
		t.Fatalf("train MSE %v too high for a learnable step function", mse)
	}
}

func TestFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 600
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		a, b := rng.Float64(), rng.Float64()
		xs[i] = []float64{a, b}
		ys[i] = 3*a - 2*b + 1
	}
	m, err := Train(xs, ys, Params{Trees: 120, MaxDepth: 4, LearningRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i, x := range xs {
		d := m.Predict(x) - ys[i]
		mse += d * d
	}
	mse /= float64(n)
	// Trees approximate smooth functions piecewise; generous but meaningful.
	if mse > 0.05 {
		t.Fatalf("train MSE %v too high for a linear target", mse)
	}
}

func TestImportanceConcentratesOnInformativeFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 300
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x0 := rng.Float64()
		xs[i] = []float64{x0, rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = 5 * x0
	}
	m, err := Train(xs, ys, Params{Trees: 40})
	if err != nil {
		t.Fatal(err)
	}
	imp := m.Importance()
	if len(imp) != 4 {
		t.Fatalf("importance dim %d, want 4", len(imp))
	}
	var total float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative gain importance %v", v)
		}
		total += v
	}
	if total <= 0 {
		t.Fatal("no split gain recorded at all")
	}
	if imp[0]/total < 0.9 {
		t.Fatalf("feature 0 carries only %.0f%% of gain; want ≥ 90%%", 100*imp[0]/total)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 100
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = xs[i][0] * 2
	}
	p := Params{Trees: 20, Subsample: 0.8, ColSample: 0.8, Seed: 99}
	m1, err := Train(xs, ys, p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(xs, ys, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if m1.Predict(x) != m2.Predict(x) {
			t.Fatal("same seed, different predictions")
		}
	}
}

func TestSubsamplingStillLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 500
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x0 := rng.Float64()
		xs[i] = []float64{x0}
		if x0 > 0.3 {
			ys[i] = 1
		}
	}
	m, err := Train(xs, ys, Params{Trees: 50, Subsample: 0.5, ColSample: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Check classification-style separation via sign of centered prediction.
	correct := 0
	for i, x := range xs {
		pred := m.Predict(x)
		if (pred > 0.5) == (ys[i] == 1) {
			correct++
		}
	}
	if frac := float64(correct) / float64(n); frac < 0.95 {
		t.Fatalf("accuracy %v with subsampling; want ≥ 0.95", frac)
	}
}

func TestModelAccessors(t *testing.T) {
	xs := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}}
	ys := []float64{1, 2, 3, 4, 5, 6}
	m, err := Train(xs, ys, Params{Trees: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.trees) != 7 {
		t.Fatalf("%d trees, want 7", len(m.trees))
	}
	if m.Dim() != 2 {
		t.Fatalf("Dim = %d, want 2", m.Dim())
	}
}

func TestBinCutsStrictlyIncreasing(t *testing.T) {
	xs := [][]float64{{1}, {1}, {1}, {2}, {2}, {3}, {4}, {4}, {5}, {9}}
	cuts := binCuts(xs, 0, 8)
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not strictly increasing: %v", cuts)
		}
	}
	// No cut at or above the max (splitting there is vacuous).
	if len(cuts) > 0 && cuts[len(cuts)-1] >= 9 {
		t.Fatalf("trailing vacuous cut in %v", cuts)
	}
}

func TestBinCutsConstantColumn(t *testing.T) {
	xs := [][]float64{{5}, {5}, {5}, {5}}
	cuts := binCuts(xs, 0, 8)
	if len(cuts) != 0 {
		t.Fatalf("constant column produced cuts %v", cuts)
	}
}

func TestConstantFeatureNeverSplit(t *testing.T) {
	// Feature 1 is constant — it must receive zero importance.
	rng := rand.New(rand.NewSource(8))
	n := 200
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x0 := rng.Float64()
		xs[i] = []float64{x0, 42}
		ys[i] = x0
	}
	m, err := Train(xs, ys, Params{Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	if imp := m.Importance(); imp[1] != 0 {
		t.Fatalf("constant feature got importance %v", imp[1])
	}
}

func TestScoreGainSymmetricAndNonNegativeAtOptimum(t *testing.T) {
	// Splitting a homogeneous node yields zero gain.
	if g := scoreGain(5, 10, 5, 10, 1); g > 1e-12 {
		t.Fatalf("homogeneous split gain %v, want ~0", g)
	}
	// A perfectly separating split yields positive gain.
	if g := scoreGain(-10, 10, 10, 10, 1); g <= 0 {
		t.Fatalf("separating split gain %v, want > 0", g)
	}
}

func TestPredictionsAlwaysFinite(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 10
		rng := rand.New(rand.NewSource(seed))
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = []float64{rng.NormFloat64() * 100, rng.NormFloat64()}
			ys[i] = rng.NormFloat64() * 10
		}
		m, err := Train(xs, ys, Params{Trees: 5, Seed: seed})
		if err != nil {
			return false
		}
		for _, x := range xs {
			if v := m.Predict(x); math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMoreTreesNeverHurtTrainMSE(t *testing.T) {
	// Squared-loss boosting on the training set is monotone non-increasing
	// in rounds (with full sampling); verify on a fixed dataset.
	rng := rand.New(rand.NewSource(9))
	n := 200
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x0 := rng.Float64()
		xs[i] = []float64{x0, rng.Float64()}
		ys[i] = math.Sin(6*x0) * 3
	}
	mseAt := func(trees int) float64 {
		m, err := Train(xs, ys, Params{Trees: trees, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for i, x := range xs {
			d := m.Predict(x) - ys[i]
			s += d * d
		}
		return s / float64(n)
	}
	m5, m50 := mseAt(5), mseAt(50)
	if m50 > m5+1e-9 {
		t.Fatalf("50 trees MSE %v worse than 5 trees MSE %v", m50, m5)
	}
}

// TestTrainRejectsTooManyBins: bin codes are one byte, so a 257th bin would
// wrap into bin 0 and corrupt every histogram; Train refuses it instead.
func TestTrainRejectsTooManyBins(t *testing.T) {
	xs := make([][]float64, 600)
	ys := make([]float64, 600)
	for i := range xs {
		xs[i] = []float64{float64(i)}
		ys[i] = float64(i % 2)
	}
	if _, err := Train(xs, ys, Params{Trees: 1, MaxBins: 257}); err == nil {
		t.Fatal("want an error for MaxBins 257")
	}
	if _, err := Train(xs, ys, Params{Trees: 1, MaxBins: 256}); err != nil {
		t.Fatalf("MaxBins 256 is the largest legal setting: %v", err)
	}
}

// funnelShapeSet is one funnel stage's training set at the shape of the
// serving benchmark's aria-many fixture: 10 queries × 400 partitions over
// 245 features, Algorithm 4's ±√(1/class size) labels. Feature columns mix
// continuous values, a few tied levels, sparse counts and constants.
func funnelShapeSet(seed int64) ([][]float64, []float64) {
	const rows, dim = 4000, 245
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, rows)
	ys := make([]float64, rows)
	for i := range xs {
		row := make([]float64, dim)
		for f := range row {
			switch f % 4 {
			case 0:
				row[f] = rng.Float64()
			case 1:
				row[f] = float64(rng.Intn(6))
			case 2:
				if rng.Intn(8) == 0 {
					row[f] = rng.ExpFloat64()
				}
			case 3:
				row[f] = float64(f)
			}
		}
		xs[i] = row
		ys[i] = -math.Sqrt(1.0 / 3000)
		if row[0]+row[4]/2 > 0.9 {
			ys[i] = math.Sqrt(1.0 / 1000)
		}
	}
	return xs, ys
}

// BenchmarkTrain times funnel training at the aria-many shape (4 000 rows,
// 245 features, 40 trees of depth 4): /stage is one regressor, /reference
// the frozen row-major trainer on the same input, /funnel the four stages
// of a funnel on exec.MapErr, as picker.Train runs them (run with -cpu 1,2).
func BenchmarkTrain(b *testing.B) {
	xs, ys := funnelShapeSet(1)
	p := Params{Trees: 40, MaxDepth: 4, LearningRate: 0.25, Subsample: 0.9, ColSample: 0.9, Seed: 3}
	b.Run("stage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Train(xs, ys, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := trainReference(xs, ys, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("funnel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := exec.MapErr(4, exec.Options{}, func(stage int) (*Model, error) {
				sp := p
				sp.Seed += int64(stage)
				return Train(xs, ys, sp)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

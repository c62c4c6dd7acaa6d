package core

import (
	"math/rand"
	"slices"
	"testing"

	"ps3/internal/dataset"
	"ps3/internal/metrics"
	"ps3/internal/picker"
	"ps3/internal/query"
	"ps3/internal/testutil"
)

// buildSystem creates a small Aria dataset and a trained system shared by
// the package tests.
func buildSystem(t *testing.T, trainN int) (*System, *dataset.Dataset, []*query.Query) {
	t.Helper()
	ds, err := dataset.Aria(dataset.Config{Rows: 20000, Parts: 50, Seed: 1})
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	sys, err := New(ds.Table, Options{Workload: ds.Workload, TrainLSS: false, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	gen, err := query.NewGenerator(ds.Workload, ds.Table, 42)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	train := gen.SampleN(trainN)
	test := gen.SampleN(10)
	if err := sys.Train(train, nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	return sys, ds, test
}

func TestSystemEndToEnd(t *testing.T) {
	sys, _, test := buildSystem(t, 30)
	for _, q := range test {
		res, err := sys.Run(q, 0.2)
		if err != nil {
			t.Fatalf("Run(%s): %v", q, err)
		}
		if res.PartsRead == 0 && len(res.Values) > 0 {
			t.Errorf("query %s: got values without reading partitions", q)
		}
		if res.FracRead > 0.35 {
			t.Errorf("query %s: read %.2f of partitions, budget was 0.20 (+outliers)", q, res.FracRead)
		}
	}
}

func TestSystemBeatsRandomOnAverage(t *testing.T) {
	sys, _, test := buildSystem(t, 40)
	rng := rand.New(rand.NewSource(5))
	var ps3Err, randErr float64
	n := 0
	for _, q := range test {
		ex, err := sys.MakeExample(q)
		if err != nil {
			t.Fatalf("MakeExample: %v", err)
		}
		if len(ex.TruthVals) == 0 {
			continue
		}
		budget := sys.Table.NumParts() / 10
		sel, err := sys.Pick(q, 0.1)
		if err != nil {
			t.Fatalf("Pick: %v", err)
		}
		est := picker.EstimateFromPerPart(ex.Compiled, ex.PerPart, sel)
		ps3Err += metrics.Compare(ex.TruthVals, est).AvgRelErr
		// Average several random draws.
		var r float64
		const runs = 5
		for k := 0; k < runs; k++ {
			rsel := picker.Uniform(sys.Table.NumParts(), budget, rng)
			rest := picker.EstimateFromPerPart(ex.Compiled, ex.PerPart, rsel)
			r += metrics.Compare(ex.TruthVals, rest).AvgRelErr
		}
		randErr += r / runs
		n++
	}
	if n == 0 {
		t.Fatal("no test queries produced answers")
	}
	ps3Err /= float64(n)
	randErr /= float64(n)
	t.Logf("avg rel err over %d queries at 10%% budget: PS3=%.4f random=%.4f", n, ps3Err, randErr)
	if ps3Err > randErr {
		t.Errorf("PS3 (%.4f) should not be worse than uniform random (%.4f) on a sorted layout", ps3Err, randErr)
	}
}

func TestRunExactMatchesGroundTruth(t *testing.T) {
	sys, _, test := buildSystem(t, 20)
	q := test[0]
	res, err := sys.RunExact(q)
	if err != nil {
		t.Fatalf("RunExact: %v", err)
	}
	// Running with budget 1.0 must equal exact evaluation.
	full, err := sys.Run(q, 1.0)
	if err != nil {
		t.Fatalf("Run(1.0): %v", err)
	}
	if len(res.Values) != len(full.Values) {
		t.Fatalf("full-budget run has %d groups, exact has %d", len(full.Values), len(res.Values))
	}
	for g, tv := range res.Values {
		fv, ok := full.Values[g]
		if !ok {
			t.Fatalf("group %s missing from full-budget run", res.Labels[g])
		}
		for j := range tv {
			if diff := tv[j] - fv[j]; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("group %s agg %d: exact %g vs full-budget %g", res.Labels[g], j, tv[j], fv[j])
			}
		}
	}
}

func TestNewFromStatsRoundTrip(t *testing.T) {
	sys, ds, test := buildSystem(t, 20)
	bound, err := NewFromStats(ds.Table, sys.Stats, sys.Opts)
	if err != nil {
		t.Fatalf("NewFromStats: %v", err)
	}
	if err := bound.Train(test[:5], nil); err != nil {
		t.Fatalf("Train on rebound system: %v", err)
	}
	if _, err := bound.Run(test[5], 0.2); err != nil {
		t.Fatalf("Run on rebound system: %v", err)
	}
}

func TestNewFromStatsRejectsMismatchedShapes(t *testing.T) {
	sys, ds, _ := buildSystem(t, 10)
	// Different partition count.
	other, err := ds.WithPartitions(25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromStats(other.Table, sys.Stats, sys.Opts); err == nil {
		t.Fatal("want error for partition-count mismatch")
	}
	// Different schema.
	kdd, err := dataset.KDD(dataset.Config{Rows: 5000, Parts: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromStats(kdd.Table, sys.Stats, sys.Opts); err == nil {
		t.Fatal("want error for schema mismatch")
	}
}

func TestTrainWithLSS(t *testing.T) {
	ds, err := dataset.Aria(dataset.Config{Rows: 8000, Parts: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(ds.Table, Options{Workload: ds.Workload, TrainLSS: true,
		LSSBudgets: []float64{0.2, 0.5}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, ds.Table, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(gen.SampleN(15), nil); err != nil {
		t.Fatal(err)
	}
	if sys.LSS == nil {
		t.Fatal("TrainLSS did not fit the LSS baseline")
	}
}

func TestPickBeforeTrainErrors(t *testing.T) {
	ds, err := dataset.Aria(dataset.Config{Rows: 4000, Parts: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(ds.Table, Options{Workload: ds.Workload})
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}}
	if _, err := sys.Pick(q, 0.1); err == nil {
		t.Fatal("Pick before Train should fail")
	}
}

func TestBudgetParts(t *testing.T) {
	cases := []struct {
		frac  float64
		total int
		want  int
	}{
		{0, 10, 1},
		{0.04, 10, 1}, // rounds to 0, floored to 1
		{0.25, 10, 3}, // rounds to nearest
		{1, 10, 10},
		{5, 10, 10}, // capped
	}
	for _, c := range cases {
		if got := budgetParts(c.frac, c.total); got != c.want {
			t.Fatalf("budgetParts(%v, %d) = %d, want %d", c.frac, c.total, got, c.want)
		}
	}
}

func TestMakeExamplesPropagatesCompileErrors(t *testing.T) {
	sys, _, _ := buildSystem(t, 10)
	bad := &query.Query{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("no_such_col")}}}
	if _, err := sys.MakeExamples([]*query.Query{bad}); err == nil {
		t.Fatal("want error for unknown column")
	}
}

func TestRunChargesIOAccounting(t *testing.T) {
	sys, _, test := buildSystem(t, 15)
	sel, _, err := sys.PickParts(test[0], sys.PartsForBudget(0.2))
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, wp := range sel {
		want = append(want, wp.Part)
	}
	slices.Sort(want)
	src := testutil.CountReads(sys.Source)
	sys.Source = src
	res, err := sys.Run(test[0], 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Reads(); !slices.Equal(got, want) || len(got) != res.PartsRead {
		t.Fatalf("Run read partitions %v, picked %v, result says %d reads", got, want, res.PartsRead)
	}
}

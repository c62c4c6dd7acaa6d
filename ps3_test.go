package ps3_test

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"ps3"
	"ps3/internal/fault"
	"ps3/internal/metrics"
	"ps3/internal/sql"
	"ps3/internal/store"
)

// buildSalesTable creates the README quickstart table: prices with a
// region-dependent distribution so partition selection has signal.
func buildSalesTable(t testing.TB, rows, rowsPerPart int) *ps3.Table {
	t.Helper()
	schema := ps3.MustSchema(
		ps3.Column{Name: "price", Kind: ps3.Numeric, Positive: true},
		ps3.Column{Name: "qty", Kind: ps3.Numeric, Positive: true},
		ps3.Column{Name: "region", Kind: ps3.Categorical},
	)
	b, err := ps3.NewBuilder(schema, rowsPerPart)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < rows; i++ {
		region := regions[(i/rowsPerPart)%len(regions)] // region correlates with layout
		price := rng.Float64() * 100
		if region == "east" {
			price *= 3 // east is disproportionately valuable
		}
		qty := 1 + float64(rng.Intn(10))
		if err := b.Append([]float64{price, qty, 0}, []string{"", "", region}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

func newTrainedSystem(t testing.TB, tbl *ps3.Table) *ps3.System {
	t.Helper()
	sys, err := ps3.Open(tbl, ps3.Options{Workload: ps3.Workload{
		GroupableCols: []string{"region"},
		PredicateCols: []string{"price", "qty", "region"},
		AggCols:       []string{"price", "qty"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := ps3.NewGenerator(sys.Opts.Workload, tbl, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(gen.SampleN(40), nil); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIEndToEnd(t *testing.T) {
	tbl := buildSalesTable(t, 8_000, 200) // 40 partitions
	sys := newTrainedSystem(t, tbl)

	q := &ps3.Query{
		Aggs: []ps3.Aggregate{
			{Kind: ps3.Sum, Expr: ps3.Col("price")},
			{Kind: ps3.Count},
		},
		Pred:    &ps3.Clause{Col: "price", Op: ps3.OpGt, Num: 50},
		GroupBy: []string{"region"},
	}

	exact, err := sys.RunExact(q)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := sys.Run(q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if approx.PartsRead > 10 {
		t.Fatalf("budget 25%% of 40 parts read %d partitions", approx.PartsRead)
	}
	if approx.FracRead > 0.26 {
		t.Fatalf("FracRead = %v", approx.FracRead)
	}
	e := metrics.Compare(exact.Values, approx.Values)
	if e.MissedGroups > 0 {
		t.Fatalf("missed %v of groups at 25%% budget on an easy query", e.MissedGroups)
	}
	if e.AvgRelErr > 0.35 {
		t.Fatalf("avg relative error %v too high at 25%% budget", e.AvgRelErr)
	}
	// Labels decode group keys into readable text.
	for g := range approx.Values {
		if approx.Labels[g] == "" {
			t.Fatal("missing group label")
		}
	}
}

func TestPublicAPIErrorShrinksWithBudget(t *testing.T) {
	tbl := buildSalesTable(t, 6_000, 150)
	sys := newTrainedSystem(t, tbl)
	q := &ps3.Query{
		Aggs:    []ps3.Aggregate{{Kind: ps3.Sum, Expr: ps3.Col("price")}},
		GroupBy: []string{"region"},
	}
	exact, err := sys.RunExact(q)
	if err != nil {
		t.Fatal(err)
	}
	errAt := func(budget float64) float64 {
		res, err := sys.Run(q, budget)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Compare(exact.Values, res.Values).AvgRelErr
	}
	lo, hi := errAt(0.1), errAt(0.8)
	if hi > lo+0.02 {
		t.Fatalf("error grew with budget: %v at 10%% vs %v at 80%%", lo, hi)
	}
}

func TestPublicAPIRunBeforeTrainFails(t *testing.T) {
	tbl := buildSalesTable(t, 1_000, 100)
	sys, err := ps3.Open(tbl, ps3.Options{Workload: ps3.Workload{
		GroupableCols: []string{"region"},
		PredicateCols: []string{"price"},
		AggCols:       []string{"price"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	q := &ps3.Query{Aggs: []ps3.Aggregate{{Kind: ps3.Count}}}
	if _, err := sys.Run(q, 0.1); err == nil {
		t.Fatal("Run before Train should fail")
	}
}

// TestPublicAPITableSerializationRoundTrip: a table written to a store file
// and reopened backs a system restored with OpenSnapshot whose exact answers
// equal the resident system's bit for bit.
func TestPublicAPITableSerializationRoundTrip(t *testing.T) {
	tbl := buildSalesTable(t, 1_000, 100)
	sys := newTrainedSystem(t, tbl)
	path := filepath.Join(t.TempDir(), "sales.ps3")
	if _, err := store.WriteFileFS(fault.OS, path, tbl, store.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumRows() != tbl.NumRows() || r.NumParts() != tbl.NumParts() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			r.NumRows(), r.NumParts(), tbl.NumRows(), tbl.NumParts())
	}
	var snap bytes.Buffer
	if _, err := sys.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	back, err := ps3.OpenSnapshot(&snap, r)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := sql.Parse("SELECT region, SUM(price), COUNT(*) FROM t WHERE qty > 3 GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.RunExact(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.RunExact(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Values) == 0 || len(got.Values) != len(want.Values) {
		t.Fatalf("store-backed answer has %d groups, resident %d", len(got.Values), len(want.Values))
	}
	for g, wv := range want.Values {
		gv := got.Values[g]
		for i := range wv {
			if i >= len(gv) || math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
				t.Fatalf("group %q: store-backed %v, resident %v", want.Labels[g], gv, wv)
			}
		}
	}
}

func TestPublicAPIPredicateBuilders(t *testing.T) {
	p := &ps3.And{Children: []ps3.Pred{
		&ps3.Clause{Col: "price", Op: ps3.OpGt, Num: 10},
		&ps3.Or{Children: []ps3.Pred{
			&ps3.Clause{Col: "region", Op: ps3.OpEq, Strs: []string{"east"}},
			&ps3.Clause{Col: "region", Op: ps3.OpIn, Strs: []string{"west", "north"}},
		}},
	}}
	if p.String() == "" {
		t.Fatal("predicate did not render")
	}
	tbl := buildSalesTable(t, 500, 100)
	sys := newTrainedSystem(t, tbl)
	q := &ps3.Query{Aggs: []ps3.Aggregate{{Kind: ps3.Count}}, Pred: p}
	if _, err := sys.Run(q, 0.5); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIStatsPersistenceRoundTrip(t *testing.T) {
	tbl := buildSalesTable(t, 2_000, 100)
	sys, err := ps3.Open(tbl, ps3.Options{Workload: ps3.Workload{
		GroupableCols: []string{"region"},
		PredicateCols: []string{"price", "region"},
		AggCols:       []string{"price"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sys.Stats.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ps3.ReadStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := ps3.OpenWithStats(tbl, restored, sys.Opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := ps3.NewGenerator(sys.Opts.Workload, tbl, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.Train(gen.SampleN(25), nil); err != nil {
		t.Fatal(err)
	}
	q := &ps3.Query{
		Aggs:    []ps3.Aggregate{{Kind: ps3.Sum, Expr: ps3.Col("price")}},
		GroupBy: []string{"region"},
	}
	res, err := sys2.Run(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) == 0 {
		t.Fatal("no groups from restored-stats system")
	}
}

func TestPublicAPIOpenWithStatsValidatesShape(t *testing.T) {
	tblA := buildSalesTable(t, 1_000, 100) // 10 parts
	tblB := buildSalesTable(t, 1_000, 50)  // 20 parts
	sysA, err := ps3.Open(tblA, ps3.Options{Workload: ps3.Workload{
		GroupableCols: []string{"region"},
		PredicateCols: []string{"price"},
		AggCols:       []string{"price"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps3.OpenWithStats(tblB, sysA.Stats, sysA.Opts); err == nil {
		t.Fatal("want error binding stats to a table with a different partition count")
	}
}

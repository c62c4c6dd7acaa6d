package picker

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ps3/internal/exec"
	"ps3/internal/gbt"
	"ps3/internal/metrics"
	"ps3/internal/query"
	"ps3/internal/stats"
	"ps3/internal/table"
)

// testEnv bundles a small synthetic table, its statistics and a trained
// picker for use across tests.
type testEnv struct {
	tbl *table.Table
	ts  *stats.TableStats
	p   *Picker
	exs []Example
}

// newTestEnv builds a table where partition importance is learnable: the
// numeric column "v" is sorted so later partitions carry larger values, and
// the categorical column "g" has a rare group confined to one partition.
func newTestEnv(t testing.TB, parts, rowsPer int, cfg Config) *testEnv {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	return newEnvFromRows(t, parts, rowsPer, cfg, func(part, i int) (v, w float64, g string) {
		v = float64(part+1) * (1 + rng.Float64()) // increasing with partition
		w = rng.NormFloat64()
		g = "common"
		if part == parts-1 && i%4 == 0 {
			g = "rare"
		} else if i%2 == 0 {
			g = "even"
		}
		return v, w, g
	})
}

// newEnvFromRows builds the (v, w, g) table row by row from gen (part is the
// row's partition, i its table-wide index), its statistics, 25 generated
// training queries and a trained picker.
func newEnvFromRows(t testing.TB, parts, rowsPer int, cfg Config, gen func(part, i int) (v, w float64, g string)) *testEnv {
	t.Helper()
	schema := table.MustSchema(
		table.Column{Name: "v", Kind: table.Numeric, Positive: true},
		table.Column{Name: "w", Kind: table.Numeric},
		table.Column{Name: "g", Kind: table.Categorical},
	)
	b, err := table.NewBuilder(schema, rowsPer)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parts*rowsPer; i++ {
		v, w, g := gen(i/rowsPer, i)
		if err := b.Append([]float64{v, w, 0}, []string{"", "", g}); err != nil {
			t.Fatal(err)
		}
	}
	return newEnvOver(t, b.Finish(), cfg)
}

// newEnvOver builds tbl's statistics, 25 generated training queries over it
// and a picker trained on them.
func newEnvOver(t testing.TB, tbl *table.Table, cfg Config) *testEnv {
	t.Helper()
	ts, err := stats.Build(tbl, stats.Options{GroupableCols: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}

	qgen, err := query.NewGenerator(query.Workload{
		GroupableCols: []string{"g"},
		PredicateCols: []string{"v", "w", "g"},
		AggCols:       []string{"v", "w"},
	}, tbl, 23)
	if err != nil {
		t.Fatal(err)
	}
	var exs []Example
	for _, q := range qgen.SampleN(25) {
		c, err := query.Compile(q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		totalAns, perPart := c.GroundTruth(tbl)
		exs = append(exs, Example{
			Query:     q,
			Compiled:  c,
			Features:  ts.Features(q),
			Contrib:   Contribution(c, perPart, totalAns),
			PerPart:   perPart,
			TruthVals: c.FinalValues(totalAns),
		})
	}
	p, err := Train(ts, exs, cfg, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{tbl: tbl, ts: ts, p: p, exs: exs}
}

func TestTrainRequiresExamples(t *testing.T) {
	if _, err := Train(&stats.TableStats{}, nil, Config{}, exec.Options{}); err == nil {
		t.Fatal("want error with no training examples")
	}
}

func TestTrainBuildsKRegressors(t *testing.T) {
	env := newTestEnv(t, 12, 25, Config{K: 3, Seed: 1})
	if len(env.p.Regs) != 3 {
		t.Fatalf("got %d regressors, want 3", len(env.p.Regs))
	}
	if len(env.p.Thresholds) != 3 {
		t.Fatalf("got %d thresholds, want 3", len(env.p.Thresholds))
	}
}

// snapshotBits flattens a regressor snapshot to integers, every float by its
// bits, so two snapshots compare equal only when they are identical.
func snapshotBits(s gbt.ModelSnapshot) []uint64 {
	p := s.Params
	out := []uint64{uint64(p.Trees), uint64(p.MaxDepth), math.Float64bits(p.LearningRate),
		math.Float64bits(p.Lambda), math.Float64bits(p.Gamma), uint64(p.MinLeaf), uint64(p.MaxBins),
		math.Float64bits(p.Subsample), math.Float64bits(p.ColSample), uint64(p.Seed),
		math.Float64bits(s.Base), uint64(s.Dim)}
	for _, v := range s.Importance {
		out = append(out, math.Float64bits(v))
	}
	for _, tr := range s.Trees {
		out = append(out, uint64(len(tr.Nodes)))
		for _, n := range tr.Nodes {
			out = append(out, uint64(n.Feature), math.Float64bits(n.Thresh), uint64(n.Left), uint64(n.Right), math.Float64bits(n.Value))
		}
	}
	return out
}

// TestTrainFunnelParallelismInvariant: the funnel stages train concurrently,
// yet the regressors, in stage order, are the same at every parallelism.
func TestTrainFunnelParallelismInvariant(t *testing.T) {
	for _, k := range []int{4, 5} {
		cfg := Config{K: k, Seed: 9}
		env := newTestEnv(t, 16, 30, cfg)
		var want [][]uint64
		for _, par := range []int{1, 2, 4} {
			p, err := Train(env.ts, env.exs, cfg, exec.Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Regs) != k || len(p.Thresholds) != k {
				t.Fatalf("K=%d parallelism %d: %d regressors, %d thresholds", k, par, len(p.Regs), len(p.Thresholds))
			}
			got := make([][]uint64, k)
			for i, r := range p.Regs {
				got[i] = snapshotBits(r.Snapshot())
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("K=%d: regressors at parallelism %d differ from parallelism 1", k, par)
			}
		}
	}
}

func TestPickRespectsBudget(t *testing.T) {
	env := newTestEnv(t, 15, 20, Config{Seed: 2})
	for _, ex := range env.exs[:5] {
		for _, n := range []int{1, 3, 7, 14} {
			sel := env.p.PickBatch(ex.Query, n, rand.New(rand.NewSource(3)), exec.Options{Parallelism: 1})
			if len(sel) > n {
				t.Fatalf("budget %d, selected %d partitions", n, len(sel))
			}
			seen := map[int]bool{}
			for _, wp := range sel {
				if wp.Part < 0 || wp.Part >= 15 {
					t.Fatalf("selected partition %d out of range", wp.Part)
				}
				if seen[wp.Part] {
					t.Fatalf("partition %d selected twice", wp.Part)
				}
				seen[wp.Part] = true
				if wp.Weight < 1 {
					t.Fatalf("partition %d has weight %v < 1", wp.Part, wp.Weight)
				}
			}
		}
	}
}

func TestPickFullBudgetIsExact(t *testing.T) {
	env := newTestEnv(t, 10, 20, Config{Seed: 3})
	ex := env.exs[0]
	sel := env.p.PickBatch(ex.Query, 10, rand.New(rand.NewSource(1)), exec.Options{Parallelism: 1})
	if len(sel) != 10 {
		t.Fatalf("full budget selected %d of 10", len(sel))
	}
	for _, wp := range sel {
		if wp.Weight != 1 {
			t.Fatalf("full budget weight %v, want 1", wp.Weight)
		}
	}
	est := EstimateFromPerPart(ex.Compiled, ex.PerPart, sel)
	e := metrics.Compare(ex.TruthVals, est)
	if e.AvgRelErr > 1e-9 {
		t.Fatalf("full-budget estimate has error %v", e.AvgRelErr)
	}
}

func TestPickZeroBudget(t *testing.T) {
	env := newTestEnv(t, 8, 15, Config{Seed: 4})
	ex := env.exs[0]
	if sel := env.p.PickBatch(ex.Query, 0, rand.New(rand.NewSource(1)), exec.Options{Parallelism: 1}); len(sel) != 0 {
		t.Fatalf("zero budget selected %d partitions", len(sel))
	}
}

func TestPickerWeightsCoverFilteredPopulation(t *testing.T) {
	// For a COUNT(*) query with no predicate, the weighted sample should
	// roughly reproduce the total row count (weights act as inverse
	// inclusion probabilities / cluster sizes).
	env := newTestEnv(t, 20, 25, Config{Seed: 5})
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}}
	c, err := query.Compile(q, env.tbl)
	if err != nil {
		t.Fatal(err)
	}
	sel := env.p.PickBatch(q, 8, rand.New(rand.NewSource(6)), exec.Options{Parallelism: 1})
	est, err := c.EstimateCtx(context.Background(), env.tbl, sel)
	if err != nil {
		t.Fatal(err)
	}
	vals := c.FinalValues(est)
	var got float64
	for _, v := range vals {
		got = v[0]
	}
	want := float64(env.tbl.NumRows())
	if got < want*0.5 || got > want*1.5 {
		t.Fatalf("weighted COUNT estimate %v, true %v — weights are off", got, want)
	}
}

func TestContributionDefinition(t *testing.T) {
	// Synthetic per-partition answers: partition 0 contributes 100% of group
	// "a", partition 1 contributes half of each.
	tbl := buildTinyTable(t)
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("v")}}}
	c, err := query.Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	total := c.NewAnswer()
	total.Groups["a"] = []float64{10}
	total.Groups["b"] = []float64{40}
	p0 := c.NewAnswer()
	p0.Groups["a"] = []float64{10}
	p1 := c.NewAnswer()
	p1.Groups["a"] = []float64{0}
	p1.Groups["b"] = []float64{20}
	contrib := Contribution(c, []*query.Answer{p0, p1}, total)
	if contrib[0] != 1 {
		t.Fatalf("partition 0 contribution %v, want 1 (owns all of group a)", contrib[0])
	}
	if contrib[1] != 0.5 {
		t.Fatalf("partition 1 contribution %v, want 0.5 (max ratio over groups)", contrib[1])
	}
}

func buildTinyTable(t *testing.T) *table.Table {
	t.Helper()
	schema := table.MustSchema(table.Column{Name: "v", Kind: table.Numeric})
	b, err := table.NewBuilder(schema, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := b.Append([]float64{float64(i)}, []string{""}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

func TestStageThresholdMonotone(t *testing.T) {
	contrib := []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 0.9, 1.0}
	k := 4
	prev := -1.0
	for stage := 0; stage < k; stage++ {
		th := stageThreshold(contrib, stage, k, 0.1)
		if th < prev {
			t.Fatalf("stage %d threshold %v below stage %d's %v", stage, th, stage-1, prev)
		}
		prev = th
	}
	// Stage 0 separates zero from nonzero.
	if th := stageThreshold(contrib, 0, k, 0.1); th != 0 {
		t.Fatalf("stage 0 threshold %v, want 0", th)
	}
}

func TestStageLabelsBalanceQueries(t *testing.T) {
	// Algorithm 4: positive labels scale with 1/sqrt(positives) so each
	// query carries equal total weight.
	contrib := []float64{0, 0, 0, 0.5, 0.9}
	labels := stageLabels(contrib, 0, 4, 0.1)
	if len(labels) != 5 {
		t.Fatalf("got %d labels", len(labels))
	}
	wantPos := math.Sqrt(1.0 / 2)
	wantNeg := -math.Sqrt(1.0 / 3)
	for i, c := range contrib {
		if c > 0 && math.Abs(labels[i]-wantPos) > 1e-12 {
			t.Fatalf("positive label %v, want %v", labels[i], wantPos)
		}
		if c == 0 && math.Abs(labels[i]-wantNeg) > 1e-12 {
			t.Fatalf("negative label %v, want %v", labels[i], wantNeg)
		}
	}
}

func TestAllocateSamplesRespectsBudgetAndDecay(t *testing.T) {
	groups := [][]int{
		make([]int, 40), // least important
		make([]int, 30),
		make([]int, 20), // most important
	}
	budget := 30
	alloc := allocateSamples(groups, budget, 2)
	total := 0
	for i, a := range alloc {
		if a < 0 || a > len(groups[i]) {
			t.Fatalf("alloc[%d] = %d out of range", i, a)
		}
		total += a
	}
	if total != budget {
		t.Fatalf("allocated %d, want %d", total, budget)
	}
	// Sampling *rate* must not decrease with importance.
	prevRate := -1.0
	for i, a := range alloc {
		rate := float64(a) / float64(len(groups[i]))
		if rate+1e-9 < prevRate {
			t.Fatalf("rate decreased with importance: %v after %v", rate, prevRate)
		}
		prevRate = rate
	}
}

func TestAllocateSamplesBudgetExceedsPopulation(t *testing.T) {
	groups := [][]int{make([]int, 3), make([]int, 2)}
	alloc := allocateSamples(groups, 10, 2)
	if alloc[0] != 3 || alloc[1] != 2 {
		t.Fatalf("alloc = %v, want full groups", alloc)
	}
}

func TestAllocateSamplesAlphaOneIsProportional(t *testing.T) {
	groups := [][]int{make([]int, 60), make([]int, 40)}
	alloc := allocateSamples(groups, 50, 1)
	// α=1 → uniform rate ⇒ 30/20 split.
	if alloc[0] != 30 || alloc[1] != 20 {
		t.Fatalf("alloc = %v, want [30 20]", alloc)
	}
}

func TestAllocateSamplesProperty(t *testing.T) {
	f := func(seed int64, gRaw, bRaw uint8, alphaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(gRaw%4) + 1
		groups := make([][]int, k)
		pop := 0
		for i := range groups {
			n := rng.Intn(30) + 1
			groups[i] = make([]int, n)
			pop += n
		}
		budget := int(bRaw) % (pop + 5)
		alpha := 1 + float64(alphaRaw%40)/10
		alloc := allocateSamples(groups, budget, alpha)
		total := 0
		for i, a := range alloc {
			if a < 0 || a > len(groups[i]) {
				return false
			}
			total += a
		}
		want := budget
		if want > pop {
			want = pop
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sel := Uniform(50, 10, rng)
	if len(sel) != 10 {
		t.Fatalf("selected %d, want 10", len(sel))
	}
	seen := map[int]bool{}
	for _, wp := range sel {
		if wp.Weight != 5 {
			t.Fatalf("uniform weight %v, want 50/10=5", wp.Weight)
		}
		if seen[wp.Part] {
			t.Fatalf("duplicate partition %d", wp.Part)
		}
		seen[wp.Part] = true
	}
}

func TestUniformIsUnbiasedForCounts(t *testing.T) {
	// Over many runs, the weighted partition count should match the total.
	var sum float64
	runs := 500
	for r := 0; r < runs; r++ {
		sel := Uniform(40, 8, rand.New(rand.NewSource(int64(r))))
		for _, wp := range sel {
			_ = wp.Part
			sum += wp.Weight // Σ weights estimates N
		}
	}
	avg := sum / float64(runs)
	if math.Abs(avg-40) > 1e-9 {
		t.Fatalf("E[Σ weights] = %v, want exactly 40 (uniform w/o replacement)", avg)
	}
}

func TestFunnelOrdersByContribution(t *testing.T) {
	// The most important funnel group should have higher average true
	// contribution than the least important group, on training queries.
	env := newTestEnv(t, 20, 25, Config{Seed: 7})
	better, worse, cnt := 0.0, 0.0, 0
	for _, ex := range env.exs {
		upSlot, _, _, _ := env.ts.Space.SelectivitySlots()
		var candidates []int
		for i := range ex.Features {
			if ex.Features[i][upSlot] > 0 {
				candidates = append(candidates, i)
			}
		}
		groups := env.p.refImportanceGroups(ex.Features, candidates)
		if len(groups) < 2 {
			continue
		}
		lo, hi := groups[0], groups[len(groups)-1]
		var loAvg, hiAvg float64
		for _, i := range lo {
			loAvg += ex.Contrib[i]
		}
		for _, i := range hi {
			hiAvg += ex.Contrib[i]
		}
		loAvg /= float64(len(lo))
		hiAvg /= float64(len(hi))
		worse += loAvg
		better += hiAvg
		cnt++
	}
	if cnt == 0 {
		t.Skip("no multi-group queries in sample")
	}
	if better <= worse {
		t.Fatalf("funnel's top group avg contribution %v not above bottom group %v", better/float64(cnt), worse/float64(cnt))
	}
}

func TestOutlierDetectionFindsRareBitmapGroup(t *testing.T) {
	env := newTestEnv(t, 20, 25, Config{Seed: 8})
	q := &query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Count}},
		GroupBy: []string{"g"},
	}
	outliers, rest := env.p.findOutliers(q, env.tbl.NumParts())
	if len(outliers)+len(rest) != env.tbl.NumParts() {
		t.Fatalf("outliers %d + rest %d != %d parts", len(outliers), len(rest), env.tbl.NumParts())
	}
	// The last partition holds the unique "rare" group → it should be an
	// outlier candidate.
	found := false
	for _, o := range outliers {
		if o == env.tbl.NumParts()-1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("rare-group partition not flagged as outlier; outliers = %v", outliers)
	}
}

func TestNoGroupByNoOutliers(t *testing.T) {
	env := newTestEnv(t, 10, 20, Config{Seed: 9})
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}}
	outliers, rest := env.p.findOutliers(q, 10)
	if len(outliers) != 0 || len(rest) != 10 {
		t.Fatalf("no-group-by query produced %d outliers", len(outliers))
	}
}

func TestLesionVariantsStillPick(t *testing.T) {
	env := newTestEnv(t, 15, 20, Config{Seed: 10})
	ex := env.exs[0]
	for _, mutate := range []func(*Config){
		func(c *Config) { c.DisableCluster = true },
		func(c *Config) { c.DisableOutlier = true },
		func(c *Config) { c.DisableRegressor = true },
		func(c *Config) { c.UnbiasedExemplar = true },
	} {
		p := *env.p
		cfg := p.Cfg
		mutate(&cfg)
		p.Cfg = cfg
		sel := p.PickBatch(ex.Query, 5, rand.New(rand.NewSource(1)), exec.Options{Parallelism: 1})
		if len(sel) == 0 || len(sel) > 5 {
			t.Fatalf("lesion variant selected %d partitions for budget 5", len(sel))
		}
	}
}

func TestOraclePickBeatsRandomOnAverage(t *testing.T) {
	// The oracle funnel (true contributions) with α-decayed allocation should
	// beat uniform random sampling on average across queries; individual
	// queries are noisy since both select randomly within groups.
	env := newTestEnv(t, 20, 25, Config{Seed: 12})
	n := 5
	var oracleErr, randErr float64
	runs := 10
	for _, ex := range env.exs {
		if len(ex.TruthVals) == 0 {
			continue
		}
		for r := 0; r < runs; r++ {
			rng := rand.New(rand.NewSource(int64(r)))
			oSel := env.p.PickWithOracle(ex.Query, ex.Features, ex.Contrib, n, rng)
			oracleErr += metrics.Compare(ex.TruthVals, EstimateFromPerPart(ex.Compiled, ex.PerPart, oSel)).AvgRelErr
			rSel := Uniform(20, n, rand.New(rand.NewSource(int64(r)+500)))
			randErr += metrics.Compare(ex.TruthVals, EstimateFromPerPart(ex.Compiled, ex.PerPart, rSel)).AvgRelErr
		}
	}
	if oracleErr >= randErr {
		t.Fatalf("oracle picking (total err %v) did not beat uniform (total err %v) on average", oracleErr, randErr)
	}
}

func TestLSSTrainAndPick(t *testing.T) {
	env := newTestEnv(t, 15, 20, Config{Seed: 13})
	budgets := []float64{0.2, 0.4}
	l, err := TrainLSS(env.ts, env.exs, budgets, 3)
	if err != nil {
		t.Fatal(err)
	}
	ex := env.exs[0]
	for _, b := range budgets {
		want := int(b*15 + 0.5)
		sel := l.PickN(ex.Features, want, rand.New(rand.NewSource(2)))
		if len(sel) == 0 || len(sel) > want+1 {
			t.Fatalf("LSS budget %v selected %d, want ≈%d", b, len(sel), want)
		}
	}
	// PickN at arbitrary budget not in the sweep uses nearest strata size.
	sel := l.PickN(ex.Features, 7, rand.New(rand.NewSource(3)))
	if len(sel) == 0 || len(sel) > 7 {
		t.Fatalf("LSS PickN(7) selected %d", len(sel))
	}
}

func TestEstimateFromPerPartMatchesDirectEval(t *testing.T) {
	env := newTestEnv(t, 10, 20, Config{Seed: 14})
	ex := env.exs[0]
	sel := []query.WeightedPartition{{Part: 2, Weight: 3}, {Part: 7, Weight: 1.5}}
	got := EstimateFromPerPart(ex.Compiled, ex.PerPart, sel)
	direct, err := ex.Compiled.EstimateCtx(context.Background(), env.tbl, sel)
	if err != nil {
		t.Fatal(err)
	}
	want := ex.Compiled.FinalValues(direct)
	if len(got) != len(want) {
		t.Fatalf("group counts differ: %d vs %d", len(got), len(want))
	}
	for g, wv := range want {
		gv, ok := got[g]
		if !ok {
			t.Fatalf("missing group %q", g)
		}
		for j := range wv {
			if math.Abs(gv[j]-wv[j]) > 1e-9 {
				t.Fatalf("group %q agg %d: %v vs %v", g, j, gv[j], wv[j])
			}
		}
	}
}

func TestPickerErrorDecreasesWithBudget(t *testing.T) {
	env := newTestEnv(t, 20, 25, Config{Seed: 15})
	budgets := []int{2, 6, 12, 18}
	var prev float64 = math.Inf(1)
	violations := 0
	for _, n := range budgets {
		var errSum float64
		cnt := 0
		for _, ex := range env.exs {
			if len(ex.TruthVals) == 0 {
				continue
			}
			sel := env.p.PickBatch(ex.Query, n, rand.New(rand.NewSource(int64(n))), exec.Options{Parallelism: 1})
			est := EstimateFromPerPart(ex.Compiled, ex.PerPart, sel)
			errSum += metrics.Compare(ex.TruthVals, est).AvgRelErr
			cnt++
		}
		cur := errSum / float64(cnt)
		if cur > prev*1.1 { // allow small noise
			violations++
		}
		prev = cur
	}
	if violations > 1 {
		t.Fatalf("error not trending down with budget (%d violations)", violations)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.K != 4 || c.Alpha != 2 || c.OutlierBudgetFrac != 0.10 {
		t.Fatalf("defaults = K%d α%v outlier %v, want paper values 4/2/0.10", c.K, c.Alpha, c.OutlierBudgetFrac)
	}
	if c.MaxPredClauses != 10 {
		t.Fatalf("MaxPredClauses default %d, want 10", c.MaxPredClauses)
	}
}

func TestComplexPredicateFallsBackToRandom(t *testing.T) {
	// Build a predicate with > MaxPredClauses clauses; picker must still
	// produce a valid selection (via the random fallback of Appendix B.1).
	env := newTestEnv(t, 15, 20, Config{Seed: 16, MaxPredClauses: 2})
	clauses := []query.Pred{
		&query.Clause{Col: "v", Op: query.OpGt, Num: 1},
		&query.Clause{Col: "v", Op: query.OpLt, Num: 100},
		&query.Clause{Col: "w", Op: query.OpGt, Num: -10},
	}
	q := &query.Query{
		Aggs: []query.Aggregate{{Kind: query.Count}},
		Pred: query.NewAnd(clauses...),
	}
	sel := env.p.PickBatch(q, 5, rand.New(rand.NewSource(1)), exec.Options{Parallelism: 1})
	if len(sel) == 0 || len(sel) > 5 {
		t.Fatalf("complex-predicate fallback selected %d", len(sel))
	}
}

// TestSelectFeaturesMatchesReference: training's feature selection clusters
// through the pick's own preparation (clusterSelectFast, strict k-means) and
// must find exactly the exclusion set of the full-row reference preparation
// under every clustering variant, on a small and a larger fixture. The
// variants run in parallel: HAC over the larger fixture dominates.
func TestSelectFeaturesMatchesReference(t *testing.T) {
	variants := []Config{
		{Algo: AlgoKMeans},
		{Algo: AlgoHACWard},
		{Algo: AlgoHACSingle},
		{UnbiasedExemplar: true},
	}
	var nonEmpty atomic.Int32
	t.Run("variants", func(t *testing.T) {
		for _, parts := range []int{10, 40} {
			for _, cfg := range variants {
				cfg.Seed = 13
				cfg.FeatureSelection = true
				cfg.FeatureSelRestarts = 2
				t.Run(fmt.Sprintf("%dparts/%v/unbiased=%v", parts, cfg.Algo, cfg.UnbiasedExemplar), func(t *testing.T) {
					t.Parallel()
					env := newTestEnv(t, parts, 20, cfg)
					want := env.p.refSelectFeatures(env.exs)
					if !reflect.DeepEqual(env.p.Excluded, want) {
						t.Fatalf("%+v: Excluded = %v, reference %v", cfg, env.p.Excluded, want)
					}
					if len(want) > 0 {
						nonEmpty.Add(1)
					}
				})
			}
		}
	})
	if !t.Failed() && nonEmpty.Load() == 0 {
		t.Fatal("every variant excluded nothing; the comparison exercises no exclusion mask")
	}
}

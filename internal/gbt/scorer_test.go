package gbt

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// foldFixture is a random ensemble over a funnel-shaped feature space — a
// few free slots, then column groups of several slots each — with a base
// matrix salted with the values that break careless folds.
type foldFixture struct {
	m      *Model
	lay    FoldLayout
	base   []float64 // rows × dim, free slots zero
	free   [][]float64
	rows   int
	dim    int
	nFree  int
	silent int // a group no tree splits on
}

// randomEnsemble builds trees of random topology (single-leaf trees
// included) through FromSnapshot. Thresholds come from a small pool that the
// base matrix also draws from, so values tie exactly on thresholds; ±Inf
// thresholds are in the pool. Features in skip are never split on.
func randomEnsemble(t testing.TB, rng *rand.Rand, dim, trees, maxDepth int, pool []float64, skip func(int) bool) *Model {
	t.Helper()
	snap := ModelSnapshot{Params: Params{LearningRate: 0.1}, Base: rng.NormFloat64(), Dim: dim}
	for ti := 0; ti < trees; ti++ {
		var nodes []NodeSnapshot
		var grow func(depth int) int
		grow = func(depth int) int {
			i := len(nodes)
			nodes = append(nodes, NodeSnapshot{Feature: -1, Value: rng.NormFloat64()})
			if depth >= maxDepth || rng.Intn(4) == 0 {
				return i
			}
			f := rng.Intn(dim)
			for skip(f) {
				f = rng.Intn(dim)
			}
			nodes[i].Feature = f
			nodes[i].Thresh = pool[rng.Intn(len(pool))]
			nodes[i].Left = grow(depth + 1)
			nodes[i].Right = grow(depth + 1)
			return i
		}
		grow(0)
		snap.Trees = append(snap.Trees, TreeSnapshot{Nodes: nodes})
	}
	m, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newFoldFixture(t testing.TB, seed int64, rows, trees int, freeLo, freeHi float64) *foldFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nFree, groups, perGroup = 4, 6, 5
	fx := &foldFixture{rows: rows, nFree: nFree, dim: nFree + groups*perGroup, silent: 2}
	fx.lay = FoldLayout{Group: make([]int32, fx.dim), Groups: groups, FreeLo: freeLo, FreeHi: freeHi}
	for j := range fx.lay.Group {
		fx.lay.Group[j] = int32((j - nFree) / perGroup)
		if j < nFree {
			fx.lay.Group[j] = -1
		}
	}
	pool := []float64{-2.5, -1, 0, 0.25, 0.5, 1, 3, 40, math.Inf(1), math.Inf(-1)}
	fx.m = randomEnsemble(t, rng, fx.dim, trees, 4, pool, func(f int) bool { return int(fx.lay.Group[f]) == fx.silent })
	salt := append([]float64{math.NaN()}, pool...)
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return salt[rng.Intn(len(salt))]
		}
		return rng.NormFloat64() * 3
	}
	fx.base = make([]float64, rows*fx.dim)
	constCol := nFree + perGroup // first slot of group 1: constant down the matrix
	for i := 0; i < rows; i++ {
		for j := nFree; j < fx.dim; j++ {
			fx.base[i*fx.dim+j] = draw()
		}
		fx.base[i*fx.dim+constCol] = 0.5
	}
	fx.free = make([][]float64, rows)
	for i := range fx.free {
		row := make([]float64, nFree)
		for k := range row {
			if math.IsInf(freeLo, -1) {
				// Anything ordered, ±Inf included; NaN lies in no interval.
				for row[k] = draw(); math.IsNaN(row[k]); row[k] = draw() {
				}
			} else {
				// Inside [0, 1], endpoints and exact threshold ties included.
				row[k] = []float64{0, 0.25, 0.5, 1, rng.Float64()}[rng.Intn(5)]
			}
		}
		fx.free[i] = row
	}
	return fx
}

// fullRows materializes the rows a binding stands for: free values, base
// values of named groups, zeros elsewhere.
func (fx *foldFixture) fullRows(named []bool) [][]float64 {
	out := make([][]float64, fx.rows)
	for i := range out {
		row := make([]float64, fx.dim)
		copy(row, fx.free[i])
		for j := fx.nFree; j < fx.dim; j++ {
			if named[fx.lay.Group[j]] {
				row[j] = fx.base[i*fx.dim+j]
			}
		}
		out[i] = row
	}
	return out
}

// namedShapes lists the subset shapes of named groups: none, each one alone
// (the silent group among them), all, and a few random mixes.
func (fx *foldFixture) namedShapes(rng *rand.Rand) [][]bool {
	g := fx.lay.Groups
	shapes := [][]bool{make([]bool, g)}
	all := make([]bool, g)
	for i := 0; i < g; i++ {
		one := make([]bool, g)
		one[i], all[i] = true, true
		shapes = append(shapes, one)
	}
	shapes = append(shapes, all)
	for k := 0; k < 4; k++ {
		mix := make([]bool, g)
		for i := range mix {
			mix[i] = rng.Intn(2) == 0
		}
		shapes = append(shapes, mix)
	}
	return shapes
}

func (fx *foldFixture) check(t *testing.T, ft *FoldTable, s *BatchScorer, named []bool, idx []int) {
	t.Helper()
	full := fx.fullRows(named)
	want := make([]float64, fx.rows)
	fx.m.PredictBatch(want, full)
	got := make([]float64, len(idx))
	s.Bind(ft, named)
	s.Predict(got, idx, fx.free)
	for k, i := range idx {
		ref := fx.m.PredictReference(full[i])
		if math.Float64bits(got[k]) != math.Float64bits(want[i]) || math.Float64bits(got[k]) != math.Float64bits(ref) {
			t.Fatalf("named %v row %d: folded %v, PredictBatch %v, PredictReference %v", named, i, got[k], want[i], ref)
		}
	}
}

// TestBatchScorerMatchesPredictBatch is the fold tables' bit-identity
// contract: for random ensembles (single-leaf trees, ±Inf thresholds, a
// group no tree splits on) over base matrices holding NaN, ±Inf, exact
// threshold ties and a constant column, a scorer bound with any subset of
// named groups reproduces Model.PredictBatch and PredictReference over the
// materialized rows, bit for bit — over all rows, a scattered subset, and
// none.
func TestBatchScorerMatchesPredictBatch(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		fx := newFoldFixture(t, seed, 60, 12+int(seed)*5, 0, 1)
		ft := fx.m.NewFoldTable(fx.base, fx.dim, fx.rows, fx.lay)
		if ft == nil {
			t.Fatal("no fold table for a model inside the batch-table bounds")
		}
		if ft.col[fx.silent] >= 0 {
			t.Fatalf("group %d has no condition but got table column %d", fx.silent, ft.col[fx.silent])
		}
		if want := int64(fx.rows * ft.cols * fx.m.NumTrees() * 2); ft.Bytes() != want {
			t.Fatalf("Bytes() = %d, want rows × columns × trees × 2 = %d", ft.Bytes(), want)
		}
		rng := rand.New(rand.NewSource(seed + 100))
		all := make([]int, fx.rows)
		for i := range all {
			all[i] = i
		}
		var s BatchScorer // one scorer rebound across shapes: buffers are reused
		for _, named := range fx.namedShapes(rng) {
			fx.check(t, ft, &s, named, all)
			fx.check(t, ft, &s, named, []int{57, 3, 3, 20})
			fx.check(t, ft, &s, named, nil)
		}
	}
}

// TestBatchScorerZeroRows: a table over an empty matrix builds, binds and
// predicts nothing.
func TestBatchScorerZeroRows(t *testing.T) {
	fx := newFoldFixture(t, 9, 0, 10, 0, 1)
	ft := fx.m.NewFoldTable(nil, fx.dim, 0, fx.lay)
	if ft == nil || ft.Bytes() != 0 {
		t.Fatalf("empty matrix: table %v", ft)
	}
	var s BatchScorer
	s.Bind(ft, make([]bool, fx.lay.Groups))
	s.Predict(nil, nil, nil)
}

// TestBatchScorerInfiniteRanges: ∓Inf free-slot bounds decide nothing but
// conditions on ±Inf thresholds themselves, and free values of any ordered
// kind (±Inf included) score as the unspecialized sweep scores them.
func TestBatchScorerInfiniteRanges(t *testing.T) {
	fx := newFoldFixture(t, 33, 80, 30, math.Inf(-1), math.Inf(1))
	ft := fx.m.NewFoldTable(fx.base, fx.dim, fx.rows, fx.lay)
	all := make([]int, fx.rows)
	for i := range all {
		all[i] = i
	}
	var s BatchScorer
	for _, named := range fx.namedShapes(rand.New(rand.NewSource(34))) {
		fx.check(t, ft, &s, named, all)
	}
}

// TestBatchScorerFallback: a model outside the fold table's reach — a tree
// of more than 16 leaves (inside or outside the 64 the batch tables take), or
// more than 128 trees — has no fold table; callers walk full rows instead
// (picker.walkFullRows).
func TestBatchScorerFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 3000
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ys[i] = xs[i][0]*xs[i][1] + math.Sin(xs[i][2]*3)
	}
	lay := FoldLayout{Group: []int32{-1, 0, 0}, Groups: 1, FreeLo: math.Inf(-1), FreeHi: math.Inf(1)}
	base := make([]float64, 3*4)
	for _, tc := range []struct {
		depth    int
		wantQSOK bool
	}{{5, true}, {8, false}} {
		m, err := Train(xs, ys, Params{Trees: 6, MaxDepth: tc.depth, MinLeaf: 1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if leaves := m.flat.NumLeaves(); leaves <= 6*foldMaxLeaves || m.flat.qsOK != tc.wantQSOK {
			t.Fatalf("depth %d: %d leaves over 6 trees, batch tables %v; the fixture no longer exercises the bound", tc.depth, leaves, m.flat.qsOK)
		}
		if ft := m.NewFoldTable(base, 3, 4, lay); ft != nil {
			t.Fatalf("fold table built for depth-%d trees of more than %d leaves", tc.depth, foldMaxLeaves)
		}
	}
	many := randomEnsemble(t, rng, 3, qsMaxTrees+1, 2, []float64{0, 1}, func(int) bool { return false })
	if ft := many.NewFoldTable(base, 3, 4, lay); ft != nil {
		t.Fatalf("fold table built for a model of %d trees", many.NumTrees())
	}
}

// TestBatchScorerZeroAllocsAfterBind: once a scorer has been bound, further
// Bind and Predict calls allocate nothing.
func TestBatchScorerZeroAllocsAfterBind(t *testing.T) {
	fx := newFoldFixture(t, 35, 256, 40, 0, 1)
	ft := fx.m.NewFoldTable(fx.base, fx.dim, fx.rows, fx.lay)
	named := []bool{true, false, true, true, false, true}
	idx := make([]int, fx.rows)
	for i := range idx {
		idx[i] = i
	}
	dst := make([]float64, fx.rows)
	var s BatchScorer
	s.Bind(ft, named)
	if allocs := testing.AllocsPerRun(20, func() {
		s.Bind(ft, named)
		s.Predict(dst, idx, fx.free)
	}); allocs != 0 {
		t.Fatalf("BatchScorer Bind+Predict allocates %.0f objects per run, want 0", allocs)
	}
}

// BenchmarkFunnelStage measures one funnel stage at the serving benchmark's
// aria-many shape: 400 partitions × 245 feature slots (4 selectivity slots,
// 11 columns × 17 statistics, 54 bitmap bits), a 40-tree depth-4 model, a
// query naming three columns. `tables` is the once-per-binding fold;
// `folded` the per-query Bind + Predict; `paired` interleaves `folded` with
// Model.PredictBatch over the materialized full rows — the surviving
// unspecialized sweep, here not even charged for filling its rows — and
// reports the per-op ratio.
func BenchmarkFunnelStage(b *testing.B) {
	const rows, nFree, cols, perCol, bitmapCols, bitsPerCol = 400, 4, 11, 17, 2, 27
	dim := nFree + cols*perCol + bitmapCols*bitsPerCol
	rng := rand.New(rand.NewSource(41))
	lay := FoldLayout{Group: make([]int32, dim), Groups: cols, FreeLo: 0, FreeHi: 1}
	for j := range lay.Group {
		switch {
		case j < nFree:
			lay.Group[j] = -1
		case j < nFree+cols*perCol:
			lay.Group[j] = int32((j - nFree) / perCol)
		default:
			lay.Group[j] = int32((j - nFree - cols*perCol) / bitsPerCol)
		}
	}
	// Train on the materialized rows of random queries so splits land on
	// selectivity, statistic and bitmap slots alike.
	base := make([]float64, rows*dim)
	free := make([][]float64, rows)
	xs := make([][]float64, rows)
	ys := make([]float64, rows)
	for i := 0; i < rows; i++ {
		free[i] = make([]float64, nFree)
		row := base[i*dim : (i+1)*dim]
		for j := nFree; j < dim; j++ {
			row[j] = rng.NormFloat64() * float64(1+j%7)
			if j >= nFree+cols*perCol {
				row[j] = float64(rng.Intn(2))
			}
		}
		for k := range free[i] {
			free[i][k] = rng.Float64()
		}
		x := append([]float64(nil), row...)
		copy(x, free[i])
		for j := nFree; j < dim; j++ {
			if (int(lay.Group[j])+i)%3 != 0 {
				x[j] = 0
			}
			ys[i] += x[j] * float64(j%5-2)
		}
		xs[i] = x
		ys[i] += 20 * x[0] * x[1]
	}
	m, err := Train(xs, ys, Params{Trees: 40, MaxDepth: 4, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	named := make([]bool, cols)
	named[1], named[4], named[9] = true, true, true
	full := make([][]float64, rows)
	idx := make([]int, rows)
	for i := range full {
		idx[i] = i
		row := make([]float64, dim)
		copy(row, free[i])
		for j := nFree; j < dim; j++ {
			if named[lay.Group[j]] {
				row[j] = base[i*dim+j]
			}
		}
		full[i] = row
	}
	ft := m.NewFoldTable(base, dim, rows, lay)
	dst := make([]float64, rows)
	var s BatchScorer
	folded := func() {
		s.Bind(ft, named)
		s.Predict(dst, idx, free)
	}

	b.Run("tables", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ft = m.NewFoldTable(base, dim, rows, lay)
		}
		b.ReportMetric(float64(ft.Bytes()), "table-bytes")
	})
	b.Run("folded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			folded()
		}
	})
	b.Run("paired", func(b *testing.B) {
		b.ReportAllocs()
		var sweepNs, foldedNs int64
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			m.PredictBatch(dst, full)
			t1 := time.Now()
			folded()
			sweepNs += int64(t1.Sub(t0))
			foldedNs += int64(time.Since(t1))
		}
		if foldedNs > 0 {
			b.ReportMetric(float64(sweepNs)/float64(foldedNs), "speedup")
		}
	})
}

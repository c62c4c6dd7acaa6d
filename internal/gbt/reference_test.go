package gbt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// trainReference is the frozen row-major trainer Train is checked against bit
// for bit: bin codes stored row by row, a per-row Hessian array summed into
// its own histogram, and children split on the raw feature value. Train
// replaced each of these with an exact equivalent; this copy is what
// "exact" is measured against.
func trainReference(xs [][]float64, ys []float64, params Params) (*Model, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("gbt: need equal, non-zero xs (%d) and ys (%d)", len(xs), len(ys))
	}
	p := params.withDefaults()
	dim := len(xs[0])
	for i, row := range xs {
		if len(row) != dim {
			return nil, fmt.Errorf("gbt: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	rng := rand.New(rand.NewSource(p.Seed))

	var base float64
	for _, y := range ys {
		base += y
	}
	base /= float64(len(ys))

	m := &Model{params: p, base: base, importance: make([]float64, dim), dim: dim}
	pred := make([]float64, len(ys))
	for i := range pred {
		pred[i] = base
	}
	grad := make([]float64, len(ys))
	hess := make([]float64, len(ys))

	allCuts := make([][]float64, dim)
	for f := 0; f < dim; f++ {
		allCuts[f] = binCuts(xs, f, p.MaxBins)
	}
	codes := refBinMatrix(xs, allCuts)

	allIdx := make([]int, len(ys))
	for i := range allIdx {
		allIdx[i] = i
	}
	ctx := &refSplitCtx{
		xs: xs, codes: codes, cuts: allCuts,
		grad: grad, hess: hess,
		lambda: p.Lambda, minLeaf: p.MinLeaf, gamma: p.Gamma,
		importance: m.importance,
		gBin:       make([]float64, p.MaxBins+1),
		hBin:       make([]float64, p.MaxBins+1),
		nBin:       make([]int, p.MaxBins+1),
		active:     make([]bool, dim),
	}

	for round := 0; round < p.Trees; round++ {
		for i := range ys {
			grad[i] = pred[i] - ys[i]
			hess[i] = 1
		}
		idx := allIdx
		if p.Subsample < 1 {
			idx = sampleIdx(allIdx, p.Subsample, rng)
		}
		anyActive := false
		for f := 0; f < dim; f++ {
			ctx.active[f] = p.ColSample >= 1 || rng.Float64() < p.ColSample
			anyActive = anyActive || ctx.active[f]
		}
		if !anyActive {
			ctx.active[rng.Intn(dim)] = true
		}
		t := ctx.grow(idx, p.MaxDepth)
		m.trees = append(m.trees, t)
		for i := range pred {
			pred[i] += p.LearningRate * t.predict(xs[i])
		}
	}
	m.compile()
	return m, nil
}

// refBinMatrix bins row by row: codes[i][f].
func refBinMatrix(xs [][]float64, cuts [][]float64) [][]uint8 {
	codes := make([][]uint8, len(xs))
	for i := range xs {
		row := make([]uint8, len(cuts))
		for f := range cuts {
			row[f] = uint8(sort.SearchFloat64s(cuts[f], xs[i][f]))
		}
		codes[i] = row
	}
	return codes
}

type refSplitCtx struct {
	xs         [][]float64
	codes      [][]uint8
	cuts       [][]float64
	active     []bool
	grad       []float64
	hess       []float64
	lambda     float64
	minLeaf    int
	gamma      float64
	importance []float64
	gBin, hBin []float64
	nBin       []int
}

func (c *refSplitCtx) leafValue(idx []int) float64 {
	var g, h float64
	for _, i := range idx {
		g += c.grad[i]
		h += c.hess[i]
	}
	return -g / (h + c.lambda)
}

func (c *refSplitCtx) bestSplit(idx []int) (feat int, thresh float64, gain float64, ok bool) {
	var gTot, hTot float64
	for _, i := range idx {
		gTot += c.grad[i]
		hTot += c.hess[i]
	}
	bestGain := c.gamma
	for f := range c.cuts {
		if !c.active[f] {
			continue
		}
		cuts := c.cuts[f]
		nb := len(cuts) + 1
		if nb < 2 {
			continue
		}
		gBin := c.gBin[:nb]
		hBin := c.hBin[:nb]
		nBin := c.nBin[:nb]
		for b := 0; b < nb; b++ {
			gBin[b], hBin[b], nBin[b] = 0, 0, 0
		}
		for _, i := range idx {
			b := c.codes[i][f]
			gBin[b] += c.grad[i]
			hBin[b] += c.hess[i]
			nBin[b]++
		}
		var gl, hl float64
		nl := 0
		for b := 0; b < len(cuts); b++ {
			gl += gBin[b]
			hl += hBin[b]
			nl += nBin[b]
			nr := len(idx) - nl
			if nl < c.minLeaf || nr < c.minLeaf {
				continue
			}
			g := scoreGain(gl, hl, gTot-gl, hTot-hl, c.lambda)
			if g > bestGain {
				bestGain, feat, thresh, ok = g, f, cuts[b], true
			}
		}
	}
	return feat, thresh, bestGain, ok
}

func (c *refSplitCtx) grow(idx []int, maxDepth int) *tree {
	t := &tree{}
	var build func(idx []int, depth int) int
	build = func(idx []int, depth int) int {
		id := len(t.nodes)
		t.nodes = append(t.nodes, node{feature: -1})
		if depth >= maxDepth || len(idx) < 2*c.minLeaf {
			t.nodes[id].value = c.leafValue(idx)
			return id
		}
		f, th, gain, ok := c.bestSplit(idx)
		if !ok {
			t.nodes[id].value = c.leafValue(idx)
			return id
		}
		c.importance[f] += gain
		var left, right []int
		for _, i := range idx {
			if c.xs[i][f] <= th {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			t.nodes[id].value = c.leafValue(idx)
			return id
		}
		l := build(left, depth+1)
		r := build(right, depth+1)
		t.nodes[id] = node{feature: f, thresh: th, left: l, right: r}
		return id
	}
	build(idx, 0)
	return t
}

// sameModelBits reports where two snapshots differ, comparing every float by
// its bits (so −0 against +0 or two NaN payloads count as different).
func sameModelBits(a, b ModelSnapshot) error {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Params != b.Params || !eq(a.Base, b.Base) || a.Dim != b.Dim {
		return fmt.Errorf("header differs: %+v/%v/%d vs %+v/%v/%d", a.Params, a.Base, a.Dim, b.Params, b.Base, b.Dim)
	}
	if len(a.Importance) != len(b.Importance) {
		return fmt.Errorf("importance length %d vs %d", len(a.Importance), len(b.Importance))
	}
	for f := range a.Importance {
		if !eq(a.Importance[f], b.Importance[f]) {
			return fmt.Errorf("importance[%d] %v vs %v", f, a.Importance[f], b.Importance[f])
		}
	}
	if len(a.Trees) != len(b.Trees) {
		return fmt.Errorf("%d trees vs %d", len(a.Trees), len(b.Trees))
	}
	for ti := range a.Trees {
		na, nb := a.Trees[ti].Nodes, b.Trees[ti].Nodes
		if len(na) != len(nb) {
			return fmt.Errorf("tree %d: %d nodes vs %d", ti, len(na), len(nb))
		}
		for i := range na {
			x, y := na[i], nb[i]
			if x.Feature != y.Feature || x.Left != y.Left || x.Right != y.Right || !eq(x.Thresh, y.Thresh) || !eq(x.Value, y.Value) {
				return fmt.Errorf("tree %d node %d: %+v vs %+v", ti, i, x, y)
			}
		}
	}
	return nil
}

// randomTrainingSet draws n rows over dim features, each column of one kind:
// continuous, a few tied levels, constant, a duplicate of an earlier column,
// or tied levels salted with ±Inf, NaN and −0.
func randomTrainingSet(rng *rand.Rand, n, dim int) ([][]float64, []float64) {
	kinds := make([]int, dim)
	for f := range kinds {
		kinds[f] = rng.Intn(5)
	}
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		row := make([]float64, dim)
		for f := range row {
			switch kinds[f] {
			case 0:
				row[f] = rng.NormFloat64()
			case 1:
				row[f] = float64(rng.Intn(4))
			case 2:
				row[f] = 3.5
			case 3:
				// A copy of an earlier column; column 0 has none.
				row[f] = row[f/2]
				if f == 0 {
					row[f] = rng.Float64()
				}
			case 4:
				switch r := rng.Intn(10); {
				case r == 0:
					row[f] = math.Inf(1)
				case r == 1:
					row[f] = math.Inf(-1)
				case r == 2:
					row[f] = math.NaN()
				case r == 3:
					row[f] = math.Copysign(0, -1)
				default:
					row[f] = float64(r % 3)
				}
			}
		}
		xs[i] = row
		// Targets on a coarse grid tie many gains; a slope keeps some apart.
		ys[i] = float64(rng.Intn(3)) + 0.25*float64(i%7)
		if rng.Intn(2) == 0 {
			ys[i] = rng.NormFloat64()
		}
	}
	return xs, ys
}

// TestTrainMatchesReference: the feature-major, Hessian-free trainer builds
// the same ensemble as the frozen row-major one, float for float, over tied,
// constant, duplicated and infinite columns, row and column subsampling, and
// MinLeaf, MaxBins and depth at their edges.
func TestTrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		dim := 1 + rng.Intn(8)
		xs, ys := randomTrainingSet(rng, n, dim)
		p := Params{
			Trees:        1 + rng.Intn(12),
			MaxDepth:     1 + rng.Intn(6),
			LearningRate: []float64{0.1, 0.25, 1}[rng.Intn(3)],
			Lambda:       []float64{0, 0.5, 3}[rng.Intn(3)],
			MinLeaf:      []int{0, 1, 2, 5, n / 2, n/2 + 1, n}[rng.Intn(7)],
			MaxBins:      []int{0, 2, 3, 7, 32, 256}[rng.Intn(6)],
			Subsample:    []float64{1, 0.9, 0.5, 0.05}[rng.Intn(4)],
			ColSample:    []float64{1, 0.9, 0.5, 0.01}[rng.Intn(4)],
			Seed:         rng.Int63(),
		}
		got, err := Train(xs, ys, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trainReference(xs, ys, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameModelBits(got.Snapshot(), want.Snapshot()); err != nil {
			t.Fatalf("trial %d (n=%d dim=%d %+v): %v", trial, n, dim, p, err)
		}
	}
}

// PredictReference is the pointer-tree evaluator: it walks the
// training-time node structs tree by tree. It is the independent reference
// the flat engine and the fold tables are equivalence-tested against.
func (m *Model) PredictReference(x []float64) float64 {
	v := m.base
	for _, t := range m.trees {
		v += m.params.LearningRate * t.predict(x)
	}
	return v
}

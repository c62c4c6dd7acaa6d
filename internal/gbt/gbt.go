package gbt

import (
	"fmt"
	"math/rand"
)

// Params configures a boosted ensemble. Zero values take the defaults noted
// on each field.
type Params struct {
	// Trees is the number of boosting rounds (default 50).
	Trees int
	// MaxDepth per tree (default 4).
	MaxDepth int
	// LearningRate (shrinkage, default 0.2).
	LearningRate float64
	// Lambda is the L2 regularizer on leaf weights (default 1).
	Lambda float64
	// Gamma is the minimum split gain (default 1e-6).
	Gamma float64
	// MinLeaf is the minimum rows per leaf (default 5).
	MinLeaf int
	// MaxBins caps histogram bins per feature (default 32, at most 256).
	MaxBins int
	// Subsample is the row sampling rate per round (default 1.0).
	Subsample float64
	// ColSample is the feature sampling rate per round (default 1.0).
	ColSample float64
	// Seed drives row/column subsampling.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.Trees <= 0 {
		p.Trees = 50
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 4
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.2
	}
	if p.Lambda <= 0 {
		p.Lambda = 1
	}
	if p.Gamma <= 0 {
		p.Gamma = 1e-6
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 5
	}
	if p.MaxBins <= 0 {
		p.MaxBins = 32
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		p.Subsample = 1
	}
	if p.ColSample <= 0 || p.ColSample > 1 {
		p.ColSample = 1
	}
	return p
}

// Model is a trained gradient-boosted regression ensemble. The pointer trees
// are the training-time representation (and what the tests' reference
// evaluator walks); every
// trained or restored model also carries a compiled flat struct-of-arrays
// form (flat.go) that the prediction entry points run on.
type Model struct {
	params     Params
	base       float64
	trees      []*tree
	importance []float64
	dim        int
	flat       *Flat
}

// compile builds the flat inference form; called once at the end of Train
// and FromSnapshot, so every usable Model has a non-nil flat engine.
func (m *Model) compile() { m.flat = compileFlat(m.base, m.params.LearningRate, m.dim, m.trees) }

// Train fits a squared-loss gradient-boosted ensemble on xs (N×M) and
// targets ys (N).
func Train(xs [][]float64, ys []float64, params Params) (*Model, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("gbt: need equal, non-zero xs (%d) and ys (%d)", len(xs), len(ys))
	}
	p := params.withDefaults()
	if p.MaxBins > maxBins {
		return nil, fmt.Errorf("gbt: MaxBins %d exceeds %d (bin codes are one byte)", p.MaxBins, maxBins)
	}
	dim := len(xs[0])
	for i, row := range xs {
		if len(row) != dim {
			return nil, fmt.Errorf("gbt: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// Base score: mean target.
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

	// Precompute cut candidates and the binned matrix once.
	allCuts := make([][]float64, dim)
	for f := 0; f < dim; f++ {
		allCuts[f] = binCuts(xs, f, p.MaxBins)
	}

	allIdx := make([]int, len(ys))
	for i := range allIdx {
		allIdx[i] = i
	}
	ctx := &splitCtx{
		codes: binMatrix(xs, allCuts), cuts: allCuts, grad: grad,
		lambda: p.Lambda, minLeaf: p.MinLeaf, gamma: p.Gamma,
		importance: m.importance,
		nodeGrad:   make([]float64, len(ys)),
		right:      make([]int, 0, len(ys)),
	}
	active := make([]bool, dim)
	rows := make([]int, len(ys))

	for round := 0; round < p.Trees; round++ {
		// Squared loss: g = pred - y, h = 1.
		for i := range ys {
			grad[i] = pred[i] - ys[i]
		}
		idx := allIdx
		if p.Subsample < 1 {
			idx = sampleIdx(allIdx, p.Subsample, rng)
		}
		anyActive := false
		for f := 0; f < dim; f++ {
			active[f] = p.ColSample >= 1 || rng.Float64() < p.ColSample
			anyActive = anyActive || active[f]
		}
		if !anyActive {
			active[rng.Intn(dim)] = true
		}
		ctx.feats = ctx.feats[:0]
		for f, on := range active {
			if on && len(allCuts[f]) > 0 {
				ctx.feats = append(ctx.feats, f)
			}
		}
		// grow reorders the rows it is given; allIdx stays ascending.
		idx = rows[:copy(rows, idx)]
		t := ctx.grow(idx, p.MaxDepth)
		m.trees = append(m.trees, t)
		for i := range pred {
			pred[i] += p.LearningRate * t.predict(xs[i])
		}
	}
	m.compile()
	return m, nil
}

func sampleIdx(idx []int, rate float64, rng *rand.Rand) []int {
	out := make([]int, 0, int(rate*float64(len(idx)))+1)
	for _, i := range idx {
		if rng.Float64() < rate {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		out = append(out, idx[rng.Intn(len(idx))])
	}
	return out
}

// Predict returns the model output for one feature vector, evaluated on the
// compiled flat form. Bit-identical to the pointer-tree walk
// (PredictReference, in the package tests).
func (m *Model) Predict(x []float64) float64 { return m.flat.predictRow(x) }

// Importance returns per-feature total split gain ("gain" importance, the
// metric of Fig 5). The slice aliases internal state; callers must not
// mutate it.
func (m *Model) Importance() []float64 { return m.importance }

// Dim returns the feature dimension the model was trained on.
func (m *Model) Dim() int { return m.dim }

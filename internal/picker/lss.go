package picker

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ps3/internal/gbt"
	"ps3/internal/metrics"
	"ps3/internal/query"
	"ps3/internal/stats"
)

// LSS is the modified Learned Stratified Sampling baseline of Appendix C.1:
// a single offline regressor predicts partition contribution; at query time
// partitions passing the selectivity filter are stratified into equi-width
// strata over the prediction range, budget is allocated proportionally to
// stratum size, and samples are drawn uniformly within strata. The target
// stratum *size* per sampling budget is selected by exhaustively sweeping on
// the training set (Table 8).
type LSS struct {
	TS    *stats.TableStats
	Model *gbt.Model
	// StrataSize maps a budget fraction key (percent, rounded) to the
	// chosen stratum size; 0 falls back to DefaultStrataSize.
	StrataSize map[int]int
	// DefaultStrataSize is used for unswept budgets.
	DefaultStrataSize int
	Seed              int64
}

// TrainLSS fits the LSS regressor on partition contributions and sweeps
// stratum sizes per budget on the training examples.
func TrainLSS(ts *stats.TableStats, examples []Example, budgets []float64, seed int64) (*LSS, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("picker: no training examples for LSS")
	}
	var xs [][]float64
	var ys []float64
	for _, ex := range examples {
		xs = append(xs, ex.Features...)
		ys = append(ys, ex.Contrib...)
	}
	model, err := gbt.Train(xs, ys, gbt.Params{
		Trees: 40, MaxDepth: 4, LearningRate: 0.25,
		Subsample: 0.9, ColSample: 0.9, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("picker: training LSS regressor: %w", err)
	}
	l := &LSS{TS: ts, Model: model, StrataSize: map[int]int{}, DefaultStrataSize: 0, Seed: seed}

	n := len(examples[0].Features)
	candSizes := strataSizeCandidates(n)
	l.DefaultStrataSize = candSizes[len(candSizes)/2]
	probe := examples
	if len(probe) > 30 {
		probe = probe[:30]
	}
	rng := newRand(seed + 31)
	for _, b := range budgets {
		budget := int(math.Round(b * float64(n)))
		if budget < 1 {
			budget = 1
		}
		bestSize, bestErr := l.DefaultStrataSize, math.Inf(1)
		for _, size := range candSizes {
			var sum float64
			for _, ex := range probe {
				sel := l.pickWithStrataSize(ex.Features, budget, size, rng)
				est := EstimateFromPerPart(ex.Compiled, ex.PerPart, sel)
				sum += metrics.Compare(ex.TruthVals, est).AvgRelErr
			}
			if avg := sum / float64(len(probe)); avg < bestErr {
				bestErr, bestSize = avg, size
			}
		}
		l.StrataSize[budgetKey(b)] = bestSize
	}
	return l, nil
}

// strataSizeCandidates returns the stratum sizes to sweep, scaled to the
// partition count (the paper sweeps 10..820 for 1000 partitions).
func strataSizeCandidates(n int) []int {
	var out []int
	for _, frac := range []float64{0.01, 0.02, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5, 0.8} {
		s := int(math.Round(frac * float64(n)))
		if s < 1 {
			s = 1
		}
		if len(out) == 0 || s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

func budgetKey(b float64) int { return int(math.Round(b * 100)) }

// PickN selects a weighted sample with an absolute partition budget.
func (l *LSS) PickN(features [][]float64, budget int, rng *rand.Rand) []query.WeightedPartition {
	frac := float64(budget) / float64(len(features))
	size, ok := l.StrataSize[budgetKey(frac)]
	if !ok || size <= 0 {
		size = l.DefaultStrataSize
	}
	return l.pickWithStrataSize(features, budget, size, rng)
}

func (l *LSS) pickWithStrataSize(features [][]float64, budget, strataSize int, rng *rand.Rand) []query.WeightedPartition {
	upSlot, _, _, _ := l.TS.Space.SelectivitySlots()
	var candidates []int
	for i, f := range features {
		if f[upSlot] > 0 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	if budget >= len(candidates) {
		return whole(candidates)
	}

	// Rank candidates by predicted contribution, then cut the prediction
	// range into equi-width strata targeting ~strataSize partitions each.
	preds := make([]float64, len(candidates))
	for i, c := range candidates {
		preds[i] = l.Model.Predict(features[c])
	}
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return preds[order[a]] < preds[order[b]] })

	numStrata := (len(candidates) + strataSize - 1) / strataSize
	if numStrata < 1 {
		numStrata = 1
	}
	if numStrata > budget {
		numStrata = budget
	}
	lo, hi := preds[order[0]], preds[order[len(order)-1]]
	var strata [][]int
	if hi <= lo {
		strata = [][]int{candidates}
	} else {
		strata = make([][]int, numStrata)
		w := (hi - lo) / float64(numStrata)
		for i, c := range candidates {
			s := int((preds[i] - lo) / w)
			if s >= numStrata {
				s = numStrata - 1
			}
			strata[s] = append(strata[s], c)
		}
	}

	// Proportional allocation, ≥1 sample per non-empty stratum when budget
	// allows.
	var nonEmpty [][]int
	for _, s := range strata {
		if len(s) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	alloc := proportionalAlloc(nonEmpty, budget)
	var sel []query.WeightedPartition
	for si, s := range nonEmpty {
		ni := alloc[si]
		if ni <= 0 {
			continue
		}
		if ni >= len(s) {
			sel = append(sel, whole(s)...)
			continue
		}
		sel = append(sel, randomSelect(s, ni, rng)...)
	}
	return sel
}

// proportionalAlloc splits budget across strata proportionally to their
// sizes with largest-remainder rounding.
func proportionalAlloc(strata [][]int, budget int) []int {
	total := 0
	for _, s := range strata {
		total += len(s)
	}
	alloc := make([]int, len(strata))
	if total == 0 || budget <= 0 {
		return alloc
	}
	type frac struct {
		idx int
		f   float64
	}
	used := 0
	var fracs []frac
	for i, s := range strata {
		exact := float64(budget) * float64(len(s)) / float64(total)
		a := int(exact)
		if a > len(s) {
			a = len(s)
		}
		alloc[i] = a
		used += a
		fracs = append(fracs, frac{i, exact - float64(a)})
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for _, fr := range fracs {
		if used >= budget {
			break
		}
		if alloc[fr.idx] < len(strata[fr.idx]) {
			alloc[fr.idx]++
			used++
		}
	}
	for i := range strata {
		for used < budget && alloc[i] < len(strata[i]) {
			alloc[i]++
			used++
		}
	}
	return alloc
}

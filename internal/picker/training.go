package picker

import (
	"fmt"
	"math"
	"sort"

	"ps3/internal/cluster"
	"ps3/internal/exec"
	"ps3/internal/gbt"
	"ps3/internal/metrics"
	"ps3/internal/query"
	"ps3/internal/stats"
)

// Example is one training query with everything the trainer needs: the raw
// feature matrix, per-partition contributions (§4.3), and the per-partition
// answers so candidate selections can be scored without touching the table.
type Example struct {
	Query    *query.Query
	Compiled *query.Compiled
	Features [][]float64 // N×M raw features from stats.TableStats.Features
	// Contrib[i] = max over groups g and aggregates j of A_{g,i}[j]/A_g[j].
	Contrib []float64
	PerPart []*query.Answer
	// TruthVals are the final per-group aggregate values of the exact
	// answer.
	TruthVals map[string][]float64
}

// Contribution computes the paper's partition-contribution definition from
// per-partition and total answers: the largest relative contribution of the
// partition to any aggregate of any group.
func Contribution(c *query.Compiled, perPart []*query.Answer, total *query.Answer) []float64 {
	out := make([]float64, len(perPart))
	for i, pa := range perPart {
		var best float64
		//lint:mapiter-ok max over per-group ratios is order-free
		for g, vals := range pa.Groups {
			tot, ok := total.Groups[g]
			if !ok {
				continue
			}
			for j, v := range vals {
				if tot[j] == 0 {
					continue
				}
				r := math.Abs(v) / math.Abs(tot[j])
				if r > best {
					best = r
				}
			}
		}
		out[i] = best
	}
	return out
}

// EstimateFromPerPart combines cached per-partition answers under a weighted
// selection and returns final aggregate values; used to score candidate
// selections during training without re-reading data.
func EstimateFromPerPart(c *query.Compiled, perPart []*query.Answer, sel []query.WeightedPartition) map[string][]float64 {
	ans := c.NewAnswer()
	for _, wp := range sel {
		ans.AddWeighted(perPart[wp.Part], wp.Weight)
	}
	return c.FinalValues(ans)
}

// Picker is a trained PS3 partition picker for one table + workload.
type Picker struct {
	Cfg  Config
	TS   *stats.TableStats
	Regs []*gbt.Model
	// Thresholds[i] is the prediction cutoff of funnel stage i (0 in the
	// paper; kept explicit for testing).
	Thresholds []float64
	// Excluded is the feature-kind exclusion set found by feature
	// selection (empty when disabled).
	Excluded map[stats.Kind]bool
	// tables holds the funnel's per-binding fold tables; see funnelTables.
	tables *funnelTables
	// outliers remembers the outlier split per group-by list; see
	// outlierMemo.
	outliers *outlierMemo
}

// Train fits the funnel regressors (Algorithm 4 labels, exponentially
// spaced contribution bins) and optionally runs clustering feature
// selection, returning a ready Picker. The funnel stages train concurrently
// on eo's workers; the regressors are the same at every setting.
func Train(ts *stats.TableStats, examples []Example, cfg Config, eo exec.Options) (*Picker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("picker: %w", err)
	}
	if len(examples) == 0 {
		return nil, fmt.Errorf("picker: no training examples")
	}
	p := &Picker{Cfg: cfg, TS: ts, Excluded: map[stats.Kind]bool{}, tables: &funnelTables{}, outliers: &outlierMemo{}}

	// Fit feature normalization on the training features (Appendix B).
	var allRows [][]float64
	for _, ex := range examples {
		allRows = append(allRows, ex.Features...)
	}
	ts.Space.Fit(allRows)

	if !cfg.DisableRegressor {
		if err := p.trainFunnel(examples, eo); err != nil {
			return nil, err
		}
	}
	if cfg.FeatureSelection && !cfg.DisableCluster {
		p.selectFeatures(examples)
	}
	return p, nil
}

// trainFunnel builds cfg.K regressors. Stage i targets a positive fraction
// that shrinks geometrically from "all partitions with nonzero contribution"
// (stage 0) down to the top TopFrac (stage K-1), per §4.3. Labels follow
// Algorithm 4: positives get +sqrt(1/positives), negatives
// -sqrt(1/negatives), per query, so each query contributes equal weight
// regardless of class balance. Each stage has its own labels and seed and
// only reads the shared feature rows, so the stages train in parallel.
func (p *Picker) trainFunnel(examples []Example, eo exec.Options) error {
	k := p.Cfg.K
	n := len(examples[0].Features)
	var xs [][]float64
	for _, ex := range examples {
		if len(ex.Features) != n || len(ex.Contrib) != n {
			return fmt.Errorf("picker: example has %d features / %d contribs, want %d",
				len(ex.Features), len(ex.Contrib), n)
		}
		xs = append(xs, ex.Features...)
	}

	regs, err := exec.MapErr(k, eo, func(stage int) (*gbt.Model, error) {
		ys := make([]float64, 0, len(xs))
		for _, ex := range examples {
			ys = append(ys, stageLabels(ex.Contrib, stage, k, p.Cfg.TopFrac)...)
		}
		model, err := gbt.Train(xs, ys, gbt.Params{
			Trees:        40,
			MaxDepth:     4,
			LearningRate: 0.25,
			Subsample:    0.9,
			ColSample:    0.9,
			Seed:         p.Cfg.Seed + int64(stage),
		})
		if err != nil {
			return nil, fmt.Errorf("picker: training funnel stage %d: %w", stage, err)
		}
		return model, nil
	})
	if err != nil {
		return err
	}
	p.Regs = regs
	p.Thresholds = make([]float64, k)
	return nil
}

// stageLabels computes Algorithm 4 labels for one query at one funnel stage.
func stageLabels(contrib []float64, stage, k int, topFrac float64) []float64 {
	n := len(contrib)
	labels := make([]float64, n)
	thresh := stageThreshold(contrib, stage, k, topFrac)
	pos := 0
	for _, c := range contrib {
		if c > thresh {
			pos++
		}
	}
	neg := n - pos
	for i, c := range contrib {
		if c > thresh {
			labels[i] = math.Sqrt(1 / float64(max(pos, 1)))
		} else {
			labels[i] = -math.Sqrt(1 / float64(max(neg, 1)))
		}
	}
	return labels
}

// stageThreshold returns the contribution cutoff for a funnel stage: stage 0
// separates zero from nonzero contribution; the last stage keeps the top
// topFrac of partitions; intermediate stages interpolate the kept fraction
// geometrically.
func stageThreshold(contrib []float64, stage, k int, topFrac float64) float64 {
	if stage == 0 {
		return 0
	}
	nz := 0
	for _, c := range contrib {
		if c > 0 {
			nz++
		}
	}
	n := len(contrib)
	if nz == 0 || n == 0 {
		return 0
	}
	fracNZ := float64(nz) / float64(n)
	if fracNZ <= topFrac {
		return 0
	}
	// Geometric interpolation of target kept-fraction between fracNZ (stage
	// 0) and topFrac (stage k-1).
	t := float64(stage) / float64(k-1)
	frac := fracNZ * math.Pow(topFrac/fracNZ, t)
	keep := int(math.Ceil(frac * float64(n)))
	if keep < 1 {
		keep = 1
	}
	sorted := append([]float64(nil), contrib...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	th := sorted[keep-1]
	// The threshold is exclusive (contribution > th passes); nudge down so
	// the keep-th partition passes, but never below zero.
	if th <= 0 {
		return 0
	}
	return th * (1 - 1e-12)
}

// selectFeatures runs Algorithm 3 over the clustering feature kinds, scoring
// each exclusion set by the mean relative error of clustering-only selection
// on probe training queries at two probe budgets. Every evaluation re-seeds
// its RNG identically so that feature subsets are compared on *paired*
// clusterings — without pairing, k-means seeding noise drowns the signal of
// removing a single feature kind. The selection is the pick's own,
// clusterSelectFast over each query's full feature rows, with strict k-means
// (Config.clusterize says why strict).
func (p *Picker) selectFeatures(examples []Example) {
	candidates := clusteringKindIDs()
	probe := len(examples)
	if probe > 20 {
		probe = 20 // cap evaluation cost; Algorithm 3 calls eval O(restarts × features) times
	}
	exs := examples[:probe]
	n := len(examples[0].Features)
	budgets := []int{max(n/20, 2), max(n/8, 3)}
	rng := newRand(p.Cfg.Seed + 977)
	named := make([][]bool, len(exs))
	for qi, ex := range exs {
		named[qi] = p.TS.NewFeaturePlan(ex.Query).UsedCols()
	}
	sc := getPickScratch(n, p.TS.Space.Dim())
	defer putPickScratch(sc)
	group := allParts(n)

	eval := func(excluded map[int]bool) float64 {
		exSet := make(map[stats.Kind]bool, len(excluded))
		for id := range excluded { //lint:mapiter-ok map-to-set copy; key set is order-free
			exSet[stats.Kind(id)] = true
		}
		var sum float64
		cnt := 0
		for qi, ex := range exs {
			sc.setMasks(p.TS.Space, exSet, named[qi])
			for bi, budget := range budgets {
				pairedRng := newRand(p.Cfg.Seed + int64(qi*17+bi))
				sel := p.clusterSelectFast(ex.Features, group, budget, pairedRng, sc, cluster.KMeansOpts{Strict: true})
				est := EstimateFromPerPart(ex.Compiled, ex.PerPart, sel)
				sum += metrics.Compare(ex.TruthVals, est).AvgRelErr
				cnt++
			}
		}
		return sum / float64(cnt)
	}

	best := cluster.GreedyFeatureSelection(candidates, eval, p.Cfg.FeatureSelRestarts, rng)
	p.Excluded = make(map[stats.Kind]bool, len(best))
	for _, id := range best {
		p.Excluded[stats.Kind(id)] = true
	}
}

// clusteringKindIDs returns the feature kinds eligible for exclusion — the
// feature list of Algorithm 3 (everything; the selectivity features are
// individually excludable).
func clusteringKindIDs() []int {
	kinds := stats.AllKinds()
	ids := make([]int, len(kinds))
	for i, k := range kinds {
		ids[i] = int(k)
	}
	return ids
}

func allParts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

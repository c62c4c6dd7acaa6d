package stats

import (
	"math"

	"ps3/internal/query"
	"ps3/internal/table"
)

// Kind identifies one summary-statistic feature type (the rows of Table 2 /
// the feature list of Algorithm 3). Feature selection operates on kinds.
type Kind uint8

const (
	// Selectivity features (query-specific, §3.2).
	KSelUpper Kind = iota
	KSelIndep
	KSelMin
	KSelMax
	// Occurrence bitmap bits of global heavy hitters.
	KBitmap
	// Measure features.
	KMean
	KMeanSq
	KStd
	KMin
	KMax
	KLogMean
	KLogMeanSq
	KLogMin
	KLogMax
	// Heavy hitter features.
	KNumHH
	KAvgHH
	KMaxHH
	// Distinct value features.
	KNumDV
	KAvgDV
	KMaxDV
	KMinDV
	KSumDV
	numKinds
)

// kindNames maps kinds to the names used in Algorithm 3 of the paper.
var kindNames = [numKinds]string{
	"selectivity_upper", "selectivity_indep", "selectivity_min", "selectivity_max",
	"occurrence_bitmap",
	"x", "x2", "std", "min(x)", "max(x)",
	"log(x)", "log2(x)", "min(log(x))", "max(log(x))",
	"#hh", "avg_hh", "max_hh",
	"#dv", "avg_dv", "max_dv", "min_dv", "sum_dv",
}

func (k Kind) String() string { return kindNames[k] }

// Valid reports whether k names a defined feature kind; used to validate
// feature-selection state restored from untrusted snapshot data.
func (k Kind) Valid() bool { return k < numKinds }

// Category groups kinds into the four sketch families of Fig 5.
type Category uint8

const (
	CatSelectivity Category = iota
	CatHH
	CatDV
	CatMeasure
)

func (c Category) String() string {
	switch c {
	case CatSelectivity:
		return "selectivity"
	case CatHH:
		return "hh"
	case CatDV:
		return "dv"
	default:
		return "measure"
	}
}

// CategoryOf returns the sketch family a kind belongs to.
func CategoryOf(k Kind) Category {
	switch k {
	case KSelUpper, KSelIndep, KSelMin, KSelMax:
		return CatSelectivity
	case KBitmap, KNumHH, KAvgHH, KMaxHH:
		return CatHH
	case KNumDV, KAvgDV, KMaxDV, KMinDV, KSumDV:
		return CatDV
	default:
		return CatMeasure
	}
}

// AllKinds returns every feature kind, in order.
func AllKinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// FeatureMeta describes one slot of the feature vector.
type FeatureMeta struct {
	Kind Kind
	// Col is the column index the feature derives from, or -1 for the
	// query-level selectivity features.
	Col int
	// Bit is the bitmap bit index for KBitmap features.
	Bit int
}

// FeatureSpace is the layout of partition feature vectors for one table +
// workload: 4 selectivity slots, then per-column statistics, then occurrence
// bitmap bits for groupable columns.
type FeatureSpace struct {
	Meta []FeatureMeta
	// colSlots[c] is the offset of column c's 17 per-column stats.
	colSlots map[int]int
	// bitmapSlots[c] is the offset of column c's bitmap bits (len = bits[c]).
	bitmapSlots map[int]int
	bitmapBits  map[int]int
	// Scale holds normalization divisors fitted on training features; nil
	// until Fit is called.
	Scale []float64
}

// perColKinds are the 17 per-column feature kinds, in slot order.
var perColKinds = []Kind{
	KMean, KMeanSq, KStd, KMin, KMax,
	KLogMean, KLogMeanSq, KLogMin, KLogMax,
	KNumHH, KAvgHH, KMaxHH,
	KNumDV, KAvgDV, KMaxDV, KMinDV, KSumDV,
}

func newFeatureSpace(s *table.Schema, globalHH map[int][]uint32, _ Options) *FeatureSpace {
	fs := &FeatureSpace{
		colSlots:    make(map[int]int),
		bitmapSlots: make(map[int]int),
		bitmapBits:  make(map[int]int),
	}
	fs.Meta = append(fs.Meta,
		FeatureMeta{Kind: KSelUpper, Col: -1},
		FeatureMeta{Kind: KSelIndep, Col: -1},
		FeatureMeta{Kind: KSelMin, Col: -1},
		FeatureMeta{Kind: KSelMax, Col: -1},
	)
	for ci := range s.Cols {
		fs.colSlots[ci] = len(fs.Meta)
		for _, k := range perColKinds {
			fs.Meta = append(fs.Meta, FeatureMeta{Kind: k, Col: ci})
		}
	}
	// Deterministic order over bitmap columns.
	for ci := range s.Cols {
		codes, ok := globalHH[ci]
		if !ok || len(codes) == 0 {
			continue
		}
		fs.bitmapSlots[ci] = len(fs.Meta)
		fs.bitmapBits[ci] = len(codes)
		for b := range codes {
			fs.Meta = append(fs.Meta, FeatureMeta{Kind: KBitmap, Col: ci, Bit: b})
		}
	}
	return fs
}

// Dim returns M, the feature dimension.
func (fs *FeatureSpace) Dim() int { return len(fs.Meta) }

// SelectivitySlots returns the indexes of the four selectivity features.
func (fs *FeatureSpace) SelectivitySlots() (upper, indep, minS, maxS int) {
	return 0, 1, 2, 3
}

// buildBaseMatrix precomputes the query-independent features of every
// partition (selectivity slots left at zero) into one contiguous row-major
// matrix.
func (ts *TableStats) buildBaseMatrix() []float64 {
	m := ts.Space.Dim()
	out := make([]float64, len(ts.Parts)*m)
	for i, ps := range ts.Parts {
		ts.fillBaseRow(out[i*m:(i+1)*m], ps)
	}
	return out
}

// fillBaseRow fills one partition's query-independent feature row
// (selectivity slots left at zero). It is the per-partition half of
// buildBaseMatrix, shared with the incremental extension path
// (ExtendedWith), which appends rows for new partitions without retouching
// the existing matrix.
func (ts *TableStats) fillBaseRow(v []float64, ps *PartitionStats) {
	for ci := range ts.Schema.Cols {
		off := ts.Space.colSlots[ci]
		cs := &ps.Cols[ci]
		if cs.Measures != nil {
			mm := cs.Measures
			v[off+0] = mm.Mean()
			v[off+1] = mm.MeanSq()
			v[off+2] = mm.Std()
			if mm.Count > 0 {
				v[off+3] = mm.Min
				v[off+4] = mm.Max
			}
			if mm.HasLog && mm.Count > 0 {
				v[off+5] = mm.LogMean()
				v[off+6] = mm.LogMeanSq()
				v[off+7] = mm.LogMin
				v[off+8] = mm.LogMax
			}
		}
		nhh, avgHH, maxHH := cs.HH.Stats()
		v[off+9] = float64(nhh)
		v[off+10] = avgHH
		v[off+11] = maxHH
		v[off+12] = cs.AKMV.DistinctEstimate()
		avgDV, maxDV, minDV, sumDV := cs.AKMV.FreqStats()
		v[off+13] = avgDV
		v[off+14] = maxDV
		v[off+15] = minDV
		v[off+16] = sumDV
	}
	//lint:mapiter-ok each column writes its own disjoint dense slot range; order-free
	for ci, slot := range ts.Space.bitmapSlots {
		bm := ps.Bitmap[ci]
		bits := ts.Space.bitmapBits[ci]
		for b := 0; b < bits; b++ {
			if bm&(1<<uint(b)) != 0 {
				v[slot+b] = 1
			}
		}
	}
}

// Features builds the N×M feature matrix for query q: the precomputed base
// features with the query-dependent column mask applied (features of unused
// columns zeroed, §3.2) and the four per-partition selectivity estimates
// filled in — one FeaturePlan.FillRow per partition into a fresh row. Hot
// paths build a FeaturePlan once per query and fill pooled scratch rows
// instead.
func (ts *TableStats) Features(q *query.Query) [][]float64 {
	plan := ts.NewFeaturePlan(q)
	out := make([][]float64, len(ts.Parts))
	for i := range out {
		out[i] = make([]float64, plan.Dim())
		plan.FillRow(out[i], i)
	}
	return out
}

// FeaturePlan is the query-compiled featurizer: the query-static work of
// featurization — column-mask resolution and predicate analysis
// (selprogram.go) — done once, leaving the fills with only the
// partition-varying work. It offers two:
//
//   - FillSel writes the four selectivity estimates and nothing else. This is
//     the fill of the serving path (picker.PickBatch): the rest of a row is
//     the partition's base feature or a masked zero, both known before the
//     query arrives, so the funnel scores them from tables folded once per
//     binding and cluster preparation reads them from Normalized — nobody reads
//     a copy.
//   - FillRow writes the whole row — a base-row copy, a sweep zeroing the
//     masked slots and the same four estimates. It is what the serving
//     path's rows stand for, and the form Features, equivalence tests and
//     callers that need a materialized matrix use.
//
// Both perform zero allocations. A plan is immutable after construction and
// safe for concurrent fills from multiple workers.
type FeaturePlan struct {
	ts *TableStats
	// used[ci] reports whether the query names schema column ci; the feature
	// slots of every other column are masked to zero.
	used []bool
	prog *selProgram
}

// NewFeaturePlan compiles q's featurization against the store.
func (ts *TableStats) NewFeaturePlan(q *query.Query) *FeaturePlan {
	p := &FeaturePlan{ts: ts, used: make([]bool, len(ts.Schema.Cols)), prog: ts.compileSel(q.Pred)}
	for _, name := range q.Columns() {
		if ci := ts.Schema.ColIndex(name); ci >= 0 {
			p.used[ci] = true
		}
	}
	return p
}

// Dim returns the feature dimension M.
func (p *FeaturePlan) Dim() int { return p.ts.Space.Dim() }

// UsedCols reports, per schema column index, whether the query names the
// column. Every filled row holds exactly zero in the feature slots of the
// columns it does not name, and the partition's base feature in the others.
// The slice aliases plan state; callers must not mutate it.
func (p *FeaturePlan) UsedCols() []bool { return p.used }

// FillRow writes partition part's feature vector into dst (which must have
// length ≥ Dim()).
func (p *FeaturePlan) FillRow(dst []float64, part int) {
	m := p.ts.Space.Dim()
	copy(dst[:m], p.ts.base[part*m:(part+1)*m])
	for j, meta := range p.ts.Space.Meta {
		if meta.Col >= 0 && !p.used[meta.Col] {
			dst[j] = 0
		}
	}
	p.FillSel(dst, part)
}

// FillSel writes partition part's four selectivity estimates into dst[0:4]
// (the selectivity slots lead the feature vector) and touches nothing else:
// FillRow(dst, part)[0:4], bit for bit.
func (p *FeaturePlan) FillSel(dst []float64, part int) {
	upper, indep, minS, maxS := p.prog.estimate(p.ts.Parts[part])
	dst[0], dst[1], dst[2], dst[3] = upper, indep, minS, maxS
}

// Fit computes normalization divisors from a training feature sample
// (Appendix B): every statistic is transformed (log for magnitudes, cube
// root for selectivities) and then divided by its average value in the
// training set, the paper's normalization. The average is chosen over the
// max for robustness to outliers, and over the standard deviation because
// dividing by the std would amplify noise-only features (large mean, tiny
// spread) until they dominate the Euclidean distance. Features that are
// ~zero throughout training get scale 1 (they then contribute nothing).
// Rows are raw feature vectors as returned by Features.
func (fs *FeatureSpace) Fit(trainRows [][]float64) {
	m := fs.Dim()
	sumAbs := make([]float64, m)
	n := 0
	for _, row := range trainRows {
		if len(row) != m {
			continue
		}
		n++
		for j, x := range row {
			sumAbs[j] += math.Abs(fs.transform(j, x))
		}
	}
	scale := make([]float64, m)
	for j := range scale {
		scale[j] = 1
		if n > 0 {
			if mean := sumAbs[j] / float64(n); mean > 1e-12 {
				scale[j] = mean
			}
		}
	}
	fs.Scale = scale
}

// transform applies the skew-reducing transform of Appendix B: cube root for
// selectivity features (in [0,1]), signed log1p for everything else.
func (fs *FeatureSpace) transform(j int, x float64) float64 {
	if CategoryOf(fs.Meta[j].Kind) == CatSelectivity {
		return math.Cbrt(x)
	}
	if x >= 0 {
		return math.Log1p(x)
	}
	return -math.Log1p(-x)
}

// NormalizeValue normalizes one feature slot: transform(j, x) divided by the
// fitted scale (unit scale before Fit). A normalized row is NormalizeValue
// applied slot by slot; TableStats.Normalized holds it for every base row.
func (fs *FeatureSpace) NormalizeValue(j int, x float64) float64 {
	v := fs.transform(j, x)
	if fs.Scale != nil {
		v /= fs.Scale[j]
	}
	return v
}

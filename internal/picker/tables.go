package picker

import (
	"sync"
	"sync/atomic"

	"ps3/internal/gbt"
	"ps3/internal/stats"
)

// funnelTables holds the funnel's fold tables (gbt.FoldTable, one per
// stage): per (partition, column) the outcome of every split condition on
// the partition's base features, which no query can change. They belong to
// one binding of a picker's regressors to a statistics store and are built
// by the first batched pick of that binding — not at Rebound, which runs
// inside a snapshot swap — so that pick bills the build to its funnel share.
//
// A Picker is copied by value (lesion variants, Rebound), so the tables sit
// behind a pointer: copies over the same store share them, and Rebound hands
// its copy a fresh holder. Memory, outside every cache budget:
// 2 × trees bytes per (partition, condition-bearing column, stage).
type funnelTables struct {
	once sync.Once
	// ts is the store the tables were folded over; a picker whose TS field
	// was repointed without Rebound must not index them.
	ts     *stats.TableStats
	stages []*gbt.FoldTable // nil entry: the stage's model is outside a fold table's reach
	bytes  atomic.Int64
}

// foldTables returns the per-stage fold tables of p's binding, building them
// on first use. It returns nil — every stage then walks full rows — for a
// picker without a holder (assembled as a literal) or one whose TS no longer
// is the store the holder was built over.
func (p *Picker) foldTables() []*gbt.FoldTable {
	h := p.tables
	if h == nil {
		return nil
	}
	h.once.Do(func() {
		space := p.TS.Space
		lay := gbt.FoldLayout{
			Group:  make([]int32, space.Dim()),
			Groups: len(p.TS.Schema.Cols),
			// Selectivity estimates lie in [0, 1] by construction.
			FreeLo: 0,
			FreeHi: 1,
		}
		for j, meta := range space.Meta {
			lay.Group[j] = int32(meta.Col)
		}
		h.ts = p.TS
		h.stages = make([]*gbt.FoldTable, len(p.Regs))
		var bytes int64
		for s, reg := range p.Regs {
			if t := reg.NewFoldTable(p.TS.Base(), space.Dim(), len(p.TS.Parts), lay); t != nil {
				h.stages[s] = t
				bytes += t.Bytes()
			}
		}
		h.bytes.Store(bytes)
	})
	if h.ts != p.TS {
		return nil
	}
	return h.stages
}

// TableBytes reports the memory held by the funnel's fold tables of this
// binding: 0 until the first batched pick builds them, then partitions ×
// condition-bearing columns × trees × 2 summed over the stages. No cache
// budget bounds it.
func (p *Picker) TableBytes() int64 {
	if p.tables == nil {
		return 0
	}
	return p.tables.bytes.Load()
}

// Rebound returns a copy of p bound to ts, a statistics store sharing p's
// fitted feature space (stats.TableStats.ExtendedWith): the trained
// regressors, thresholds and exclusions carry over, and the copy starts with
// no fold tables and no outlier memo, so it can never read the ones built
// over p's store.
func (p *Picker) Rebound(ts *stats.TableStats) *Picker {
	np := *p
	np.TS = ts
	np.tables = &funnelTables{}
	np.outliers = &outlierMemo{}
	return &np
}

package stats

import (
	"fmt"

	"ps3/internal/exec"
	"ps3/internal/table"
)

// ExtendedWith returns a new TableStats covering every partition of ts plus
// parts, appended in order. It is the incremental half of Build, shaped for
// the live-ingest path where immutable segments arrive behind a frozen base:
//
//   - existing *PartitionStats are shared by pointer, never retouched;
//   - sketches for the new partitions are built exactly as Build would
//     (buildPartition), fanned out on the bounded pool;
//   - the global heavy-hitter lists stay frozen at the base build, so old
//     occurrence bitmaps and the feature-space layout (whose bitmap slots
//     are sized by GlobalHH) remain valid; new partitions' bitmaps are
//     computed against the frozen lists. Global-HH drift under sustained
//     ingest is by design: re-ranking would invalidate every existing
//     bitmap and feature row, which is a rebuild, not an extension;
//   - the base feature matrix is copied and extended with one row per new
//     partition; the fitted FeatureSpace (including its normalization
//     scale) is shared, so a trained picker rebinds to the result without
//     refitting.
//
// dict replaces the dictionary carried by the result (nil keeps ts's): the
// live path passes the dictionary snapshot taken when the new partitions
// were sealed, a superset of the base dictionary covering every code they
// store. Each partition's ID must equal its global position
// len(ts.Parts)+i — the stats row index and the partition index must agree
// or the picker would read the wrong sketches.
//
// ts itself is never mutated, and the result shares no mutable state with
// it, so serving reads against ts may proceed concurrently with the
// extension. The lazily built normalized base matrix is not inherited; each
// snapshot rebuilds its own on first use.
func (ts *TableStats) ExtendedWith(dict *table.Dict, parts []*table.Partition, parallelism int) (*TableStats, error) {
	if dict == nil {
		dict = ts.Dict
	}
	if parallelism <= 0 {
		parallelism = ts.Opts.Parallelism
	}
	old := len(ts.Parts)
	for i, p := range parts {
		if p.ID != old+i {
			return nil, fmt.Errorf("stats: extension partition %d has ID %d, want global position %d", i, p.ID, old+i)
		}
	}

	newPS := make([]*PartitionStats, len(parts))
	exec.ForEach(len(parts), exec.Options{Parallelism: parallelism}, func(i int) {
		newPS[i] = buildPartition(ts.Schema, parts[i], ts.Opts)
	})

	m := ts.Space.Dim()
	out := &TableStats{
		Schema:   ts.Schema,
		Dict:     dict,
		Opts:     ts.Opts,
		Parts:    make([]*PartitionStats, old, old+len(parts)),
		GlobalHH: ts.GlobalHH,
		Space:    ts.Space,
		base:     make([]float64, (old+len(parts))*m),
	}
	copy(out.Parts, ts.Parts)
	copy(out.base, ts.base)
	for i, ps := range newPS {
		// Occurrence bitmap against the frozen global heavy hitters,
		// exactly as Build derives it (schema order keeps it
		// deterministic).
		ps.Bitmap = make(map[int]uint32)
		for ci := range ts.Schema.Cols {
			codes, ok := ts.GlobalHH[ci]
			if !ok {
				continue
			}
			var bm uint32
			for bit, code := range codes {
				if ps.Cols[ci].HH.Contains(uint64(code)) {
					bm |= 1 << uint(bit)
				}
			}
			ps.Bitmap[ci] = bm
		}
		out.Parts = append(out.Parts, ps)
		out.fillBaseRow(out.base[(old+i)*m:(old+i+1)*m], ps)
	}
	return out, nil
}

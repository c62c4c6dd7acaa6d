package core

import (
	"fmt"

	"ps3/internal/stats"
	"ps3/internal/table"
)

// Rebind derives a System serving src with ts, carrying s's trained picker
// (and LSS baseline) across by swapping their statistics binding. It is
// the publish step of live ingest: the stats extension (ExtendedWith)
// shares the trained feature space, so the regressors, thresholds and
// fitted normalization remain valid over the grown partition set — new
// partitions become pickable without retraining.
//
// ts must share s's fitted FeatureSpace (pointer identity): a stats store
// built independently has its own layout and scale, and silently rebinding
// a picker to it would misread every feature slot. s is not mutated; the
// returned system shares the immutable trained artifacts.
func (s *System) Rebind(src table.PartitionSource, ts *stats.TableStats) (*System, error) {
	if s.Stats != nil && ts.Space != s.Stats.Space {
		return nil, fmt.Errorf("core: rebind requires stats sharing the system's feature space; extend the system's stats instead of rebuilding")
	}
	ns, err := NewFromStats(src, ts, s.Opts)
	if err != nil {
		return nil, err
	}
	if s.Picker != nil {
		ns.Picker = s.Picker.Rebound(ts)
	}
	if s.LSS != nil {
		l := *s.LSS
		l.TS = ts
		ns.LSS = &l
	}
	return ns, nil
}

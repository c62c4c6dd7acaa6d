package core

import (
	"fmt"

	"ps3/internal/stats"
	"ps3/internal/table"
)

// MutableSource is the capability a live, append-path partition source
// (internal/ingest's pipeline) offers on top of serving reads. core keeps
// only the interface, so the facade can expose Ingest/Freeze without
// depending on the WAL and segment machinery.
type MutableSource interface {
	table.PartitionSource
	// AppendRow ingests one row, returning once it is durably logged.
	// num[c] is consulted for numeric columns and cat[c] for categorical
	// ones, mirroring table.Builder.Append.
	AppendRow(num []float64, cat []string) error
	// AppendRows ingests a batch of rows as one durability unit: when it
	// returns nil, every row survives a crash.
	AppendRows(num [][]float64, cat [][]string) error
	// FreezeSource flushes everything buffered into immutable segments and
	// seals the source; further appends fail.
	FreezeSource() error
}

// Ingest appends one row through the system's source. It requires a
// mutable source (an ingest pipeline); systems over plain tables or paged
// stores are immutable and return an error.
//
// Appended rows are immediately visible to exact scans over the live
// source. Approximate answers keep reflecting the statistics the system
// was built with until a new snapshot is published (the ingest pipeline's
// flush does that); that staleness window is the documented semantics of
// live ingest, not a bug.
func (s *System) Ingest(num []float64, cat []string) error {
	m, ok := s.Source.(MutableSource)
	if !ok {
		return fmt.Errorf("core: source %T is immutable; serve the table through an ingest pipeline to append", s.Source)
	}
	return m.AppendRow(num, cat)
}

// IngestBatch appends a batch of rows as one durability unit through the
// system's source; see Ingest.
func (s *System) IngestBatch(num [][]float64, cat [][]string) error {
	m, ok := s.Source.(MutableSource)
	if !ok {
		return fmt.Errorf("core: source %T is immutable; serve the table through an ingest pipeline to append", s.Source)
	}
	return m.AppendRows(num, cat)
}

// Freeze seals a system over a mutable source: buffered rows flush into a
// final (possibly short) segment and the source becomes read-only. A
// system over an immutable source returns an error.
func (s *System) Freeze() error {
	m, ok := s.Source.(MutableSource)
	if !ok {
		return fmt.Errorf("core: source %T is immutable; nothing to freeze", s.Source)
	}
	return m.FreezeSource()
}

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

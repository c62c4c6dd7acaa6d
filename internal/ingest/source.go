package ingest

import (
	"errors"
	"fmt"
	"sort"

	"ps3/internal/store"
	"ps3/internal/table"
)

// multiSource concatenates partition sources into one global partition
// index space: the base table's source followed by each flushed segment
// (and, in published snapshots, a resident tail table). Global partition
// IDs are positional, so partition old+i of the concatenation is simply
// partition i of the segment that starts at old — no translation tables,
// just offset arithmetic.
//
// A multiSource is immutable once built; each published snapshot gets its
// own. Reads delegate to the owning sub-source, which carries its own
// cache and I/O accounting.
type multiSource struct {
	schema *table.Schema
	dict   *table.Dict
	subs   []table.PartitionSource
	starts []int // starts[j] = global index of subs[j]'s first partition
	parts  int
	rows   int
	bytes  int
}

// newMultiSource concatenates subs in order. dict is the dictionary the
// concatenation serves — the live dictionary snapshot, a superset of every
// sub-source's own (segment dictionaries are growing prefixes of it).
func newMultiSource(schema *table.Schema, dict *table.Dict, subs ...table.PartitionSource) *multiSource {
	m := &multiSource{schema: schema, dict: dict, subs: subs}
	for _, s := range subs {
		m.starts = append(m.starts, m.parts)
		m.parts += s.NumParts()
		m.rows += s.NumRows()
		m.bytes += s.TotalBytes()
	}
	return m
}

func (m *multiSource) TableSchema() *table.Schema { return m.schema }
func (m *multiSource) TableDict() *table.Dict     { return m.dict }
func (m *multiSource) NumParts() int              { return m.parts }
func (m *multiSource) NumRows() int               { return m.rows }
func (m *multiSource) TotalBytes() int            { return m.bytes }

func (m *multiSource) Read(i int) (*table.Partition, error) {
	if i < 0 || i >= m.parts {
		return nil, fmt.Errorf("ingest: partition %d out of range [0, %d)", i, m.parts)
	}
	// First sub-source starting after i, minus one: the owner.
	j := sort.Search(len(m.starts), func(k int) bool { return m.starts[k] > i }) - 1
	q, err := m.subs[j].Read(i - m.starts[j])
	if err != nil {
		// A segment's quarantine error names its local partition id; callers
		// (core's degradation loop) drop by global id, so renumber.
		var qe *store.QuarantineError
		if errors.As(err, &qe) && qe.Part != i {
			return nil, &store.QuarantineError{Part: i, Err: err}
		}
	}
	return q, err
}

// Health aggregates quarantine state across sub-sources, renumbering each
// sub-source's local partition ids into the concatenation's global index
// space (core's degradation loop drops by global id). Sub-sources without
// health reporting — resident tables, the base when memory-backed — are
// trivially healthy.
func (m *multiSource) Health() store.HealthStats {
	var agg store.HealthStats
	for j, s := range m.subs {
		h, ok := s.(interface{ Health() store.HealthStats })
		if !ok {
			continue
		}
		hs := h.Health()
		agg.CorruptRetries += hs.CorruptRetries
		for _, p := range hs.QuarantinedParts {
			agg.QuarantinedParts = append(agg.QuarantinedParts, m.starts[j]+p)
		}
	}
	sort.Ints(agg.QuarantinedParts)
	return agg
}

package ingest

import (
	"fmt"

	"ps3/internal/table"
)

// memtable accumulates appended rows in columnar form and seals an
// immutable partition every rowsPerPart rows — the same seal rule as
// table.Builder, which is what keeps a streamed dataset bit-identical to
// the offline build of the same rows. It is not goroutine-safe; the
// pipeline guards it with its state lock.
type memtable struct {
	schema      *table.Schema
	rowsPerPart int
	// nextID is the global partition ID the next sealed partition gets:
	// base partitions + segment partitions + already-sealed memtable
	// partitions. Stats extension validates IDs against global positions,
	// so the memtable must hand them out in global order.
	nextID int

	num    [][]float64 // building columns, numeric side
	cat    [][]uint32  // building columns, categorical side (dict codes)
	rows   int
	sealed []*table.Partition
}

func newMemtable(s *table.Schema, rowsPerPart, nextID int) *memtable {
	m := &memtable{schema: s, rowsPerPart: rowsPerPart, nextID: nextID}
	m.reset()
	return m
}

// reset starts a fresh building partition. Fresh outer slices, not
// truncated ones: sealed partitions own their column slices forever.
func (m *memtable) reset() {
	m.num = make([][]float64, m.schema.NumCols())
	m.cat = make([][]uint32, m.schema.NumCols())
	m.rows = 0
}

// append adds one row (categorical cells already dictionary-coded) and
// seals a partition when the building one reaches rowsPerPart rows.
func (m *memtable) append(num []float64, cat []uint32) error {
	for c, col := range m.schema.Cols {
		if col.IsNumeric() {
			m.num[c] = append(m.num[c], num[c])
		} else {
			m.cat[c] = append(m.cat[c], cat[c])
		}
	}
	m.rows++
	if m.rows >= m.rowsPerPart {
		p, err := table.MakePartition(m.schema, m.nextID, m.rows, m.num, m.cat)
		if err != nil {
			return fmt.Errorf("ingest: seal memtable partition: %w", err)
		}
		m.sealed = append(m.sealed, p)
		m.nextID++
		m.reset()
	}
	return nil
}

// takeSealed hands off the sealed partitions for flushing.
func (m *memtable) takeSealed() []*table.Partition {
	s := m.sealed
	m.sealed = nil
	return s
}

// tailPartition returns the building rows as a partition with the next
// global ID, or nil when empty. The column data is deep-copied so the
// returned partition stays immutable while appends continue.
func (m *memtable) tailPartition() (*table.Partition, error) {
	if m.rows == 0 {
		return nil, nil
	}
	num := make([][]float64, len(m.num))
	cat := make([][]uint32, len(m.cat))
	for c := range m.num {
		if m.num[c] != nil {
			num[c] = append([]float64(nil), m.num[c]...)
		}
		if m.cat[c] != nil {
			cat[c] = append([]uint32(nil), m.cat[c]...)
		}
	}
	p, err := table.MakePartition(m.schema, m.nextID, m.rows, num, cat)
	if err != nil {
		return nil, fmt.Errorf("ingest: snapshot memtable tail: %w", err)
	}
	return p, nil
}

// unflushedRows returns every row the memtable holds — sealed partitions
// first, then the building tail — decoded back to the append wire form
// (strings via dict). WAL rotation re-logs these into the fresh log so
// the old log can be deleted without losing acknowledged rows.
func (m *memtable) unflushedRows(dict *table.Dict) (num [][]float64, cat [][]string) {
	w := m.schema.NumCols()
	emit := func(rows int, numCols [][]float64, catCols [][]uint32) {
		for r := 0; r < rows; r++ {
			nr := make([]float64, w)
			cr := make([]string, w)
			for c, col := range m.schema.Cols {
				if col.IsNumeric() {
					nr[c] = numCols[c][r]
				} else {
					cr[c] = dict.Value(catCols[c][r])
				}
			}
			num = append(num, nr)
			cat = append(cat, cr)
		}
	}
	for _, p := range m.sealed {
		pn, pc := p.DecodedCols()
		emit(p.Rows(), pn, pc)
	}
	emit(m.rows, m.num, m.cat)
	return num, cat
}

// pendingRows counts rows not yet flushed to a segment.
func (m *memtable) pendingRows() int {
	n := m.rows
	for _, p := range m.sealed {
		n += p.Rows()
	}
	return n
}

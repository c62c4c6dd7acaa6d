package table

import "fmt"

// PartitionSource is the seam between query execution and partition storage:
// everything a scan needs to compile queries against a dataset and fetch the
// partitions a picker selected. A *Table is the fully-resident
// implementation; internal/store's Reader is the paged, out-of-core one,
// where Read faults individual partitions in from disk through a bounded
// cache. The query layer holds sources, not tables, so serving memory scales
// with the picked set instead of the dataset.
//
// Implementations must be safe for concurrent Read calls: the parallel scan
// engine fans partition fetches out across workers.
type PartitionSource interface {
	// TableSchema returns the schema shared by every partition.
	TableSchema() *Schema
	// TableDict returns the dictionary encoding categorical columns.
	TableDict() *Dict
	// NumParts returns the number of partitions.
	NumParts() int
	// NumRows returns the total row count across partitions.
	NumRows() int
	// TotalBytes returns the full decoded storage footprint of the dataset.
	TotalBytes() int
	// Read returns partition i, charging one partition read to the I/O
	// accountant. Resident sources cannot fail; paged sources surface disk
	// and corruption errors here instead of panicking mid-scan. The caller
	// holds the partition it is given (Partition.Own): it may Release it
	// once, after its last read of it, or never.
	Read(i int) (*Partition, error)
	// ResetIO clears the I/O counters.
	ResetIO()
	// IOStats reports partitions and bytes read since the last ResetIO.
	IOStats() (parts int64, bytes int64)
}

// TableSchema returns the table's schema, satisfying PartitionSource (the
// Schema field itself occupies the method name).
func (t *Table) TableSchema() *Schema { return t.Schema }

// TableDict returns the table's dictionary, satisfying PartitionSource.
func (t *Table) TableDict() *Dict { return t.Dict }

// Read returns partition i, charging one partition read to the accountant.
// Query execution must access partitions through Read so that experiments
// can attribute I/O. An out-of-range index is an error, not a panic: the
// index may come from a stale or corrupted partition selection. The caller
// becomes a holder of the partition, as with any source: that is a no-op for
// partitions built in memory and keeps one a store reader materialized
// (whose loader's hold the table has taken over) alive past the caller's
// Release.
func (t *Table) Read(i int) (*Partition, error) {
	if i < 0 || i >= len(t.Parts) {
		return nil, fmt.Errorf("table: partition %d out of range [0, %d)", i, len(t.Parts))
	}
	p := t.Parts[i]
	p.Retain(1)
	t.readCount.Add(1)
	t.readBytes.Add(int64(p.SizeBytes()))
	return p, nil
}

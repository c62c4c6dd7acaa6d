package testutil

import (
	"slices"
	"sync"

	"ps3/internal/table"
)

// ReadCounter is a table.PartitionSource that records every Read it passes
// on to the source it wraps, so a test can check that a scan read exactly
// the partitions it selected. It is safe for concurrent Read calls.
type ReadCounter struct {
	table.PartitionSource
	mu    sync.Mutex
	reads []int
}

// CountReads wraps src.
func CountReads(src table.PartitionSource) *ReadCounter {
	return &ReadCounter{PartitionSource: src}
}

// Read records partition i and reads it from the wrapped source.
func (c *ReadCounter) Read(i int) (*table.Partition, error) {
	c.mu.Lock()
	c.reads = append(c.reads, i)
	c.mu.Unlock()
	return c.PartitionSource.Read(i)
}

// Reads returns the partition ids read so far, one entry per Read, in
// ascending order.
func (c *ReadCounter) Reads() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Sorted(slices.Values(c.reads))
}

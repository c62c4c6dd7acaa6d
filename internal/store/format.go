// Package store is PS3's out-of-core partition storage: a self-describing
// paged file format plus a Reader that serves individual partitions on
// demand through a bounded cache, so a serving process's memory scales with
// the picked set instead of the dataset.
//
// The file layout is block storage in the Parquet spirit — column data in
// per-partition blocks addressed by a footer index:
//
//	header   (16 bytes)  magic "PS3STOR1" | version u32 | reserved u32
//	blocks   one per partition, in the layout of the header's version
//	footer   gob(footerWire): schema columns, dictionary values, and one
//	         {offset, length, rows, crc32} index entry per block
//	trailer  (20 bytes)  footer length u64 | footer crc32 | magic "PS3STEND"
//
// The writer produces version 2, whose blocks hold one encoded payload per
// column (encoding.go). Version 1 files, whose blocks are each column's raw
// values back to back in schema order (numeric float64 bits LE,
// categorical code u32 LE), are still read (decodeBlock); nothing writes
// them any more.
//
// A reader seeks to the trailer, validates and decodes the footer as
// untrusted input, and can then fetch any partition with one ReadAt. Every
// block and the footer carry CRC32-C checksums, so corruption surfaces as a
// per-partition error instead of a panic inside the vectorized kernels.
// Writing is a single forward stream: no seeks, so the writer works on
// pipes and object-store uploads too.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"ps3/internal/table"
)

const (
	headerMagic  = "PS3STOR1"
	trailerMagic = "PS3STEND"

	formatVersion = 1

	headerSize  = len(headerMagic) + 4 + 4  // magic + version + reserved
	trailerSize = 8 + 4 + len(trailerMagic) // footer length + footer CRC + magic
)

// crcTable is the CRC32-C (Castagnoli) polynomial, hardware-accelerated on
// current CPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// footerWire is the gob-encoded footer: everything needed to open the store
// and address any partition without touching block data.
type footerWire struct {
	Cols     []table.Column
	DictVals []string
	Blocks   []blockWire
}

// blockWire is one partition's index entry.
type blockWire struct {
	// Offset and Length locate the block in the file.
	Offset int64
	Length int64
	// Rows is the partition's row count; together with the schema it fully
	// determines Length (see blockSize), which the open path verifies.
	Rows int64
	// CRC is the CRC32-C of the block bytes.
	CRC uint32
}

// bytesPerRow returns the decoded size of one row under s: 8 bytes per
// numeric column, 4 per categorical. It is also a v1 block's size per row,
// so TotalBytes agrees between a resident table and its store file.
func bytesPerRow(s *table.Schema) int64 {
	var n int64
	for _, c := range s.Cols {
		if c.IsNumeric() {
			n += 8
		} else {
			n += 4
		}
	}
	return n
}

// decodeBlock parses one v1 block into a partition, validating every
// dictionary code against dictLen. data's length must already equal
// bytesPerRow(s)·rows — the open path rejects index entries where it
// doesn't.
func decodeBlock(data []byte, s *table.Schema, dictLen uint32, id, rows int) (*table.Partition, error) {
	num := make([][]float64, s.NumCols())
	cat := make([][]uint32, s.NumCols())
	for c, col := range s.Cols {
		if col.IsNumeric() {
			vals := make([]float64, rows)
			for r := range vals {
				vals[r] = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
			num[c] = vals
			continue
		}
		codes := make([]uint32, rows)
		for r := range codes {
			code := binary.LittleEndian.Uint32(data)
			data = data[4:]
			if code >= dictLen {
				return nil, fmt.Errorf("store: partition %d column %q row %d has dictionary code %d, dictionary holds %d values",
					id, col.Name, r, code, dictLen)
			}
			codes[r] = code
		}
		cat[c] = codes
	}
	return table.MakePartition(s, id, rows, num, cat)
}

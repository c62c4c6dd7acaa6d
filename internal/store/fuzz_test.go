package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ps3/internal/table"
)

// FuzzOpenStore drives the footer/index decode path — the part of the
// format that parses fully untrusted input — plus block reads and full lazy
// materialization on whatever opens successfully. Any input may fail with an
// error; none may panic. Seeds cover both format versions and, for v2, the
// structural hazards of the per-column payloads: truncated packs,
// out-of-range dictionary codes, RLE overruns, mis-cut views and FoR values
// beyond the exactness bound (each with a fixed-up block CRC so the
// corruption reaches decode instead of the checksum).
func FuzzOpenStore(f *testing.F) {
	valid := writeStoreRaw(f, buildTable(f, 90, 30))
	f.Add(valid)
	empty := &table.Table{
		Schema: table.MustSchema(table.Column{Name: "x", Kind: table.Numeric}),
		Dict:   table.NewDict(),
	}
	f.Add(writeStore(f, empty))
	f.Add([]byte{})
	f.Add([]byte(headerMagic))
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(append(truncated, valid[len(valid)-trailerSize:]...))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-trailerSize-10] ^= 0x41
	f.Add(flipped)

	// v2 seeds: a valid encoded store with raw, FoR, bit-packed and RLE
	// columns, plus targeted corruptions of each encoding's payload.
	encTbl := encFixture(f, 320, 100, 11)
	encValid := writeStore(f, encTbl)
	f.Add(encValid)
	numCols := encTbl.Schema.NumCols()
	for _, mutate := range []func(block []byte){
		func(block []byte) { // unknown tag
			block[v2ColOffsets(f, block, numCols)[0]] = 99
		},
		func(block []byte) { // payload length overruns the block
			off := v2ColOffsets(f, block, numCols)[0]
			binary.LittleEndian.PutUint32(block[off+1:], 1<<30)
		},
		func(block []byte) { // truncated FoR pack (declared width too wide)
			off := v2ColOffsets(f, block, numCols)[1]
			block[off+colHeaderSize+8]++
		},
		func(block []byte) { // truncated bit pack
			off := v2ColOffsets(f, block, numCols)[2]
			block[off+colHeaderSize]++
		},
		func(block []byte) { // out-of-range packed dictionary codes
			off := v2ColOffsets(f, block, numCols)[2]
			plen := int(binary.LittleEndian.Uint32(block[off+1:]))
			for i := off + colHeaderSize + 1; i < off+colHeaderSize+plen; i++ {
				block[i] = 0xff
			}
		},
		func(block []byte) { // RLE value out of dictionary range
			off := v2ColOffsets(f, block, numCols)[3]
			binary.LittleEndian.PutUint32(block[off+colHeaderSize+4:], 1<<31)
		},
		func(block []byte) { // RLE run overruns the row count
			off := v2ColOffsets(f, block, numCols)[3]
			runs := int(binary.LittleEndian.Uint32(block[off+colHeaderSize:]))
			lastEnd := off + colHeaderSize + 4 + 4*runs + 4*(runs-1)
			binary.LittleEndian.PutUint32(block[lastEnd:], 1<<20)
		},
		func(block []byte) { // RLE run count inconsistent with payload size
			off := v2ColOffsets(f, block, numCols)[3]
			binary.LittleEndian.PutUint32(block[off+colHeaderSize:], 1<<24)
		},
	} {
		f.Add(corruptBlock(f, encValid, 1, mutate))
	}
	// Columns are views into the block buffer: seed the places a view could
	// be cut wrong — a last payload that claims the reader's tail pad, a
	// block one byte short or long — and a FoR block whose base and width
	// pass but whose values leave the 2^53 exactness bound.
	f.Add(corruptBlock(f, encValid, 1, func(block []byte) {
		at := block[v2ColOffsets(f, block, numCols)[numCols-1]+1:]
		binary.LittleEndian.PutUint32(at, binary.LittleEndian.Uint32(at)+table.PackPad)
	}))
	f.Add(resizeBlock(f, encValid, 1, -1, func([]byte) {}))
	f.Add(resizeBlock(f, encValid, 1, 1, func([]byte) {}))
	f.Add(forBeyondBound(f, encValid, 1, numCols))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReaderAt(bytes.NewReader(data), int64(len(data)), Options{CacheBytes: 1 << 20})
		if err != nil {
			return
		}
		_ = r.NumRows()
		_ = r.TotalBytes()
		_ = r.EncodingStats()
		s := r.TableSchema()
		n := r.NumParts()
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			p, err := r.Read(i)
			if err != nil {
				continue
			}
			// Force lazy materialization of every column: decode of a block
			// that passed validation must never fail or read out of bounds,
			// and every produced code must resolve against the dictionary.
			for c := range s.Cols {
				if vals := p.NumCol(c); len(vals) > 0 {
					_ = vals[len(vals)-1]
				}
				if codes := p.CatCol(c); len(codes) > 0 {
					_ = r.TableDict().Value(codes[0])
					_ = r.TableDict().Value(codes[len(codes)-1])
				}
			}
		}
	})
}

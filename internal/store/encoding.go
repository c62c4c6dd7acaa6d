package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"ps3/internal/table"
)

// Format version 2: encoded column blocks. A v2 block is, per schema column
// in order:
//
//	[tag u8][payload length u32 LE][payload]
//
// with per-tag payloads:
//
//	tagRawNum   rows × float64 bits LE — the v1 numeric layout
//	tagRawCat   rows × code u32 LE — the v1 categorical layout
//	tagBitPack  [width u8][ceil(rows·width/8) packed bytes] — dictionary
//	            codes at the width of the block's largest code
//	tagRLE      [runs u32 LE][runs × value u32 LE][runs × cumulative end
//	            u32 LE] — runs cover [prevEnd, end), ends strictly
//	            increasing, last end == rows
//	tagFoR      [min float64 bits LE][width u8][packed deltas] — integral
//	            numerics as unsigned deltas from the block minimum
//
// The encoding is chosen per block per column by exact encoded-size
// comparison (see chooseNumeric/chooseCat), so the writer is deterministic:
// the same block bytes always produce the same file bytes. Blocks remain
// CRC-checked as a unit; the per-column payloads are additionally validated
// structurally at decode time (lengths, widths, run monotonicity, dictionary
// range) so that lazy materialization inside table.Partition can never fail.
const (
	formatVersionEncoded = 2

	tagRawNum  = 0
	tagRawCat  = 1
	tagBitPack = 2
	tagRLE     = 3
	tagFoR     = 4

	// colHeaderSize is the per-column [tag][length] prefix.
	colHeaderSize = 1 + 4
)

// maxExactInt is the largest magnitude (2^53) at which float64 represents
// every integer exactly — the applicability bound for frame-of-reference.
const maxExactInt = float64(1 << 53)

// ColHint carries pre-computed column statistics for one block, letting the
// encoding chooser skip scans whose outcome the stats already determine.
// Hints must be exact for the block (true min/max, true distinct count);
// they are only ever used to prune work, never to override the scan, so an
// absent hint yields the identical encoding choice.
type ColHint struct {
	// Min and Max are the column's exact value range within the block
	// (numeric columns), valid when HasRange is set.
	Min, Max float64
	HasRange bool
	// Distinct is the exact number of distinct dictionary codes within the
	// block (categorical columns), valid when HasDistinct is set. It lower-
	// bounds the RLE run count.
	Distinct    int
	HasDistinct bool
}

// appendPacked bit-packs rows values of the given width onto dst. get(r)
// must fit in width bits; width+7 must be <= 64 so each value lands with one
// 8-byte store.
func appendPacked(dst []byte, rows int, width uint8, get func(r int) uint64) []byte {
	n := (rows*int(width) + 7) / 8
	start := len(dst)
	// Work in a buffer padded for whole-word stores, then keep the payload.
	buf := append(dst, make([]byte, n+8)...)
	for r := 0; r < rows; r++ {
		bit := r * int(width)
		at := start + bit>>3
		cur := binary.LittleEndian.Uint64(buf[at:])
		binary.LittleEndian.PutUint64(buf[at:], cur|get(r)<<(bit&7))
	}
	return buf[:start+n]
}

// numPlan is the chooser's decision for a numeric column.
type numPlan struct {
	tag   uint8
	min   float64
	width uint8
}

// chooseNumeric picks the encoding for a numeric column: frame-of-reference
// when every value is an integral float64 within 2^53, none is −0, the delta
// range fits 53 bits, and the FoR payload is strictly smaller than raw; raw
// otherwise, so that every block reads back the bits it was written with.
// The hint, when present, can only rule FoR out
// early (non-integral or too-wide range), never rule it in, so hinted and
// unhinted choices match.
func chooseNumeric(vals []float64, hint ColHint, hintOK bool) numPlan {
	raw := numPlan{tag: tagRawNum}
	rows := len(vals)
	if rows == 0 {
		return raw
	}
	if hintOK && hint.HasRange && !forFeasible(hint.Min, hint.Max, rows) {
		return raw
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v != math.Trunc(v) || math.Abs(v) > maxExactInt || v == 0 && math.Signbit(v) {
			// Covers NaN and infinities: Trunc(NaN) != NaN, Abs(Inf) > 2^53;
			// −0 is integral, but its frame would decode it as +0.
			return raw
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if !forFeasible(min, max, rows) {
		return raw
	}
	return numPlan{tag: tagFoR, min: min, width: deltaWidth(min, max)}
}

// forFeasible reports whether a block with the given exact value range could
// profit from frame-of-reference encoding: integral bounds within 2^53, a
// delta range of at most 53 bits, and a packed payload strictly smaller
// than raw.
func forFeasible(min, max float64, rows int) bool {
	if min != math.Trunc(min) || max != math.Trunc(max) {
		return false
	}
	if math.Abs(min) > maxExactInt || math.Abs(max) > maxExactInt {
		return false
	}
	if max < min || max-min > maxExactInt {
		return false
	}
	w := deltaWidth(min, max)
	return forPayloadLen(rows, w) < 8*rows
}

// deltaWidth returns the packed bits per delta for the range [min, max].
func deltaWidth(min, max float64) uint8 {
	return uint8(bits.Len64(uint64(max - min)))
}

// forPayloadLen is the FoR payload size: base + width byte + packed deltas.
func forPayloadLen(rows int, width uint8) int {
	return 8 + 1 + (rows*int(width)+7)/8
}

// catPlan is the chooser's decision for a categorical column.
type catPlan struct {
	tag   uint8
	width uint8 // tagBitPack
	runs  int   // tagRLE
}

// chooseCat picks the encoding for a categorical column by exact payload
// size: raw (4·rows), bit-packed (width byte + packed codes), or RLE
// (4 + 8·runs), smallest wins with ties broken RLE > BitPack > raw. The
// distinct-count hint lower-bounds the run count and can only skip the
// run-counting pass when RLE provably cannot win or tie, so hinted and
// unhinted choices match.
func chooseCat(codes []uint32, hint ColHint, hintOK bool) catPlan {
	rows := len(codes)
	if rows == 0 {
		return catPlan{tag: tagRawCat}
	}
	var maxCode uint32
	for _, c := range codes {
		if c > maxCode {
			maxCode = c
		}
	}
	width := uint8(bits.Len32(maxCode))
	rawLen := 4 * rows
	bpLen := 1 + (rows*int(width)+7)/8

	best := catPlan{tag: tagRawCat}
	bestLen := rawLen
	if bpLen <= bestLen {
		best, bestLen = catPlan{tag: tagBitPack, width: width}, bpLen
	}
	countRuns := true
	if hintOK && hint.HasDistinct && rlePayloadLen(hint.Distinct) > bestLen {
		countRuns = false // runs >= distinct, so RLE cannot reach bestLen
	}
	if countRuns {
		runs := 1
		for r := 1; r < rows; r++ {
			if codes[r] != codes[r-1] {
				runs++
			}
		}
		if rleLen := rlePayloadLen(runs); rleLen <= bestLen {
			best = catPlan{tag: tagRLE, runs: runs}
		}
	}
	return best
}

// rlePayloadLen is the RLE payload size for the given run count.
func rlePayloadLen(runs int) int {
	return 4 + 8*runs
}

// appendColHeader writes one column's [tag][payload length] prefix.
func appendColHeader(dst []byte, tag uint8, payloadLen int) []byte {
	dst = append(dst, tag)
	return binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
}

// encodeBlockV2 appends partition p in the v2 tagged-column layout,
// consulting hint (when non-nil) to prune encoding-choice scans.
func encodeBlockV2(dst []byte, s *table.Schema, p *table.Partition, hint func(col int) (ColHint, bool)) []byte {
	rows := p.Rows()
	for c, col := range s.Cols {
		var h ColHint
		var hOK bool
		if hint != nil {
			h, hOK = hint(c)
		}
		if col.IsNumeric() {
			vals := p.NumCol(c)
			plan := chooseNumeric(vals, h, hOK)
			if plan.tag == tagRawNum {
				dst = appendColHeader(dst, tagRawNum, 8*rows)
				for _, v := range vals {
					dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
				}
				continue
			}
			dst = appendColHeader(dst, tagFoR, forPayloadLen(rows, plan.width))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(plan.min))
			dst = append(dst, plan.width)
			min := plan.min
			dst = appendPacked(dst, rows, plan.width, func(r int) uint64 {
				return uint64(vals[r] - min)
			})
			continue
		}
		codes := p.CatCol(c)
		plan := chooseCat(codes, h, hOK)
		switch plan.tag {
		case tagBitPack:
			dst = appendColHeader(dst, tagBitPack, 1+(rows*int(plan.width)+7)/8)
			dst = append(dst, plan.width)
			dst = appendPacked(dst, rows, plan.width, func(r int) uint64 {
				return uint64(codes[r])
			})
		case tagRLE:
			dst = appendColHeader(dst, tagRLE, rlePayloadLen(plan.runs))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(plan.runs))
			for r := 0; r < rows; r++ {
				if r == 0 || codes[r] != codes[r-1] {
					dst = binary.LittleEndian.AppendUint32(dst, codes[r])
				}
			}
			for r := 1; r <= rows; r++ {
				if r == rows || codes[r] != codes[r-1] {
					dst = binary.LittleEndian.AppendUint32(dst, uint32(r))
				}
			}
		default:
			dst = appendColHeader(dst, tagRawCat, 4*rows)
			for _, code := range codes {
				dst = binary.LittleEndian.AppendUint32(dst, code)
			}
		}
	}
	return dst
}

// decodeBlockV2 parses one v2 block into a partition, treating the bytes as
// untrusted input: every payload length, pack width, run structure and
// dictionary code is validated here so that the partition's lazy
// materialization is infallible. The partition keeps data: bit-packed, FoR
// and raw numeric columns are views into it (table.NewBitPackedCol and its
// siblings copy nothing), so the caller must have finished with the bytes —
// checksummed them — and must never write them again. data needs
// table.PackPad bytes of capacity beyond its length, which the views of
// packed columns may load but never interpret; a column fails to construct
// without them. ds (shared per reader) is charged when a column is later
// materialized.
func decodeBlockV2(data []byte, s *table.Schema, dictLen uint32, id, rows int, ds *table.DecodeStats) (*table.Partition, error) {
	num := make([][]float64, s.NumCols())
	cat := make([][]uint32, s.NumCols())
	enc := make([]*table.EncodedCol, s.NumCols())
	for c, col := range s.Cols {
		if len(data) < colHeaderSize {
			return nil, fmt.Errorf("store: partition %d column %q: block truncated at column header", id, col.Name)
		}
		tag := data[0]
		plen := int64(binary.LittleEndian.Uint32(data[1:]))
		data = data[colHeaderSize:]
		if plen > int64(len(data)) {
			return nil, fmt.Errorf("store: partition %d column %q: payload of %d bytes overruns block (%d left)",
				id, col.Name, plen, len(data))
		}
		payload := data[:plen]
		data = data[plen:]

		var err error
		enc[c], cat[c], err = decodeColumn(tag, payload, col, dictLen, rows)
		if err != nil {
			return nil, fmt.Errorf("store: partition %d column %q: %w", id, col.Name, err)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("store: partition %d: %d trailing bytes after last column", id, len(data))
	}
	return table.MakeEncodedPartition(s, id, rows, num, cat, enc, ds)
}

// maxCodeInDict reports whether every code of a categorical encoding
// resolves against a dictionary of dictLen values, and the largest code when
// one does not. A width-bit code is at most Mask(), so a bit-packed column
// whose mask is inside the dictionary is in range whatever its bytes say and
// is not scanned: the answer is the unconditional scan's on every input,
// and the usual block (a few bits per code, a dictionary shared by the whole
// table) skips the scan.
func maxCodeInDict(e *table.EncodedCol, dictLen uint32) (uint32, bool) {
	if e.Rows == 0 || (e.Kind == table.EncBitPack && e.Mask() < uint64(dictLen)) {
		return 0, true
	}
	max := e.MaxCode()
	return max, max < dictLen
}

// decodeColumn validates one tagged column payload. Only raw categorical
// codes are decoded (and range-checked) here; every other tag returns a
// validated EncodedCol over payload.
func decodeColumn(tag uint8, payload []byte, col table.Column, dictLen uint32, rows int) (*table.EncodedCol, []uint32, error) {
	switch tag {
	case tagRawNum:
		if !col.IsNumeric() {
			return nil, nil, fmt.Errorf("numeric payload on a %s column", col.Kind)
		}
		e, err := table.NewRawNumCol(rows, payload)
		return e, nil, err

	case tagRawCat:
		if col.IsNumeric() {
			return nil, nil, fmt.Errorf("categorical payload on a %s column", col.Kind)
		}
		if int64(len(payload)) != 4*int64(rows) {
			return nil, nil, fmt.Errorf("raw categorical payload is %d bytes, %d rows need %d", len(payload), rows, 4*rows)
		}
		codes := make([]uint32, rows)
		for r := range codes {
			code := binary.LittleEndian.Uint32(payload[4*r:])
			if code >= dictLen {
				return nil, nil, fmt.Errorf("row %d has dictionary code %d, dictionary holds %d values", r, code, dictLen)
			}
			codes[r] = code
		}
		return nil, codes, nil

	case tagBitPack:
		if col.IsNumeric() {
			return nil, nil, fmt.Errorf("bit-packed codes on a %s column", col.Kind)
		}
		if len(payload) < 1 {
			return nil, nil, fmt.Errorf("bit-packed payload missing width byte")
		}
		e, err := table.NewBitPackedCol(rows, payload[0], payload[1:])
		if err != nil {
			return nil, nil, err
		}
		if max, ok := maxCodeInDict(e, dictLen); !ok {
			return nil, nil, fmt.Errorf("packed dictionary code %d out of range, dictionary holds %d values", max, dictLen)
		}
		return e, nil, nil

	case tagRLE:
		if col.IsNumeric() {
			return nil, nil, fmt.Errorf("RLE codes on a %s column", col.Kind)
		}
		if len(payload) < 4 {
			return nil, nil, fmt.Errorf("RLE payload missing run count")
		}
		runs := int64(binary.LittleEndian.Uint32(payload))
		if want := 4 + 8*runs; int64(len(payload)) != want {
			return nil, nil, fmt.Errorf("RLE payload is %d bytes, %d runs need %d", len(payload), runs, want)
		}
		vals := make([]uint32, runs)
		ends := make([]int32, runs)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(payload[4+4*i:])
		}
		endBase := 4 + 4*runs
		for i := range ends {
			end := binary.LittleEndian.Uint32(payload[endBase+4*int64(i):])
			if end > uint32(rows) {
				return nil, nil, fmt.Errorf("RLE run %d ends at %d, column has %d rows", i, end, rows)
			}
			ends[i] = int32(end)
		}
		e, err := table.NewRLECol(rows, vals, ends)
		if err != nil {
			return nil, nil, err
		}
		if max, ok := maxCodeInDict(e, dictLen); !ok {
			return nil, nil, fmt.Errorf("RLE dictionary code %d out of range, dictionary holds %d values", max, dictLen)
		}
		return e, nil, nil

	case tagFoR:
		if !col.IsNumeric() {
			return nil, nil, fmt.Errorf("frame-of-reference payload on a %s column", col.Kind)
		}
		if len(payload) < 9 {
			return nil, nil, fmt.Errorf("FoR payload missing base and width")
		}
		min := math.Float64frombits(binary.LittleEndian.Uint64(payload))
		e, err := table.NewFoRCol(rows, min, payload[8], payload[9:])
		return e, nil, err

	default:
		return nil, nil, fmt.Errorf("unknown column encoding tag %d", tag)
	}
}

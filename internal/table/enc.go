package table

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Lightweight per-column block encodings. A partition loaded from an encoded
// store block keeps its columns in their encoded form. The kernels in
// internal/query evaluate on that form directly when they are the first to
// read a column's values — predicate, aggregate and GROUP BY reads alike
// (Partition.FirstTouch) — so a column is decoded (NumCol/CatCol, memoized)
// only once a second scan reads it: a partition evicted after one scan never
// pays for a decoded copy, a resident one gets it on its second scan. What
// reads no row — a clause a frame-of-reference header settles, a run-length
// clause evaluated run by run — does not count as a read.
//
// A column loaded from a store block does not own its bytes: Packed is a view
// into the block buffer the reader checksummed, which every column of the
// partition shares and nothing writes after the checksum. Three encodings
// cover the cheap, exactness-preserving wins, and a fourth keeps an
// incompressible numeric column as the bytes it arrived in:
//
//   - EncBitPack (categorical): dictionary codes bit-packed at the width of
//     the block's largest code. Dictionary codes are dense, so most blocks
//     need a handful of bits instead of 32.
//   - EncRLE (categorical): run-length (value, cumulative end) pairs, chosen
//     when the block is sorted or clustered. Runs let kernels emit whole
//     selection-vector spans without touching rows.
//   - EncFoR (numeric): frame-of-reference + bit-packing. Applicable when
//     every value is an integer with |v| <= 2^53 and the block's range fits
//     53 bits: each value is stored as an unsigned delta from the block
//     minimum. Under those bounds v - min, min + delta and the packed
//     comparison constants are all exact in float64, so decoding is
//     bit-identical to the raw path by construction.
//   - EncRawNum (numeric): the raw layout itself, rows little-endian float64
//     bit patterns. Not a compression — it exists so that loading a block
//     decodes no numeric column the query never names. Kernels read it in
//     place (Float) on the first touch; any 8 bytes are a float64, so neither
//     that nor the later materialization can fail.
//
// Exactness argument for EncFoR: min and every value are integers of
// magnitude <= 2^53, so they are exactly representable; the delta v - min is
// an integer in [0, 2^53], also exactly representable, and IEEE-754
// subtraction of exactly-representable operands with a representable exact
// result is exact. The same holds for min + delta on decode. There is no
// rounding anywhere, which is what lets the raw path remain the frozen
// bit-identity reference.

// EncKind tags an encoded column's representation.
type EncKind uint8

const (
	// EncBitPack stores categorical dictionary codes bit-packed at a fixed
	// width.
	EncBitPack EncKind = iota + 1
	// EncRLE stores categorical codes as (value, cumulative end) runs.
	EncRLE
	// EncFoR stores integral numeric values as bit-packed deltas from the
	// block minimum (frame of reference).
	EncFoR
	// EncRawNum stores numeric values as their little-endian float64 bit
	// patterns, undecoded until first touched.
	EncRawNum
)

func (k EncKind) String() string {
	switch k {
	case EncBitPack:
		return "bitpack"
	case EncRLE:
		return "rle"
	case EncFoR:
		return "for"
	case EncRawNum:
		return "rawnum"
	default:
		return fmt.Sprintf("EncKind(%d)", uint8(k))
	}
}

// MaxPackWidth bounds the bits-per-value of packed encodings so that every
// extraction is a single aligned-enough 8-byte load: width + 7 shift bits
// must fit in 64.
const MaxPackWidth = 56

// PackPad is the number of readable bytes a packed payload needs after its
// last byte, so At can always load 8 bytes starting at any payload byte. The
// bytes need not be zero: At masks off everything beyond the value's width,
// so inside a block they are simply whatever follows — the next column's
// header, or the pad the reader allocates past the block's end.
const PackPad = 8

// EncodedCol is one column of a partition in encoded form. Values are
// immutable after construction; all methods are safe for concurrent use.
type EncodedCol struct {
	// Kind selects the representation.
	Kind EncKind
	// Rows is the column's row count.
	Rows int
	// Width is the bits per packed value (EncBitPack, EncFoR). May be 0 for
	// a constant column (all deltas / codes are 0).
	Width uint8
	// Min is the frame-of-reference base (EncFoR only), an integer with
	// |Min| <= 2^53.
	Min float64
	// Packed holds the bit-packed values (EncBitPack, EncFoR) followed by
	// PackPad bytes of arbitrary content, so per-row extraction is one
	// 8-byte load; for EncRawNum it holds exactly the 8·Rows value bytes.
	// The slice aliases the buffer the constructor was given — for a store
	// block, the one buffer all of the partition's columns share — and must
	// never be written.
	Packed []byte
	// RunVals / RunEnds are the RLE runs (EncRLE): RunVals[i] repeats for
	// rows [RunEnds[i-1], RunEnds[i]). RunEnds is strictly increasing and
	// ends at Rows.
	RunVals []uint32
	RunEnds []int32

	// mask selects Width bits.
	mask uint64
	// encBytes is the wire-equivalent footprint used for cache accounting.
	encBytes int
}

// packedLen returns the payload byte length of rows values at width bits.
func packedLen(rows int, width uint8) int {
	return (rows*int(width) + 7) / 8
}

// packedView validates a packed payload and returns the view At loads
// through: the payload plus the PackPad bytes after it, capacity capped
// there so nothing reached through the column extends into a neighbour.
// packed must hold exactly packedLen(rows, width) bytes and have PackPad
// bytes of capacity beyond them; nothing is copied.
func packedView(what string, rows int, width uint8, packed []byte) ([]byte, error) {
	want := packedLen(rows, width)
	if len(packed) != want {
		return nil, fmt.Errorf("table: %s payload is %d bytes, %d rows at %d bits need %d",
			what, len(packed), rows, width, want)
	}
	if cap(packed)-want < PackPad {
		return nil, fmt.Errorf("table: %s payload has %d bytes of capacity after it, extraction needs %d",
			what, cap(packed)-want, PackPad)
	}
	return packed[: want+PackPad : want+PackPad], nil
}

// NewBitPackedCol builds a bit-packed categorical column over packed, which
// it keeps: exactly packedLen(rows, width) payload bytes, with at least
// PackPad bytes of capacity after them that At may load and mask off.
func NewBitPackedCol(rows int, width uint8, packed []byte) (*EncodedCol, error) {
	if rows < 0 {
		return nil, fmt.Errorf("table: bit-packed column with %d rows", rows)
	}
	if width > 32 {
		return nil, fmt.Errorf("table: bit-packed dictionary codes need width <= 32, got %d", width)
	}
	view, err := packedView("bit-packed", rows, width, packed)
	if err != nil {
		return nil, err
	}
	return &EncodedCol{
		Kind:     EncBitPack,
		Rows:     rows,
		Width:    width,
		Packed:   view,
		mask:     widthMask(width),
		encBytes: 1 + len(packed),
	}, nil
}

// NewRLECol builds a run-length categorical column. ends must be strictly
// increasing and end at rows; vals and ends must have equal length (zero
// only when rows is zero). Both slices are retained.
func NewRLECol(rows int, vals []uint32, ends []int32) (*EncodedCol, error) {
	if rows < 0 {
		return nil, fmt.Errorf("table: RLE column with %d rows", rows)
	}
	if len(vals) != len(ends) {
		return nil, fmt.Errorf("table: RLE column has %d values for %d run ends", len(vals), len(ends))
	}
	if rows == 0 {
		if len(ends) != 0 {
			return nil, fmt.Errorf("table: RLE column has %d runs for 0 rows", len(ends))
		}
	} else if len(ends) == 0 {
		return nil, fmt.Errorf("table: RLE column has no runs for %d rows", rows)
	}
	prev := int32(0)
	for i, end := range ends {
		if end <= prev {
			return nil, fmt.Errorf("table: RLE run %d ends at %d, not after %d", i, end, prev)
		}
		prev = end
	}
	if rows > 0 && int(prev) != rows {
		return nil, fmt.Errorf("table: RLE runs cover %d rows, column has %d", prev, rows)
	}
	return &EncodedCol{
		Kind:     EncRLE,
		Rows:     rows,
		RunVals:  vals,
		RunEnds:  ends,
		encBytes: 4 + 8*len(vals),
	}, nil
}

// NewFoRCol builds a frame-of-reference numeric column over packed, which it
// keeps under the same terms as NewBitPackedCol. min must be an integer with
// |min| <= 2^53, width <= 53 and every min + delta <= 2^53, so that every
// delta and reconstruction is exact.
func NewFoRCol(rows int, min float64, width uint8, packed []byte) (*EncodedCol, error) {
	if rows < 0 {
		return nil, fmt.Errorf("table: FoR column with %d rows", rows)
	}
	if width > 53 {
		return nil, fmt.Errorf("table: FoR width %d exceeds the 53-bit exactness bound", width)
	}
	if min != math.Trunc(min) || math.Abs(min) > maxExactInt {
		return nil, fmt.Errorf("table: FoR base %v is not an integer within 2^53", min)
	}
	view, err := packedView("FoR", rows, width, packed)
	if err != nil {
		return nil, err
	}
	e := &EncodedCol{
		Kind:     EncFoR,
		Rows:     rows,
		Width:    width,
		Min:      min,
		Packed:   view,
		mask:     widthMask(width),
		encBytes: 1 + 8 + len(packed),
	}
	// The largest value must stay exact as well: past 2^53 min + delta
	// rounds, and the materialized column would disagree with the kernels
	// that compare in delta space. Integer arithmetic, because the float sum
	// is what rounds. Every delta is <= mask, so the scan for the largest
	// one runs only when mask itself crosses the bound — the same accept /
	// reject decision as scanning every block, which a writer's block
	// (range-checked before it is packed) never pays.
	if base := int64(min); base+int64(e.mask) > maxExactInt {
		if top := base + int64(e.maxPacked()); top > maxExactInt {
			return nil, fmt.Errorf("table: FoR base %v plus delta %d exceeds the 2^53 exactness bound", min, top-base)
		}
	}
	return e, nil
}

// NewRawNumCol builds a raw numeric column over raw, which it keeps: exactly
// rows little-endian float64 bit patterns.
func NewRawNumCol(rows int, raw []byte) (*EncodedCol, error) {
	if rows < 0 {
		return nil, fmt.Errorf("table: raw numeric column with %d rows", rows)
	}
	if int64(len(raw)) != 8*int64(rows) {
		return nil, fmt.Errorf("table: raw numeric payload is %d bytes, %d rows need %d", len(raw), rows, 8*int64(rows))
	}
	return &EncodedCol{
		Kind:     EncRawNum,
		Rows:     rows,
		Packed:   raw[:len(raw):len(raw)],
		encBytes: len(raw),
	}, nil
}

// maxExactInt is 2^53, the largest magnitude at which float64 represents
// every integer exactly.
const maxExactInt = 1 << 53

// widthMask returns a mask of width low bits.
func widthMask(width uint8) uint64 {
	if width == 0 {
		return 0
	}
	return math.MaxUint64 >> (64 - uint(width))
}

// IsNumeric reports whether the encoding carries numeric (float64) values.
func (e *EncodedCol) IsNumeric() bool { return e.Kind == EncFoR || e.Kind == EncRawNum }

// EncodedBytes returns the wire-equivalent footprint of the encoded column —
// what the cache charges for keeping it resident.
func (e *EncodedCol) EncodedBytes() int { return e.encBytes }

// Mask returns the packed-value mask ((1 << Width) - 1).
func (e *EncodedCol) Mask() uint64 { return e.mask }

// At extracts the packed value of row r (EncBitPack: the dictionary code;
// EncFoR: the delta from Min). r must be in [0, Rows).
func (e *EncodedCol) At(r int) uint64 {
	bit := uint64(r) * uint64(e.Width)
	word := binary.LittleEndian.Uint64(e.Packed[bit>>3:])
	return (word >> (bit & 7)) & e.mask
}

// Float reads row r of an EncRawNum column in place. r must be in [0, Rows).
func (e *EncodedCol) Float(r int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(e.Packed[8*r:]))
}

// DecodeNum materializes an EncFoR or EncRawNum column as float64 values. A
// FoR value is Min + float64(At(r)): kernels that read the column encoded
// compute that same expression, which is what keeps them bit-identical.
func (e *EncodedCol) DecodeNum() []float64 {
	return e.DecodeNumInto(make([]float64, e.Rows))
}

// DecodeNumInto is DecodeNum into out, whose Rows elements it overwrites.
func (e *EncodedCol) DecodeNumInto(out []float64) []float64 {
	if e.Kind == EncRawNum {
		for r := range out {
			out[r] = e.Float(r)
		}
		return out
	}
	min := e.Min
	for r := range out {
		out[r] = min + float64(e.At(r))
	}
	return out
}

// DecodeCat materializes an EncBitPack or EncRLE column as dictionary codes.
func (e *EncodedCol) DecodeCat() []uint32 {
	return e.DecodeCatInto(make([]uint32, e.Rows))
}

// DecodeCatInto is DecodeCat into out, whose Rows elements it overwrites.
func (e *EncodedCol) DecodeCatInto(out []uint32) []uint32 {
	if e.Kind == EncRLE {
		start := int32(0)
		for i, v := range e.RunVals {
			end := e.RunEnds[i]
			for r := start; r < end; r++ {
				out[r] = v
			}
			start = end
		}
		return out
	}
	for r := range out {
		out[r] = uint32(e.At(r))
	}
	return out
}

// MaxCode returns the largest dictionary code a categorical encoding can
// yield, scanning the packed values (EncBitPack) or runs (EncRLE). Decoders
// use it to validate untrusted blocks against the dictionary without
// materializing the column.
func (e *EncodedCol) MaxCode() uint32 {
	var max uint32
	switch e.Kind {
	case EncRLE:
		for _, v := range e.RunVals {
			if v > max {
				max = v
			}
		}
	case EncBitPack:
		max = uint32(e.maxPacked())
	}
	return max
}

// maxPacked returns the largest packed value (0 for an empty column).
func (e *EncodedCol) maxPacked() uint64 {
	var max uint64
	for r := 0; r < e.Rows; r++ {
		if v := e.At(r); v > max {
			max = v
		}
	}
	return max
}

// DecodeStats counts lazy column materializations — the decode work the
// encoded-space kernels exist to avoid. A store reader shares one across
// every partition it serves.
type DecodeStats struct {
	cols  atomic.Int64
	bytes atomic.Int64
}

// Add records one column materialization of the given decoded size.
func (d *DecodeStats) Add(bytes int) {
	d.cols.Add(1)
	d.bytes.Add(int64(bytes))
}

// Snapshot returns the materialized column count and decoded bytes.
func (d *DecodeStats) Snapshot() (cols, bytes int64) {
	return d.cols.Load(), d.bytes.Load()
}

// lazyCol memoizes one encoded column's materialization. The decoded slice
// is written exactly once inside the sync.Once, so concurrent NumCol/CatCol
// calls are race-free. touched is the admission rule of that memo: set by
// the first read of the column's values, whichever form it took (see
// Partition.FirstTouch).
type lazyCol struct {
	once    sync.Once
	touched atomic.Bool
	num     []float64
	cat     []uint32
}

// MakeEncodedPartition assembles a partition whose columns are a mix of
// decoded slices and encoded columns: the decode path for store blocks that
// keep compressible columns packed. For each schema column exactly one of
// {num[c], cat[c], enc[c]} must be populated, on the side matching the
// column kind, covering exactly rows values. Encoded payloads must already
// be validated (codes in dictionary range): materialization through
// NumCol/CatCol cannot fail. ds, when non-nil, is charged for every lazy
// materialization.
func MakeEncodedPartition(s *Schema, id, rows int, num [][]float64, cat [][]uint32, enc []*EncodedCol, ds *DecodeStats) (*Partition, error) {
	if rows < 0 {
		return nil, fmt.Errorf("table: partition %d has negative row count %d", id, rows)
	}
	if len(num) != s.NumCols() || len(cat) != s.NumCols() || len(enc) != s.NumCols() {
		return nil, fmt.Errorf("table: partition %d has %d/%d/%d column entries, schema has %d",
			id, len(num), len(cat), len(enc), s.NumCols())
	}
	anyEnc := false
	for c, col := range s.Cols {
		e := enc[c]
		if e != nil {
			if len(num[c]) != 0 || len(cat[c]) != 0 {
				return nil, fmt.Errorf("table: partition %d column %q is both encoded and decoded", id, col.Name)
			}
			if e.IsNumeric() != col.IsNumeric() {
				return nil, fmt.Errorf("table: partition %d column %q: %s encoding on a %s column",
					id, col.Name, e.Kind, col.Kind)
			}
			if e.Rows != rows {
				return nil, fmt.Errorf("table: partition %d column %q encodes %d rows, partition has %d",
					id, col.Name, e.Rows, rows)
			}
			anyEnc = true
			continue
		}
		want, got := rows, len(num[c])
		other := len(cat[c])
		if !col.IsNumeric() {
			got, other = len(cat[c]), len(num[c])
		}
		if got != want || other != 0 {
			return nil, fmt.Errorf("table: partition %d column %q has %d values for %d rows",
				id, col.Name, got, want)
		}
	}
	p := &Partition{ID: id, Num: num, Cat: cat, rows: rows}
	if anyEnc {
		p.enc = enc
		p.lazy = make([]lazyCol, s.NumCols())
		p.decStats = ds
	}
	return p, nil
}

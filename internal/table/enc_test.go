package table

import (
	"encoding/binary"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// packValues bit-packs vals at the given width, mirroring the store writer's
// layout so constructor round-trips can be checked against known inputs. The
// payload it returns has PackPad bytes of capacity after it, as the
// constructors require.
func packValues(vals []uint64, width uint8) []byte {
	n := packedLen(len(vals), width)
	buf := make([]byte, n+PackPad)
	for r, v := range vals {
		bit := r * int(width)
		at := bit >> 3
		cur := uint64(0)
		for i := 0; i < 8; i++ {
			cur |= uint64(buf[at+i]) << (8 * i)
		}
		cur |= v << (bit & 7)
		for i := 0; i < 8; i++ {
			buf[at+i] = byte(cur >> (8 * i))
		}
	}
	return buf[:n]
}

func TestBitPackedColRoundTrip(t *testing.T) {
	vals := []uint64{0, 5, 3, 7, 7, 1, 0, 6, 2}
	e, err := NewBitPackedCol(len(vals), 3, packValues(vals, 3))
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range vals {
		if got := e.At(r); got != v {
			t.Fatalf("At(%d) = %d, want %d", r, got, v)
		}
	}
	codes := e.DecodeCat()
	for r, v := range vals {
		if codes[r] != uint32(v) {
			t.Fatalf("DecodeCat[%d] = %d, want %d", r, codes[r], v)
		}
	}
	if got := e.MaxCode(); got != 7 {
		t.Fatalf("MaxCode = %d, want 7", got)
	}
	if want := 1 + packedLen(len(vals), 3); e.EncodedBytes() != want {
		t.Fatalf("EncodedBytes = %d, want %d", e.EncodedBytes(), want)
	}
}

// TestPackedColsAreViews pins the ownership rule: a packed or raw numeric
// column keeps the slice it was built over — no copy — and caps its view at
// what extraction may load, so nothing reached through the column extends
// into whatever follows it in a shared buffer.
func TestPackedColsAreViews(t *testing.T) {
	packed := packValues([]uint64{1, 2, 3, 0, 3, 1, 2, 2}, 2) // 2 payload bytes
	bp, err := NewBitPackedCol(8, 2, packed)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFoRCol(8, -5, 2, packed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*EncodedCol{bp, fr} {
		if &e.Packed[0] != &packed[0] {
			t.Fatalf("%s column copied its payload", e.Kind)
		}
		if want := len(packed) + PackPad; len(e.Packed) != want || cap(e.Packed) != want {
			t.Fatalf("%s view is len %d cap %d, want both %d", e.Kind, len(e.Packed), cap(e.Packed), want)
		}
	}
	// The bytes after a payload are loaded and masked off, never interpreted:
	// filling them changes no value.
	want := bp.DecodeCat()
	pad := packed[len(packed) : len(packed)+PackPad]
	for i := range pad {
		pad[i] = 0xff
	}
	for r, v := range bp.DecodeCat() {
		if v != want[r] {
			t.Fatalf("row %d reads %d with a dirty pad, %d with a clean one", r, v, want[r])
		}
	}

	raw := make([]byte, 3*8, 3*8+5)
	vals := []float64{1.5, math.Inf(-1), math.Float64frombits(0x7ff8_0000_dead_beef)} // a NaN payload survives too
	for r, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*r:], math.Float64bits(v))
	}
	rn, err := NewRawNumCol(3, raw)
	if err != nil {
		t.Fatal(err)
	}
	if &rn.Packed[0] != &raw[0] || cap(rn.Packed) != len(raw) {
		t.Fatalf("raw numeric view: cap %d over %d value bytes", cap(rn.Packed), len(raw))
	}
	if !rn.IsNumeric() || rn.EncodedBytes() != len(raw) {
		t.Fatalf("raw numeric column: numeric %v, %d encoded bytes, want true and %d", rn.IsNumeric(), rn.EncodedBytes(), len(raw))
	}
	for r, got := range rn.DecodeNum() {
		if math.Float64bits(got) != math.Float64bits(vals[r]) {
			t.Fatalf("DecodeNum[%d] = %x, want %x", r, math.Float64bits(got), math.Float64bits(vals[r]))
		}
	}
	if _, err := NewRawNumCol(3, raw[:23]); err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("short raw numeric payload: %v", err)
	}
	if e, err := NewRawNumCol(0, nil); err != nil || len(e.DecodeNum()) != 0 {
		t.Fatalf("empty raw numeric column: %v", err)
	}
}

func TestBitPackedColZeroWidth(t *testing.T) {
	// A constant-zero column packs at width 0: no payload at all, only the
	// bytes extraction loads and masks to nothing.
	e, err := NewBitPackedCol(100, 0, make([]byte, 0, PackPad))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 100; r++ {
		if e.At(r) != 0 {
			t.Fatalf("At(%d) = %d, want 0", r, e.At(r))
		}
	}
	if e.MaxCode() != 0 {
		t.Fatalf("MaxCode = %d, want 0", e.MaxCode())
	}
}

func TestBitPackedColRejects(t *testing.T) {
	cases := []struct {
		name   string
		rows   int
		width  uint8
		packed []byte
		msg    string
	}{
		{"negative rows", -1, 4, nil, "rows"},
		{"width over 32", 4, 33, make([]byte, 17), "width <= 32"},
		{"payload too short", 8, 8, make([]byte, 7), "payload"},
		{"payload too long", 8, 8, make([]byte, 9), "payload"},
		{"nothing readable after the payload", 8, 8, make([]byte, 8, 8+PackPad-1), "capacity"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewBitPackedCol(c.rows, c.width, c.packed)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("error %q does not mention %q", err, c.msg)
			}
		})
	}
}

func TestRLEColRoundTrip(t *testing.T) {
	// codes: 4 4 4 9 2 2
	e, err := NewRLECol(6, []uint32{4, 9, 2}, []int32{3, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{4, 4, 4, 9, 2, 2}
	got := e.DecodeCat()
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("DecodeCat[%d] = %d, want %d", r, got[r], want[r])
		}
	}
	if e.MaxCode() != 9 {
		t.Fatalf("MaxCode = %d, want 9", e.MaxCode())
	}
	if want := 4 + 8*3; e.EncodedBytes() != want {
		t.Fatalf("EncodedBytes = %d, want %d", e.EncodedBytes(), want)
	}
}

func TestRLEColRejects(t *testing.T) {
	cases := []struct {
		name string
		rows int
		vals []uint32
		ends []int32
		msg  string
	}{
		{"negative rows", -1, nil, nil, "rows"},
		{"length mismatch", 6, []uint32{1, 2}, []int32{6}, "values for"},
		{"runs on empty column", 0, []uint32{1}, []int32{1}, "runs for 0 rows"},
		{"no runs", 6, nil, nil, "no runs"},
		{"non-increasing ends", 6, []uint32{1, 2, 3}, []int32{3, 3, 6}, "not after"},
		{"zero first end", 6, []uint32{1, 2}, []int32{0, 6}, "not after"},
		{"runs underrun rows", 6, []uint32{1, 2}, []int32{2, 5}, "cover"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewRLECol(c.rows, c.vals, c.ends)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("error %q does not mention %q", err, c.msg)
			}
		})
	}
}

func TestFoRColRoundTrip(t *testing.T) {
	// Values 1000 1001 1000 1017 1004: min 1000, deltas fit 5 bits.
	deltas := []uint64{0, 1, 0, 17, 4}
	e, err := NewFoRCol(len(deltas), 1000, 5, packValues(deltas, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsNumeric() {
		t.Fatal("FoR column must report numeric")
	}
	want := []float64{1000, 1001, 1000, 1017, 1004}
	got := e.DecodeNum()
	for r := range want {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Fatalf("DecodeNum[%d] = %v, want %v", r, got[r], want[r])
		}
	}
}

// TestFoRColExactAtBounds pins the exactness argument at its extremes: a
// negative base, a 53-bit delta range, and values at ±2^53 all decode
// bit-identically.
func TestFoRColExactAtBounds(t *testing.T) {
	min := -float64(1 << 53)
	deltas := []uint64{0, 1, 1<<53 - 1, 1 << 53}
	// width 54 would break the bound; 1<<53 needs 54 bits, so drop it.
	deltas = deltas[:3]
	e, err := NewFoRCol(len(deltas), min, 53, packValues(deltas, 53))
	if err != nil {
		t.Fatal(err)
	}
	for r, d := range deltas {
		want := min + float64(d)
		if got := min + float64(e.At(r)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: %v, want %v", r, got, want)
		}
	}
	// The bound is on the values present, not on what the width could hold:
	// a mask that crosses 2^53 over deltas that do not is a legitimate block.
	for _, c := range []struct {
		min    float64
		width  uint8
		deltas []uint64
	}{
		{1 << 53, 2, []uint64{0, 0, 0}},
		{1, 53, []uint64{7, 1<<53 - 1}},
		{1<<53 - 3, 2, []uint64{3, 0}},
	} {
		e, err := NewFoRCol(len(c.deltas), c.min, c.width, packValues(c.deltas, c.width))
		if err != nil {
			t.Fatalf("min %v width %d deltas %v: %v", c.min, c.width, c.deltas, err)
		}
		for r, got := range e.DecodeNum() {
			if want := float64(int64(c.min) + int64(c.deltas[r])); got != want {
				t.Fatalf("min %v row %d decodes to %v, want %v", c.min, r, got, want)
			}
		}
	}
}

func TestFoRColRejects(t *testing.T) {
	cases := []struct {
		name   string
		rows   int
		min    float64
		width  uint8
		packed []byte
		msg    string
	}{
		{"negative rows", -1, 0, 0, nil, "rows"},
		{"width over 53", 2, 0, 54, make([]byte, 14), "53-bit"},
		{"fractional base", 2, 1.5, 4, make([]byte, 1), "integer"},
		{"base beyond 2^53", 2, float64(1 << 54), 4, make([]byte, 1), "integer"},
		{"NaN base", 2, math.NaN(), 4, make([]byte, 1), "integer"},
		{"payload too short", 8, 0, 8, make([]byte, 7), "payload"},
		{"nothing readable after the payload", 8, 0, 8, make([]byte, 8), "capacity"},
		// The largest value must stay exact too, and the check must not
		// itself round: 2^53 + 1 is 2^53 in float64.
		{"top value beyond 2^53", 2, 1 << 53, 2, packValues([]uint64{0, 1}, 2), "exactness bound"},
		{"top value beyond 2^53 by one bit", 2, 1 << 53, 1, packValues([]uint64{0, 1}, 1), "exactness bound"},
		{"top value beyond 2^53 at full width", 2, 5, 53, packValues([]uint64{0, 1<<53 - 1}, 53), "exactness bound"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewFoRCol(c.rows, c.min, c.width, c.packed)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("error %q does not mention %q", err, c.msg)
			}
		})
	}
}

func encTestSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Column{Name: "n", Kind: Numeric},
		Column{Name: "c", Kind: Categorical},
	)
}

func TestMakeEncodedPartitionRejects(t *testing.T) {
	s := encTestSchema(t)
	forCol, err := NewFoRCol(4, 0, 2, packValues([]uint64{0, 1, 2, 3}, 2))
	if err != nil {
		t.Fatal(err)
	}
	bpCol, err := NewBitPackedCol(4, 2, packValues([]uint64{3, 0, 1, 2}, 2))
	if err != nil {
		t.Fatal(err)
	}
	shortBP, err := NewBitPackedCol(3, 2, packValues([]uint64{0, 1, 2}, 2))
	if err != nil {
		t.Fatal(err)
	}
	nums := []float64{1, 2, 3, 4}
	codes := []uint32{0, 1, 0, 1}

	cases := []struct {
		name string
		num  [][]float64
		cat  [][]uint32
		enc  []*EncodedCol
		msg  string
	}{
		{"wrong column count", [][]float64{nums}, [][]uint32{nil}, []*EncodedCol{nil}, "column entries"},
		{"both encoded and decoded", [][]float64{nums, nil}, [][]uint32{nil, nil},
			[]*EncodedCol{forCol, bpCol}, "both encoded and decoded"},
		{"numeric encoding on cat column", [][]float64{nums, nil}, [][]uint32{nil, nil},
			[]*EncodedCol{nil, forCol}, "for encoding on a categorical"},
		{"cat encoding on numeric column", [][]float64{nil, nil}, [][]uint32{nil, codes},
			[]*EncodedCol{bpCol, nil}, "bitpack encoding on a numeric"},
		{"row count mismatch", [][]float64{nums, nil}, [][]uint32{nil, nil},
			[]*EncodedCol{nil, shortBP}, "encodes 3 rows"},
		{"decoded slice too short", [][]float64{nums[:2], nil}, [][]uint32{nil, nil},
			[]*EncodedCol{nil, bpCol}, "2 values for 4 rows"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := MakeEncodedPartition(s, 0, 4, c.num, c.cat, c.enc, nil)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("error %q does not mention %q", err, c.msg)
			}
		})
	}
}

// TestLazyDecodeMemoizedAndCounted asserts the lazy-materialization contract:
// encoded columns stay nil in the public slices, NumCol/CatCol decode once
// (same backing slice on every call, DecodeStats charged once), and
// concurrent first touches are race-free.
func TestLazyDecodeMemoizedAndCounted(t *testing.T) {
	s := encTestSchema(t)
	const rows = 64
	deltas := make([]uint64, rows)
	codes := make([]uint64, rows)
	for r := range deltas {
		deltas[r] = uint64(r % 13)
		codes[r] = uint64(r % 5)
	}
	forCol, err := NewFoRCol(rows, 100, 4, packValues(deltas, 4))
	if err != nil {
		t.Fatal(err)
	}
	bpCol, err := NewBitPackedCol(rows, 3, packValues(codes, 3))
	if err != nil {
		t.Fatal(err)
	}
	var ds DecodeStats
	p, err := MakeEncodedPartition(s, 7, rows,
		[][]float64{nil, nil}, [][]uint32{nil, nil},
		[]*EncodedCol{forCol, bpCol}, &ds)
	if err != nil {
		t.Fatal(err)
	}
	if p.Decoded(0) || p.Decoded(1) {
		t.Fatal("encoded columns must stay nil in the public slices")
	}
	if p.EncCol(0) != forCol || p.EncCol(1) != bpCol {
		t.Fatal("EncCol must expose the encoded representation")
	}

	const goroutines = 8
	var wg sync.WaitGroup
	numViews := make([][]float64, goroutines)
	catViews := make([][]uint32, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			numViews[g] = p.NumCol(0)
			catViews[g] = p.CatCol(1)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if &numViews[g][0] != &numViews[0][0] || &catViews[g][0] != &catViews[0][0] {
			t.Fatal("concurrent decoders got distinct materializations")
		}
	}
	for r := 0; r < rows; r++ {
		if numViews[0][r] != 100+float64(r%13) {
			t.Fatalf("NumCol[%d] = %v", r, numViews[0][r])
		}
		if catViews[0][r] != uint32(r%5) {
			t.Fatalf("CatCol[%d] = %d", r, catViews[0][r])
		}
	}
	cols, bytes := ds.Snapshot()
	if cols != 2 {
		t.Fatalf("DecodeStats cols = %d, want 2 (one per column, memoized)", cols)
	}
	if want := int64(8*rows + 4*rows); bytes != want {
		t.Fatalf("DecodeStats bytes = %d, want %d", bytes, want)
	}
	if p.NumCol(1) != nil || p.CatCol(0) != nil {
		t.Fatal("wrong-kind accessors must return nil")
	}
	// SizeBytes reports the decoded footprint; EncodedSizeBytes the resident
	// wire footprint the cache charges.
	if want := 8*rows + 4*rows; p.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", p.SizeBytes(), want)
	}
	if want := forCol.EncodedBytes() + bpCol.EncodedBytes(); p.EncodedSizeBytes() != want {
		t.Fatalf("EncodedSizeBytes = %d, want %d", p.EncodedSizeBytes(), want)
	}
}

// TestFirstTouch pins the admission rule of the decode memo: the first
// reader of an encoded column's values is handed the encoded form and
// decodes nothing, every later one is sent to the memoized slice; a column
// NumCol/CatCol already materialized, and a decoded column, are never a
// first touch; and scans racing on the first touch may each get the encoded
// form but leave the column touched.
func TestFirstTouch(t *testing.T) {
	s := encTestSchema(t)
	const rows = 32
	vals := make([]uint64, rows)
	raw := make([]byte, 8*rows)
	for r := range vals {
		vals[r] = uint64(r % 7)
		binary.LittleEndian.PutUint64(raw[8*r:], math.Float64bits(float64(r)+0.5))
	}
	fresh := func(num *EncodedCol, ds *DecodeStats) *Partition {
		t.Helper()
		bp, err := NewBitPackedCol(rows, 3, packValues(vals, 3))
		if err != nil {
			t.Fatal(err)
		}
		p, err := MakeEncodedPartition(s, 0, rows, [][]float64{nil, nil}, [][]uint32{nil, nil}, []*EncodedCol{num, bp}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rawCol, err := NewRawNumCol(rows, raw)
	if err != nil {
		t.Fatal(err)
	}
	var ds DecodeStats
	p := fresh(rawCol, &ds)
	e := p.FirstTouch(0)
	if e != rawCol {
		t.Fatalf("first touch of an encoded column returned %v, want its encoded form", e)
	}
	for r := 0; r < rows; r++ {
		if got := e.Float(r); got != float64(r)+0.5 {
			t.Fatalf("Float(%d) = %v", r, got)
		}
	}
	if cols, _ := ds.Snapshot(); cols != 0 {
		t.Fatalf("a first touch materialized %d columns", cols)
	}
	if p.FirstTouch(0) != nil {
		t.Fatal("second touch was handed the encoded form again")
	}
	if got := p.NumCol(0); len(got) != rows || got[3] != 3.5 {
		t.Fatalf("NumCol after the first touch = %v", got)
	}
	if cols, _ := ds.Snapshot(); cols != 1 {
		t.Fatalf("second touch materialized %d columns, want 1", cols)
	}
	// Column 1 was materialized without a FirstTouch call: still not first.
	p.CatCol(1)
	if p.FirstTouch(1) != nil {
		t.Fatal("a materialized column reported a first touch")
	}
	decoded, err := MakePartition(s, 0, 1, [][]float64{{1}, nil}, [][]uint32{nil, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if decoded.FirstTouch(0) != nil || decoded.FirstTouch(1) != nil {
		t.Fatal("a decoded column has no encoded form to hand out")
	}

	p = fresh(rawCol, nil)
	const goroutines = 8
	var wg sync.WaitGroup
	var encoded atomic.Int32
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < 2; c++ {
				if p.FirstTouch(c) != nil {
					encoded.Add(1)
				} else if c == 0 && p.NumCol(c)[5] != 5.5 || c == 1 && p.CatCol(c)[5] != 5 {
					t.Errorf("goroutine %d read a wrong value from column %d", g, c)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := encoded.Load(); n < 2 || n > 2*goroutines {
		t.Fatalf("%d first touches over two columns", n)
	}
	if p.FirstTouch(0) != nil || p.FirstTouch(1) != nil {
		t.Fatal("a column is still untouched after concurrent first touches")
	}
}

package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ps3/internal/dataset"
	"ps3/internal/query"
	"ps3/internal/table"
	"ps3/internal/testutil"
)

// TestLoadBlockAllocatesTheBlockOnce is the allocation ceiling of the load
// path: one loadBlock of a kdd-shaped v2 block allocates the block buffer
// once — Length + PackPad bytes — plus bookkeeping proportional to the
// column count, never to the rows. A load that copies packed payloads out of
// the buffer, or decodes a raw numeric column nobody asked for, allocates
// about twice the block and fails here. That is a load nobody releases; one
// whose predecessor was released reads into the predecessor's buffer and
// allocates the bookkeeping alone.
func TestLoadBlockAllocatesTheBlockOnce(t *testing.T) {
	ds, err := dataset.ByName("kdd", dataset.Config{Rows: 2 * 4500, Parts: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r := openStore(t, writeStore(t, ds.Table), -1)
	cols := r.TableSchema().NumCols()
	length := r.blocks[0].Length
	p, err := r.loadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	// RLE runs are the one payload re-typed rather than viewed ([]uint32 and
	// []int32 cannot alias bytes without unsafe): 8 bytes a run, plus what
	// the allocator's size classes round two arrays up by.
	var runBytes int64
	for c := 0; c < cols; c++ {
		if e := p.EncCol(c); e != nil {
			runBytes += 8 * int64(len(e.RunVals))
		}
	}
	// Per column: its EncodedCol and its slots in the partition's four
	// per-column slices; three objects when it is RLE, one otherwise. The
	// buffer itself is a large allocation, which the runtime rounds up to
	// whole 8 KiB pages.
	const perColBytes, perColObjects, pageRound = 256, 3, 8192
	bookkeeping := runBytes + runBytes/4 + int64(perColBytes*cols)
	load := func() {
		if _, err := r.loadBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(load func()) (bytes int64, objects float64) {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			load()
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs, testing.AllocsPerRun(runs, load)
	}

	gotBytes, gotObjects := measure(load)
	if ceiling := length + table.PackPad + pageRound + bookkeeping; gotBytes > ceiling {
		t.Errorf("one load of a %d-byte block allocates %d bytes, ceiling %d (%d columns, %d bytes of RLE runs)",
			length, gotBytes, ceiling, cols, runBytes)
	}
	if gotBytes < length {
		t.Errorf("one load allocates %d bytes, less than the %d-byte block: the measurement is broken", gotBytes, length)
	}
	if ceiling := float64(perColObjects*cols + 8); gotObjects > ceiling {
		t.Errorf("one load allocates %.0f objects, ceiling %.0f (%d columns)", gotObjects, ceiling, cols)
	}
	t.Logf("%d-byte block, %d columns, %d bytes of RLE runs: %d bytes in %.0f objects per load", length, cols, runBytes, gotBytes, gotObjects)

	// Second half: the loader is the partition's only holder, so its Release
	// is the last and the next load takes the buffer back.
	p.Release()
	before := r.CacheStats()
	gotBytes, gotObjects = measure(func() {
		p, err := r.loadBlock(0)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	})
	if gotBytes > bookkeeping || gotBytes >= length/2 {
		t.Errorf("a load after a release allocates %d bytes, ceiling %d: a %d-byte block buffer was not reused", gotBytes, bookkeeping, length)
	}
	if ceiling := float64(perColObjects*cols + 8); gotObjects > ceiling {
		t.Errorf("a load after a release allocates %.0f objects, ceiling %.0f (%d columns)", gotObjects, ceiling, cols)
	}
	if after := r.CacheStats(); after.BufferAllocs != before.BufferAllocs || after.BufferReuses == before.BufferReuses {
		t.Errorf("buffer counters over the released loads: %+v -> %+v, want reuses only", before, after)
	}
	t.Logf("after a release: %d bytes in %.0f objects per load", gotBytes, gotObjects)
}

// TestThrashingScanAllocatesNoBlockMemory is the steady state the holder
// count exists for: ad-hoc queries, each compiled, run once and dropped,
// scan a kdd store (4 500-row partitions) through a cache a quarter of the
// working set, so most reads miss and every miss evicts. Each scan's misses
// read into the buffers its predecessors' evictions returned and its kernels
// run on scratch an earlier query warmed: a scan allocates less than one
// block in all — partition headers, decoded side-cars of the few partitions
// touched twice while resident, its answer — where every miss used to
// allocate one. Every answer equals the resident table's.
func TestThrashingScanAllocatesNoBlockMemory(t *testing.T) {
	const parts, scans, perScan = 16, 200, 4
	ds, err := dataset.ByName("kdd", dataset.Config{Rows: parts * 4500, Parts: parts, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tbl := ds.Table
	data := writeStore(t, tbl)
	var workingSet, block int64
	probe := openStore(t, data, -1)
	for i := 0; i < parts; i++ {
		workingSet += encodedPartSize(t, probe, i)
		block = max(block, probe.blocks[i].Length)
	}
	r := openStore(t, data, workingSet/4)
	gen, err := query.NewGenerator(ds.Workload, tbl, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	scan := func(check bool) {
		q := gen.Sample()
		sel := make([]query.WeightedPartition, perScan)
		for i := range sel {
			sel[i] = query.WeightedPartition{Part: rng.Intn(parts), Weight: 1 + float64(i)}
		}
		c, err := query.Compile(q, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EstimateCtx(context.Background(), r, sel)
		if err != nil {
			t.Fatal(err)
		}
		if check {
			res, err := query.Compile(q, tbl)
			if err != nil {
				t.Fatal(err)
			}
			want, err := res.EstimateCtx(context.Background(), tbl, sel)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAnswer(t, q.String(), want, got)
		}
	}
	for i := 0; i < 50; i++ { // fill the cache, the free list and the scratch pool
		scan(true)
	}
	st0 := r.CacheStats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < scans; i++ {
		scan(false)
	}
	runtime.ReadMemStats(&after)
	st1 := r.CacheStats()
	for i := 0; i < 50; i++ {
		scan(true)
	}
	perScanBytes := int64(after.TotalAlloc-before.TotalAlloc) / scans
	misses, allocs := st1.Misses-st0.Misses, st1.BufferAllocs-st0.BufferAllocs
	t.Logf("%d scans of %d partitions: %d bytes allocated per scan (largest block %d), %d misses, %d evictions, %d buffers allocated",
		scans, perScan, perScanBytes, block, misses, st1.Evictions-st0.Evictions, allocs)
	if misses < scans*perScan/2 {
		t.Fatalf("only %d of %d reads missed: the cache is not thrashing and the test measures nothing", misses, scans*perScan)
	}
	if allocs > misses/50 {
		t.Errorf("%d of %d misses allocated a buffer: evicted partitions' buffers are not coming back", allocs, misses)
	}
	// Under the race detector sync.Pool drops a quarter of what is put back,
	// so scans keep re-allocating scratch there.
	if !testutil.RaceDetector && perScanBytes >= block {
		t.Errorf("a thrashing scan allocates %d bytes, a block is %d: block or scratch memory is being allocated per scan", perScanBytes, block)
	}
}

// TestReleasedBufferIsPoisoned pins what a holder that reads past its own
// Release would meet in any test binary: the partition's encoded columns are
// gone, and a view it kept anyway — of the block, or of a column decoded from
// it — reads the poison pattern, not the block it used to show or the one
// loaded next. That is what lets the equivalence suites (this package's,
// query's, serve's concurrent and chaos ones) fail on a lifetime bug instead
// of passing on plausible bytes. The next load gets the same memory back and
// must overwrite all of it.
func TestReleasedBufferIsPoisoned(t *testing.T) {
	tbl := encFixture(t, 400, 100, 5)
	r := openStore(t, writeStore(t, tbl), -1)
	p, err := r.loadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	var stale [][]byte
	staleNum, staleCat := p.DecodedCols() // every encoded column gets its side-car
	atLoad := make([]bool, len(staleNum)) // columns decoded at load: the partition's own, not recycled
	for c := range staleNum {
		e := p.EncCol(c)
		if e != nil && len(e.Packed) > 0 {
			stale = append(stale, e.Packed)
		}
		atLoad[c] = e == nil
	}
	if len(stale) == 0 {
		t.Fatal("fixture block has no packed column to keep a view of")
	}
	p.Retain(1)
	p.Release()
	if p.EncCol(0) == nil && p.EncCol(1) == nil {
		t.Fatal("a partition with a holder left lost its columns")
	}
	p.Release()
	for c := range staleNum {
		if p.EncCol(c) != nil {
			t.Fatalf("column %d is still attached after the last release", c)
		}
	}
	for _, view := range stale {
		for i, b := range view {
			if b != poisonByte {
				t.Fatalf("a stale view reads %#x at byte %d, want the poison pattern %#x", b, i, poisonByte)
			}
		}
	}
	sideCars := 0
	for c := range staleNum {
		if atLoad[c] {
			continue // decoded at load (raw categorical): the partition's own, not recycled
		}
		sideCars++
		for i, v := range staleNum[c] {
			if math.Float64bits(v) != poisonBits {
				t.Fatalf("stale decoded column %d reads %v at row %d, want the poison pattern", c, v, i)
			}
		}
		for i, v := range staleCat[c] {
			if v != poisonCode {
				t.Fatalf("stale decoded column %d reads code %d at row %d, want the poison pattern", c, v, i)
			}
		}
	}
	if sideCars == 0 {
		t.Fatal("fixture block decoded no side-car")
	}
	// The next load takes that buffer, its decodes take those side-cars, and
	// the partition must be whole again.
	q, err := r.loadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePartition(t, tbl.Parts[1], q, 1)
	if st := r.CacheStats(); st.BufferReuses != 1 || st.BufferAllocs != 1 {
		t.Fatalf("buffer counters %+v, want the second load to reuse the first's buffer", st)
	}
	if n, c := r.bufs.nums.reuses.Load(), r.bufs.cats.reuses.Load(); n == 0 || c == 0 {
		t.Fatalf("%d numeric and %d categorical side-cars were reused, want some of each", n, c)
	}
}

// v2Col frames one column payload as a v2 block column.
func v2Col(tag uint8, payload []byte) []byte {
	return append(appendColHeader(nil, tag, len(payload)), payload...)
}

// forPayload is a tagFoR payload: base, width, packed deltas.
func forPayload(min float64, width uint8, deltas []uint64) []byte {
	p := binary.LittleEndian.AppendUint64(nil, math.Float64bits(min))
	p = append(p, width)
	return appendPacked(p, len(deltas), width, func(r int) uint64 { return deltas[r] })
}

// bitPackPayload is a tagBitPack payload: width, packed codes.
func bitPackPayload(width uint8, codes []uint64) []byte {
	return appendPacked([]byte{width}, len(codes), width, func(r int) uint64 { return codes[r] })
}

// tightBlock lays cols out as one block in a buffer of exactly the block's
// length plus table.PackPad — what loadBlock allocates — so any load through
// a column view that strays past the pad runs off the buffer and panics.
// The pad is filled with ones: it is readable, not meaningful.
func tightBlock(cols ...[]byte) []byte {
	n := 0
	for _, c := range cols {
		n += len(c)
	}
	buf := make([]byte, 0, n+table.PackPad)
	for _, c := range cols {
		buf = append(buf, c...)
	}
	pad := buf[n : n+table.PackPad]
	for i := range pad {
		pad[i] = 0xff
	}
	return buf
}

// TestViewsStayInsideTheirBlock reads every row of hand-built blocks whose
// last column ends flush against the block's end at the widest packings —
// where At's 8-byte load reaches furthest — and of zero-row and zero-width
// columns, through At, MaxCode and full materialization, in buffers with
// nothing readable past the pad.
func TestViewsStayInsideTheirBlock(t *testing.T) {
	numS := table.MustSchema(table.Column{Name: "a", Kind: table.Numeric}, table.Column{Name: "n", Kind: table.Numeric})
	catS := table.MustSchema(table.Column{Name: "a", Kind: table.Numeric}, table.Column{Name: "c", Kind: table.Categorical})
	const noDict = math.MaxUint32

	wide := []uint64{0, 1<<53 - 1, 1 << 52, 12345, 1<<53 - 2, 7, 1 << 40, 1} // 8 rows × 53 bits = 53 bytes
	codes := []uint64{0, math.MaxUint32 - 1, 1 << 31, 5}                     // 4 rows × 32 bits = 16 bytes
	rawA := func(rows int) []byte {
		p := make([]byte, 0, 8*rows)
		for r := 0; r < rows; r++ {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(float64(r)+0.5))
		}
		return v2Col(tagRawNum, p)
	}

	t.Run("53-bit FoR last", func(t *testing.T) {
		block := tightBlock(rawA(len(wide)), v2Col(tagFoR, forPayload(-(1<<52), 53, wide)))
		p, err := decodeBlockV2(block, numS, noDict, 0, len(wide), nil)
		if err != nil {
			t.Fatal(err)
		}
		e := p.EncCol(1)
		if e == nil || e.Kind != table.EncFoR || e.Width != 53 {
			t.Fatalf("last column decoded as %+v, want a 53-bit FoR view", e)
		}
		if end := cap(block); cap(e.Packed) != len(e.Packed) || &e.Packed[len(e.Packed)-1] != &block[:end][end-1] {
			t.Fatal("the last column's view must end exactly where the padded buffer does")
		}
		vals := p.NumCol(1)
		for r, d := range wide {
			if got := e.At(r); got != d {
				t.Fatalf("At(%d) = %d, want %d", r, got, d)
			}
			if want := float64(-(1 << 52) + int64(d)); vals[r] != want {
				t.Fatalf("NumCol[%d] = %v, want %v", r, vals[r], want)
			}
		}
		if a := p.NumCol(0); len(a) != len(wide) || a[3] != 3.5 {
			t.Fatalf("raw numeric neighbour materializes to %v", a)
		}
	})

	t.Run("32-bit bit-pack last", func(t *testing.T) {
		block := tightBlock(rawA(len(codes)), v2Col(tagBitPack, bitPackPayload(32, codes)))
		p, err := decodeBlockV2(block, catS, noDict, 0, len(codes), nil)
		if err != nil {
			t.Fatal(err)
		}
		e := p.EncCol(1)
		if e == nil || e.Kind != table.EncBitPack || e.Width != 32 {
			t.Fatalf("last column decoded as %+v, want a 32-bit bit-packed view", e)
		}
		got := p.CatCol(1)
		for r, c := range codes {
			if e.At(r) != c || uint64(got[r]) != c {
				t.Fatalf("row %d: At %d, CatCol %d, want %d", r, e.At(r), got[r], c)
			}
		}
		if e.MaxCode() != math.MaxUint32-1 {
			t.Fatalf("MaxCode = %d", e.MaxCode())
		}
	})

	t.Run("zero rows", func(t *testing.T) {
		for _, last := range [][]byte{
			v2Col(tagFoR, forPayload(3, 7, nil)),
			v2Col(tagBitPack, bitPackPayload(9, nil)),
		} {
			s := numS
			if last[0] == tagBitPack {
				s = catS
			}
			p, err := decodeBlockV2(tightBlock(rawA(0), last), s, 1, 0, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.NumCol(0)) != 0 || len(p.NumCol(1)) != 0 || len(p.CatCol(1)) != 0 {
				t.Fatal("a zero-row block materialized values")
			}
		}
	})

	t.Run("zero width", func(t *testing.T) {
		const rows = 5
		p, err := decodeBlockV2(tightBlock(rawA(rows), v2Col(tagFoR, forPayload(-9, 0, make([]uint64, rows)))), numS, 1, 0, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r, v := range p.NumCol(1) {
			if v != -9 || p.EncCol(1).At(r) != 0 {
				t.Fatalf("constant FoR row %d = %v", r, v)
			}
		}
		p, err = decodeBlockV2(tightBlock(rawA(rows), v2Col(tagBitPack, bitPackPayload(0, make([]uint64, rows)))), catS, 1, 0, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r, c := range p.CatCol(1) {
			if c != 0 || p.EncCol(1).At(r) != 0 {
				t.Fatalf("constant bit-packed row %d = %d", r, c)
			}
		}
	})

	t.Run("no pad, no partition", func(t *testing.T) {
		block := tightBlock(rawA(len(codes)), v2Col(tagBitPack, bitPackPayload(32, codes)))
		unpadded := block[:len(block):len(block)]
		if _, err := decodeBlockV2(unpadded, catS, noDict, 0, len(codes), nil); err == nil || !strings.Contains(err.Error(), "capacity") {
			t.Fatalf("a block without its pad must fail to decode, not decode into views that cannot be read: %v", err)
		}
	})
}

// TestEncodedKernelsOnBlockFinalColumn runs the encoded predicate kernels and
// both materializations over store blocks whose last column is packed flush
// to the block's end — rows·width a multiple of 8, so no slack bits — through
// the real load path, whose buffer ends PackPad bytes later. Under -race
// (make race) a stray load past it is a fault, not a silent neighbour read.
func TestEncodedKernelsOnBlockFinalColumn(t *testing.T) {
	const rows = 64
	forS := table.MustSchema(table.Column{Name: "c", Kind: table.Categorical}, table.Column{Name: "n", Kind: table.Numeric})
	bpS := table.MustSchema(table.Column{Name: "n", Kind: table.Numeric}, table.Column{Name: "c", Kind: table.Categorical})
	build := func(s *table.Schema, numAt int) *table.Table {
		b, err := table.NewBuilder(s, rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3*rows; i++ {
			num, cat := make([]float64, 2), make([]string, 2)
			// 53-bit range: the first row of each block pins the minimum,
			// the second the maximum.
			switch i % rows {
			case 0:
				num[numAt] = -(1 << 52)
			case 1:
				num[numAt] = 1<<52 - 1
			default:
				num[numAt] = float64(i * 7919)
			}
			cat[1-numAt] = fmt.Sprintf("v%02d", (i*5)%16) // 16 values: 4-bit codes
			if err := b.Append(num, cat); err != nil {
				t.Fatal(err)
			}
		}
		return b.Finish()
	}
	for _, c := range []struct {
		name  string
		tbl   *table.Table
		kind  table.EncKind
		width uint8
		preds []query.Pred
	}{
		{"FoR", build(forS, 1), table.EncFoR, 53, []query.Pred{
			&query.Clause{Col: "n", Op: query.OpEq, Num: 1<<52 - 1},
			&query.Clause{Col: "n", Op: query.OpGt, Num: 7919 * 70},
			query.NewAnd(&query.Clause{Col: "c", Op: query.OpNe, Strs: []string{"v03"}}, &query.Clause{Col: "n", Op: query.OpLe, Num: 0}),
		}},
		{"bit-pack", build(bpS, 0), table.EncBitPack, 4, []query.Pred{
			&query.Clause{Col: "c", Op: query.OpEq, Strs: []string{"v15"}},
			&query.Clause{Col: "c", Op: query.OpIn, Strs: []string{"v00", "v15", "v07"}},
			query.NewAnd(&query.Clause{Col: "n", Op: query.OpGe, Num: 0}, &query.Clause{Col: "c", Op: query.OpNe, Strs: []string{"v05"}}),
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := openStore(t, writeStore(t, c.tbl), -1)
			sel := make([]query.WeightedPartition, r.NumParts())
			for pi := range sel {
				sel[pi] = query.WeightedPartition{Part: pi, Weight: 1}
				p, err := r.Read(pi)
				if err != nil {
					t.Fatal(err)
				}
				e := p.EncCol(1)
				if e == nil || e.Kind != c.kind || e.Width != c.width || (rows*int(e.Width))%8 != 0 {
					t.Fatalf("partition %d last column is %+v, want %s at %d bits", pi, e, c.kind, c.width)
				}
			}
			base := query.EncodedKernelEvals()
			for _, pred := range c.preds {
				q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}, {Kind: query.Sum, Expr: query.Col("n")}}, Pred: pred, GroupBy: []string{"c"}}
				enc, err := query.Compile(q, r)
				if err != nil {
					t.Fatal(err)
				}
				got, err := enc.EstimateCtx(context.Background(), r, sel)
				if err != nil {
					t.Fatal(err)
				}
				res, err := query.Compile(q, c.tbl)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := res.GroundTruth(c.tbl)
				requireSameAnswer(t, q.String(), want, got)
			}
			if query.EncodedKernelEvals() == base {
				t.Fatal("no encoded kernel ran")
			}
			for pi := range c.tbl.Parts {
				got, _ := r.Read(pi)
				requireSamePartition(t, c.tbl.Parts[pi], got, pi)
			}
		})
	}
}

// TestDictRangeScanOnlyWhenItCanFail pins the equivalence behind skipping
// the dictionary-range scan: for every pack width and dictionary lengths on
// both sides of 2^width, maxCodeInDict accepts exactly the columns an
// unconditional scan for the largest code accepts — including one rogue code
// among in-range ones, and the all-ones code a zeroed check would miss.
func TestDictRangeScanOnlyWhenItCanFail(t *testing.T) {
	const rows = 9
	for width := 0; width <= 32; width++ {
		mask := uint64(1)<<width - 1
		dictLens := map[uint32]bool{1: true, 2: true, math.MaxUint32: true}
		for _, d := range []int64{int64(mask) - 1, int64(mask), int64(mask) + 1, int64(mask) + 2, int64(mask)/2 + 1} {
			if d >= 1 && d <= math.MaxUint32 {
				dictLens[uint32(d)] = true
			}
		}
		fills := map[string]func(r int) uint64{
			"zeros":     func(int) uint64 { return 0 },
			"all ones":  func(int) uint64 { return mask },
			"one rogue": func(r int) uint64 { return mask * uint64(r/(rows-1)) }, // only the last row
			"half":      func(int) uint64 { return mask / 2 },
			"ramp":      func(r int) uint64 { return uint64(r) & mask },
		}
		for name, fill := range fills {
			codes := make([]uint64, rows)
			for r := range codes {
				codes[r] = fill(r)
			}
			payload := bitPackPayload(uint8(width), codes)
			e, err := table.NewBitPackedCol(rows, uint8(width), payload[1:]) // appendPacked leaves the capacity a view needs
			if err != nil {
				t.Fatal(err)
			}
			for dictLen := range dictLens {
				want := e.MaxCode() < dictLen
				max, ok := maxCodeInDict(e, dictLen)
				if ok != want {
					t.Fatalf("width %d, %s, dictionary of %d: accepted %v, the unconditional scan says %v", width, name, dictLen, ok, want)
				}
				if !ok && max != e.MaxCode() {
					t.Fatalf("width %d, %s, dictionary of %d: reports code %d, largest is %d", width, name, dictLen, max, e.MaxCode())
				}
			}
		}
	}
	// RLE values are whole uint32s: nothing bounds them, so they are always
	// scanned.
	e, err := table.NewRLECol(4, []uint32{1, 9}, []int32{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := maxCodeInDict(e, 9); ok {
		t.Fatal("RLE code 9 accepted against a dictionary of 9")
	}
	if _, ok := maxCodeInDict(e, 10); !ok {
		t.Fatal("RLE code 9 rejected against a dictionary of 10")
	}
}

// forBeyondBound rewrites partition pi's FoR column (encFixture column 1) to
// the smallest block that breaks the exactness bound without breaking any
// other rule: base 2^53, so every non-zero delta reconstructs past it —
// 2^53 + 1 is not a float64, materialization would round it to 2^53 and an
// equality kernel comparing deltas would disagree.
func forBeyondBound(t testing.TB, valid []byte, pi, numCols int) []byte {
	return corruptBlock(t, valid, pi, func(block []byte) {
		off := v2ColOffsets(t, block, numCols)[1]
		binary.LittleEndian.PutUint64(block[off+colHeaderSize:], math.Float64bits(1<<53))
	})
}

// TestFoRBeyondExactnessBoundIsCorrupt: a CRC-valid FoR block whose base and
// width are each within bounds but whose values are not is rejected at
// decode — by decodeBlockV2 on the minimal example, and through Reader.Read,
// where it is a corrupt block like any other: retried once, then quarantined.
func TestFoRBeyondExactnessBoundIsCorrupt(t *testing.T) {
	s := table.MustSchema(table.Column{Name: "n", Kind: table.Numeric})
	block := tightBlock(v2Col(tagFoR, forPayload(1<<53, 2, []uint64{0, 1})))
	if _, err := decodeBlockV2(block, s, 1, 0, 2, nil); err == nil || !strings.Contains(err.Error(), "exactness bound") {
		t.Fatalf("min 2^53 + delta 1: err = %v, want the exactness bound", err)
	}
	// Same base and width over deltas that stay in bounds: a legitimate block.
	block = tightBlock(v2Col(tagFoR, forPayload(1<<53, 2, []uint64{0, 0})))
	if p, err := decodeBlockV2(block, s, 1, 0, 2, nil); err != nil || p.NumCol(0)[1] != 1<<53 {
		t.Fatalf("min 2^53 + delta 0: %v", err)
	}

	tbl := encFixture(t, 320, 100, 11)
	r := openStore(t, forBeyondBound(t, writeStore(t, tbl), 1, tbl.Schema.NumCols()), 0)
	_, err := r.Read(1)
	var qe *QuarantineError
	if !errors.As(err, &qe) || qe.Part != 1 || !errors.Is(err, errCorruptBlock) || !strings.Contains(err.Error(), "exactness bound") {
		t.Fatalf("read of the out-of-bound block: %v, want partition 1 quarantined over the exactness bound", err)
	}
	if h := r.Health(); h.CorruptRetries != 1 || len(h.QuarantinedParts) != 1 {
		t.Fatalf("health after the read: %+v, want one retry and one quarantined partition", h)
	}
	for _, pi := range []int{0, 2} {
		if _, err := r.Read(pi); err != nil {
			t.Fatalf("intact partition %d: %v", pi, err)
		}
	}
}

// BenchmarkLoadBlock is one cold load — pread, checksum, header walk — of the
// serving benchmark's two block shapes from a real file, with its
// allocations: the cost adhoc-scan pays per cache miss, isolated from the
// cache and the scan.
func BenchmarkLoadBlock(b *testing.B) {
	for _, c := range []struct {
		dataset string
		rows    int
	}{{"kdd", 4500}, {"aria", 500}} {
		b.Run(fmt.Sprintf("%s/rows%d", c.dataset, c.rows), func(b *testing.B) {
			const parts = 8
			ds, err := dataset.ByName(c.dataset, dataset.Config{Rows: parts * c.rows, Parts: parts, Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			r := benchOpenFile(b, ds.Table, false, -1)
			// fresh: nobody releases, every load allocates its buffer (a
			// Materialize, an exact scan's first pass); recycled: each load
			// is released before the next, the steady state of a cache that
			// evicts — here with the test binary's poisoning of the released
			// buffer on top, which a server does not pay.
			for _, release := range []bool{false, true} {
				name := "fresh"
				if release {
					name = "recycled"
				}
				b.Run(name, func(b *testing.B) {
					b.SetBytes(r.fileBytes / parts)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						p, err := r.loadBlock(i % parts)
						if err != nil {
							b.Fatal(err)
						}
						if release {
							p.Release()
						}
					}
				})
			}
		})
	}
}

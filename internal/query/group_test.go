package query

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ps3/internal/exec"
	"ps3/internal/table"
	"ps3/internal/testutil"
)

// groupedFixture is one randomly drawn dataset for the grouped-scan tests: a
// table over a random schema plus the same partitions in other physical
// forms, all readable through one source.
type groupedFixture struct {
	tbl        *table.Table
	cats, nums []string
	// src lists every partition form: the table's raw partitions, their
	// store-style encoded copies, an empty partition, and corrupted copies
	// carrying dictionary codes the table never assigned.
	src *table.Table
	// clean is the number of leading src partitions free of rogue codes.
	clean int
}

// newGroupedFixture draws a schema of 1–4 categorical and 2–3 numeric
// columns. Each categorical column has its own value pool; pool sizes are
// drawn so the shared dictionary ranges from a handful of codes (direct
// group table) to thousands (hashed table, wide packing slots).
func newGroupedFixture(t *testing.T, seed int64) *groupedFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := &groupedFixture{}
	var cols []table.Column
	pools := []int{2, 5, 40, 600, 3000}
	var poolOf []int
	for j := 0; j < 1+rng.Intn(4); j++ {
		name := fmt.Sprintf("c%d", j)
		f.cats = append(f.cats, name)
		cols = append(cols, table.Column{Name: name, Kind: table.Categorical})
		poolOf = append(poolOf, pools[rng.Intn(len(pools))])
	}
	for j := 0; j < 2+rng.Intn(2); j++ {
		name := fmt.Sprintf("n%d", j)
		f.nums = append(f.nums, name)
		cols = append(cols, table.Column{Name: name, Kind: table.Numeric})
	}
	schema := table.MustSchema(cols...)
	rowsPerPart := 20 + rng.Intn(200)
	b, err := table.NewBuilder(schema, rowsPerPart)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rowsPerPart*(4+rng.Intn(5)); r++ {
		num := make([]float64, len(cols))
		cat := make([]string, len(cols))
		for j := range f.cats {
			// Squared draw: a few hot values, a long tail.
			v := int(float64(poolOf[j]) * rng.Float64() * rng.Float64())
			cat[j] = fmt.Sprintf("%s_v%d", f.cats[j], v)
		}
		for j := range f.nums {
			at := len(f.cats) + j
			if j == 0 {
				num[at] = float64(rng.Intn(7)) // coarse integers: a groupable numeric
			} else {
				num[at] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*4)
			}
		}
		if err := b.Append(num, cat); err != nil {
			t.Fatal(err)
		}
	}
	f.tbl = b.Finish()

	parts := append([]*table.Partition(nil), f.tbl.Parts...)
	for _, p := range f.tbl.Parts {
		parts = append(parts, storeCopy(t, schema, p, nil))
	}
	parts = append(parts, table.NewPartition(schema))
	f.clean = len(parts)
	dictLen := uint32(f.tbl.Dict.Len())
	for i, rogue := range []uint32{dictLen, dictLen + 5, 1 << 31, math.MaxUint32} {
		parts = append(parts, rogueCopy(t, schema, f.tbl.Parts[i%len(f.tbl.Parts)], rogue, rng))
	}
	f.src = &table.Table{Schema: schema, Dict: f.tbl.Dict, Parts: parts}
	return f
}

// bitPack bit-packs vals at width bits per value, least significant bit
// first — the layout of the store's packed payloads.
func bitPack(vals []uint64, width uint8) []byte {
	out := make([]byte, (len(vals)*int(width)+7)/8+8)
	for r, v := range vals {
		bit := r * int(width)
		word := binary.LittleEndian.Uint64(out[bit>>3:])
		binary.LittleEndian.PutUint64(out[bit>>3:], word|v<<(bit&7))
	}
	return out[:len(out)-8]
}

// rogueCopy is p with about a tenth of its categorical cells overwritten by
// a code the dictionary never assigned: what a corrupted block looks like
// once it is past the store's checks.
func rogueCopy(t *testing.T, s *table.Schema, p *table.Partition, rogue uint32, rng *rand.Rand) *table.Partition {
	t.Helper()
	num, cat := p.DecodedCols()
	cat = append([][]uint32(nil), cat...)
	for c, col := range s.Cols {
		if col.IsNumeric() {
			continue
		}
		cat[c] = append([]uint32(nil), cat[c]...)
		for r := range cat[c] {
			if rng.Intn(10) == 0 {
				cat[c][r] = rogue
			}
		}
	}
	out, err := table.MakePartition(s, p.ID, p.Rows(), num, cat)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// queries draws n queries over the fixture: the package generator supplies
// predicates and aggregates, the GROUP BY is redrawn as 0–3 columns of any
// kind, and some queries get an all-rejecting predicate or FILTER.
func (f *groupedFixture) queries(t *testing.T, seed int64, n int) []*Query {
	t.Helper()
	all := append(append([]string(nil), f.cats...), f.nums...)
	gen, err := NewGenerator(Workload{
		GroupableCols: all, PredicateCols: all, AggCols: f.nums, MaxGroupCols: 3,
	}, f.tbl, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	never := &Clause{Col: f.nums[0], Op: OpLt, Num: math.Inf(-1)}
	var out []*Query
	for i := 0; i < n; i++ {
		q := gen.Sample()
		var pool []string
		switch rng.Intn(3) {
		case 0:
			pool = f.cats
		case 1:
			pool = f.nums[:1]
		default:
			pool = append(append([]string(nil), f.cats...), f.nums[0])
		}
		q.GroupBy = nil
		perm := rng.Perm(len(pool))
		for _, j := range perm[:min(rng.Intn(4), len(pool))] {
			q.GroupBy = append(q.GroupBy, pool[j])
		}
		switch rng.Intn(8) {
		case 0:
			q.Pred = never // empty selection on every partition
		case 1:
			q.Aggs[0].Filter = never // groups exist, this aggregate stays zero
		}
		out = append(out, q)
	}
	return out
}

// forcedGeneric returns c with the packed path switched off: the byte-key
// path evaluating the same query.
func forcedGeneric(c *Compiled) *Compiled {
	g := *c
	g.packBits = 0
	return &g
}

// referenceFold is the oracle for a scan: per-partition reference answers
// folded by weight in selection order, the way Estimate always has.
func referenceFold(c *Compiled, src *table.Table, sel []WeightedPartition) *Answer {
	want := c.NewAnswer()
	for _, wp := range sel {
		want.AddWeighted(c.EvalPartitionReference(src.Parts[wp.Part]), wp.Weight)
	}
	return want
}

// TestGroupedPathsBitIdentical is the randomized contract of the grouped
// scan: on random schemas, data, physical forms and queries, the packed
// path, the generic byte-key path and the row-at-a-time reference agree bit
// for bit, per partition and per weighted scan, at every worker count.
func TestGroupedPathsBitIdentical(t *testing.T) {
	kinds := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		f := newGroupedFixture(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for _, q := range f.queries(t, seed, 30) {
			c := mustCompile(t, q, f.tbl)
			generic := forcedGeneric(c)
			switch {
			case len(q.GroupBy) == 0:
				kinds["ungrouped"]++
			case c.packBits == 0:
				kinds["generic"]++
			case c.keyBits() <= directKeyBits:
				kinds["packed/direct"]++
			default:
				kinds["packed/hashed"]++
			}
			label := fmt.Sprintf("seed %d, %s", seed, q)
			for i, p := range f.src.Parts {
				want := c.EvalPartitionReference(p)
				requireBitIdentical(t, fmt.Sprintf("%s, partition %d", label, i), c.EvalPartition(p), want)
				requireBitIdentical(t, fmt.Sprintf("%s, partition %d, generic", label, i), generic.EvalPartition(p), want)
			}
			// Weighted scans: over clean partitions only, and with corrupted
			// ones mixed in (whose byte-keyed partials move a packed query's
			// whole fold to byte keys).
			for _, limit := range []int{f.clean, len(f.src.Parts)} {
				var sel []WeightedPartition
				for _, i := range rng.Perm(limit)[:1+rng.Intn(limit)] {
					sel = append(sel, WeightedPartition{Part: i, Weight: 0.5 + 4*rng.Float64()})
				}
				want := referenceFold(c, f.src, sel)
				for _, par := range parallelismLevels() {
					for _, cc := range []*Compiled{c, generic} {
						cc.Exec = exec.Options{Parallelism: par}
						got, err := cc.Estimate(f.src, sel)
						if err != nil {
							t.Fatal(err)
						}
						requireBitIdentical(t, fmt.Sprintf("%s, %d-partition scan, par %d", label, len(sel), par), got, want)
						// The ordered rendering of the same scan: over corrupted
						// partitions a packed query's total is byte-keyed and
						// its memo of no use.
						groups, err := cc.EstimateGroupsCtx(context.Background(), f.src, sel)
						if err != nil {
							t.Fatal(err)
						}
						requireSameGroups(t, fmt.Sprintf("%s, %d-partition scan, par %d, ordered", label, len(sel), par), groups, mapRendering(cc, got))
					}
				}
			}
			got, err := c.Estimate(f.src, nil)
			if err != nil || got.NumGroups() != 0 {
				t.Fatalf("%s: empty selection gave %d groups, err %v", label, got.NumGroups(), err)
			}
		}
	}
	t.Logf("queries per group-by path: %v", kinds)
	for _, kind := range []string{"ungrouped", "generic", "packed/direct", "packed/hashed"} {
		if kinds[kind] < 10 {
			t.Errorf("only %d %s queries drawn: the corpus no longer covers that path (%v)", kinds[kind], kind, kinds)
		}
	}
}

// TestOverWideKeysTakeGenericPath: group-by columns whose packing slots add
// up to more than 64 bits compile to the byte-key path, one column fewer
// packs, and both agree with the reference.
func TestOverWideKeysTakeGenericPath(t *testing.T) {
	var cols []table.Column
	var names []string
	for j := 0; j < 5; j++ {
		names = append(names, fmt.Sprintf("c%d", j))
		cols = append(cols, table.Column{Name: names[j], Kind: table.Categorical})
	}
	cols = append(cols, table.Column{Name: "x", Kind: table.Numeric})
	b, err := table.NewBuilder(table.MustSchema(cols...), 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for r := 0; r < 9000; r++ {
		cat := make([]string, len(cols))
		for j := range names {
			cat[j] = fmt.Sprintf("v%d", rng.Intn(3))
		}
		cat[0] = fmt.Sprintf("wide%d", r) // 9000 codes: 14-bit packing slots
		num := make([]float64, len(cols))
		num[5] = rng.NormFloat64()
		if err := b.Append(num, cat); err != nil {
			t.Fatal(err)
		}
	}
	tbl := b.Finish()
	for _, tc := range []struct {
		groupBy []string
		packed  bool
	}{{names, false}, {names[1:], true}} {
		q := &Query{GroupBy: tc.groupBy, Aggs: []Aggregate{{Kind: Sum, Expr: Col("x")}, {Kind: Count}}}
		c := mustCompile(t, q, tbl)
		if got := c.packBits > 0; got != tc.packed {
			t.Fatalf("%d group-by columns over a %d-code dictionary: packed = %v, want %v", len(tc.groupBy), tbl.Dict.Len(), got, tc.packed)
		}
		checkQueryEquivalence(t, c, tbl)
		sel := []WeightedPartition{{Part: 7, Weight: 2.5}, {Part: 0, Weight: 1.5}, {Part: 3, Weight: 9}}
		got, err := c.Estimate(tbl, sel)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, q.String(), got, referenceFold(c, tbl, sel))
	}
}

// TestGroupTable checks the slot table alone: dense first-seen numbering in
// both modes, growth under load, and an epoch wrap.
func TestGroupTable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, keyBits := range []uint{0, 3, directKeyBits, directKeyBits + 1, 40} {
		var tab groupTable
		for round := 0; round < 4; round++ {
			if round == 2 {
				tab.epoch = math.MaxUint32 // the next begin wraps
			}
			tab.begin(keyBits)
			keys := make([]uint64, 5000)
			for i := range keys {
				keys[i] = rng.Uint64() & (1<<keyBits - 1) >> uint(rng.Intn(int(keyBits)+1))
			}
			slots := make([]int32, len(keys))
			order := tab.resolve(keys[:2500], slots[:2500], nil)
			order = tab.resolve(keys[2500:], slots[2500:], order)
			want := map[uint64]int32{}
			for i, k := range keys {
				id, ok := want[k]
				if !ok {
					id = int32(len(want))
					want[k] = id
					if order[id] != k {
						t.Fatalf("%d-bit keys, round %d: order[%d] = %d, want first-seen key %d", keyBits, round, id, order[id], k)
					}
				}
				if slots[i] != id {
					t.Fatalf("%d-bit keys, round %d: key %d resolved to slot %d, want %d", keyBits, round, k, slots[i], id)
				}
			}
			if len(order) != len(want) || tab.live != len(want) {
				t.Fatalf("%d-bit keys, round %d: %d keys in order, %d live, want %d", keyBits, round, len(order), tab.live, len(want))
			}
		}
	}
}

// TestEstimateGroupedAllocs is the allocation ceiling of a warm grouped
// scan: what Estimate allocates is the answer — a slab, a map and one key
// string per final group — plus a constant for the scan, and does not grow
// with the number of partitions scanned.
func TestEstimateGroupedAllocs(t *testing.T) {
	if testutil.RaceDetector {
		t.Skip("sync.Pool sheds pooled scratches at random under -race")
	}
	tbl := randomTable(t, 31, 64*100, 100)
	for _, groupBy := range [][]string{{"city"}, {"cat", "city"}} {
		q := &Query{
			GroupBy: groupBy,
			Aggs:    []Aggregate{{Kind: Sum, Expr: Col("a")}, {Kind: Avg, Expr: Col("b")}, {Kind: Count}},
			Pred:    &Clause{Col: "d", Op: OpGe, Num: 3},
		}
		c := mustCompile(t, q, tbl)
		c.Exec = exec.Options{Parallelism: 1}
		allocs := func(parts int) (perRun float64, groups int) {
			sel := make([]WeightedPartition, parts)
			for i := range sel {
				sel[i] = WeightedPartition{Part: i, Weight: 1.5}
			}
			run := func() {
				ans, err := c.Estimate(tbl, sel)
				if err != nil {
					t.Fatal(err)
				}
				groups = ans.NumGroups()
			}
			run() // warm the pooled scratch
			return testing.AllocsPerRun(50, run), groups
		}
		few, groups := allocs(8)
		many, manyGroups := allocs(64)
		if groups != manyGroups {
			t.Fatalf("%s: %d groups over 8 partitions, %d over 64: the fixture should saturate its groups", q, groups, manyGroups)
		}
		// A pooled scratch the GC took is rebuilt once; averaged over the
		// runs that is under one allocation.
		if many > few+1 {
			t.Errorf("%s: %.1f allocs/scan over 64 partitions vs %.1f over 8: allocation grows with partitions scanned", q, many, few)
		}
		t.Logf("%s: %.1f allocs/scan over 8 partitions, %.1f over 64, %d groups", q, few, many, groups)
		if ceiling := float64(groups + 16); many > ceiling {
			t.Errorf("%s: %.1f allocs/scan for %d final groups, ceiling %.0f", q, many, groups, ceiling)
		}
	}
}

// TestScratchTrim: what goes back to the pool keeps modest arenas and tables
// for the next scan and gives up what one large scan grew.
func TestScratchTrim(t *testing.T) {
	sc := &scratch{}
	sc.allocAccs(maxPooledAccs / 2)
	sc.groups.begin(20)
	sc.trim()
	if cap(sc.paccs) == 0 || sc.groups.ents == nil {
		t.Fatal("trim dropped a modest arena or table")
	}
	sc.allocAccs(maxPooledAccs)
	keys := make([]uint64, 1<<directKeyBits)
	for i := range keys {
		keys[i] = uint64(i) * 7
	}
	sc.pkeys = sc.groups.resolve(keys, make([]int32, len(keys)), sc.pkeys)
	sc.trim()
	if sc.paccs != nil || sc.pkeys != nil || sc.groups.ents != nil {
		t.Fatalf("trim kept %d accumulators, %d keys, %d table entries", cap(sc.paccs), cap(sc.pkeys), len(sc.groups.ents))
	}
	sc.groups.begin(20)
	slots := make([]int32, 3)
	if order := sc.groups.resolve([]uint64{9, 4, 9}, slots, nil); !slices.Equal(order, []uint64{9, 4}) || !slices.Equal(slots, []int32{0, 1, 0}) {
		t.Fatalf("table after trim: order %v slots %v", order, slots)
	}
}

// TestScratchCleanAfterKernelPanic: a kernel that panics mid-evaluation —
// after the partition's groups were resolved, so the group table and the
// arenas are dirty — must not poison later evaluations. The scratch that
// saw the panic never returns to the pool, and whatever the pool hands out
// afterwards is idle: no live group slot, no set row mark, no partial.
func TestScratchCleanAfterKernelPanic(t *testing.T) {
	tbl := randomTable(t, 37, 2_000, 100)
	const bad = 3
	for _, groupBy := range [][]string{{"cat"}, {"cat", "city"}, {"d", "cat"}} {
		q := &Query{
			GroupBy: groupBy,
			Aggs: []Aggregate{
				{Kind: Sum, Expr: Col("a")},
				{Kind: Count, Filter: NewOr(&Clause{Col: "b", Op: OpLt, Num: 0}, &Clause{Col: "a", Op: OpGe, Num: 40})},
			},
		}
		c := mustCompile(t, q, tbl)
		filter := c.slots[1].filterKern
		c.slots[1].filterKern = func(p *table.Partition, sel []int32, sc *scratch) []int32 {
			if p.ID == bad {
				sc.getMarks(p.Rows())[0] = true // a mark buffer taken and never put back
				panic("kernel boom")
			}
			return filter(p, sel, sc)
		}
		mustPanic := func(what string, fn func()) {
			t.Helper()
			defer func() {
				if r := recover(); r != "kernel boom" {
					t.Fatalf("%s: recovered %v, want the kernel's panic", what, r)
				}
			}()
			fn()
		}
		var sel, healthy []WeightedPartition
		for i := range tbl.Parts {
			sel = append(sel, WeightedPartition{Part: i, Weight: 1 + float64(i)/4})
			if i != bad {
				healthy = append(healthy, sel[i])
			}
		}
		for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			c.Exec = exec.Options{Parallelism: par}
			for round := 0; round < 3; round++ {
				// Warm the pool, then panic through both entry points.
				if _, err := c.Estimate(tbl, healthy); err != nil {
					t.Fatal(err)
				}
				mustPanic("EvalPartition", func() { c.EvalPartition(tbl.Parts[bad]) })
				mustPanic("Estimate", func() { c.Estimate(tbl, sel) })
			}
			var drawn []*scratch
			for i := 0; i < 8; i++ {
				sc := scratchPool.Get().(*scratch)
				sc.groups.begin(c.keyBits())
				for _, e := range sc.groups.ents {
					if e.epoch == sc.groups.epoch {
						t.Fatalf("%s: pooled scratch holds a live group slot %+v", q, e)
					}
				}
				for _, marks := range sc.markFree {
					for r, m := range marks[:cap(marks)] {
						if m {
							t.Fatalf("%s: pooled scratch holds a set row mark at %d", q, r)
						}
					}
				}
				drawn = append(drawn, sc)
			}
			for _, sc := range drawn {
				scratchPool.Put(sc)
			}
			got, err := c.Estimate(tbl, healthy)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, fmt.Sprintf("%s after panics, par %d", q, par), got, referenceFold(c, tbl, healthy))
			for i, p := range tbl.Parts {
				if i != bad {
					requireBitIdentical(t, fmt.Sprintf("%s after panics, partition %d", q, i), c.EvalPartition(p), c.EvalPartitionReference(p))
				}
			}
		}
	}
}

// groupLabelFmt is GroupLabel as it was written with fmt: the rendering the
// strconv version must reproduce byte for byte.
func groupLabelFmt(c *Compiled, key string) string {
	if len(c.groupIdx) == 0 {
		return "<all>"
	}
	malformed := fmt.Sprintf("<malformed key: %d bytes for %d group-by column(s)>", len(key), len(c.groupIdx))
	var parts []string
	b := []byte(key)
	for _, gi := range c.groupIdx {
		col := c.schema.Col(gi)
		if col.IsNumeric() {
			if len(b) < 8 {
				return malformed
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(b[:8]))
			b = b[8:]
			parts = append(parts, fmt.Sprintf("%s=%g", col.Name, v))
		} else {
			if len(b) < 4 {
				return malformed
			}
			code := binary.LittleEndian.Uint32(b[:4])
			b = b[4:]
			if int(code) >= c.dict.Len() {
				parts = append(parts, fmt.Sprintf("%s=<bad code %d>", col.Name, code))
				continue
			}
			parts = append(parts, fmt.Sprintf("%s=%s", col.Name, c.dict.Value(code)))
		}
	}
	if len(b) != 0 {
		return malformed
	}
	return strings.Join(parts, ",")
}

// TestGroupLabelMatchesFmt pins the fmt-free GroupLabel to the old
// fmt.Sprintf("%s=%g") / "%s=%s" rendering over the float shapes %g treats
// specially, every dictionary code including unassigned ones, and every
// malformed-key diagnostic.
func TestGroupLabelMatchesFmt(t *testing.T) {
	tbl := fixture(t, 25)
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 1e6, 123456789, 0.5, -0.25, 1.0 / 3, 2.5e-7, 6.02214076e23,
		1 << 53, 1<<53 - 1, 1<<53 + 2, 1e20, 1e21, 1e22, -1e21, 99999999999999999999, 1e-4, 1e-5,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 5e-324 * 12345,
	}
	codes := []uint32{0, 1, 2, 3, 17, 1 << 16, math.MaxUint32 - 1, math.MaxUint32}
	for _, groupBy := range [][]string{{"x"}, {"cat"}, {"cat", "x"}, {"x", "cat", "d"}, {"cat", "cat"}} {
		c := mustCompile(t, &Query{GroupBy: groupBy, Aggs: []Aggregate{{Kind: Count}}}, tbl)
		var keys []string
		for _, v := range floats {
			for _, code := range codes {
				var key []byte
				for _, gi := range c.groupIdx {
					if c.schema.Col(gi).IsNumeric() {
						key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
					} else {
						key = binary.LittleEndian.AppendUint32(key, code)
					}
				}
				keys = append(keys, string(key))
			}
		}
		whole := keys[0]
		for cut := 0; cut < len(whole); cut++ {
			keys = append(keys, whole[:cut]) // every too-short key
		}
		keys = append(keys, whole+"x", whole+whole, strings.Repeat("z", 100))
		for _, key := range keys {
			if got, want := c.GroupLabel(key), groupLabelFmt(c, key); got != want {
				t.Errorf("GROUP BY %v, key %x: label %q, fmt rendered %q", groupBy, key, got, want)
			}
		}
	}
	c := mustCompile(t, &Query{Aggs: []Aggregate{{Kind: Count}}}, tbl)
	if got, want := c.GroupLabel(""), groupLabelFmt(c, ""); got != want {
		t.Errorf("ungrouped label %q, want %q", got, want)
	}
}

// sharedPoolTable builds a table of three categorical columns over a shared
// dictionary of about dictVals values and two numeric ones: the dictionary
// length fixes the packing slot of every GROUP BY over it.
func sharedPoolTable(t *testing.T, dictVals int, seed int64) *table.Table {
	t.Helper()
	schema := table.MustSchema(
		table.Column{Name: "a", Kind: table.Categorical},
		table.Column{Name: "b", Kind: table.Categorical},
		table.Column{Name: "c", Kind: table.Categorical},
		table.Column{Name: "k", Kind: table.Numeric},
		table.Column{Name: "v", Kind: table.Numeric},
	)
	b, err := table.NewBuilder(schema, 150)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < 900; r++ {
		num := []float64{0, 0, 0, float64(rng.Intn(5)), rng.NormFloat64() * 100}
		cat := make([]string, 5)
		for j := 0; j < 3; j++ {
			cat[j] = fmt.Sprintf("v%d", rng.Intn(dictVals)) // one value pool: the columns share codes
		}
		if err := b.Append(num, cat); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

// TestScratchSharedAcrossQueries runs queries of every grouping shape,
// interleaved, through the one package-wide scratch pool: a scratch — its
// buffers, and above all its group table — arrives shaped by whichever query
// used it last, over whichever table. On the 50-value dictionary (6-bit
// slots) one and two GROUP BY columns are direct-indexed tables of 64 and
// 4 096 entries and three are hashed; on the 100-value one (7 bits) one
// column is a direct table of 128 and two or three are hashed. The rotation therefore
// hands a direct table to a wider direct key, a small hashed table to a
// direct key that indexes past it, and a direct table to the hashed probe,
// at every worker count, and every answer must equal the row-at-a-time
// reference's.
func TestScratchSharedAcrossQueries(t *testing.T) {
	type bound struct {
		tbl *table.Table
		c   *Compiled
	}
	var rotation []bound
	for _, tbl := range []*table.Table{sharedPoolTable(t, 50, 1), sharedPoolTable(t, 100, 2)} {
		for _, groupBy := range [][]string{nil, {"a", "b", "c"}, {"b"}, {"a", "b"}, {"k"}, {"c"}, {"k", "a"}} {
			q := &Query{
				Aggs:    []Aggregate{{Kind: Count}, {Kind: Sum, Expr: Col("v")}, {Kind: Avg, Expr: Col("v"), Filter: &Clause{Col: "k", Op: OpGe, Num: 2}}},
				Pred:    &Clause{Col: "v", Op: OpGt, Num: -120},
				GroupBy: groupBy,
			}
			c, err := Compile(q, tbl)
			if err != nil {
				t.Fatal(err)
			}
			rotation = append(rotation, bound{tbl, c})
		}
	}
	// Interleave the two tables' queries, so that consecutive scans differ in
	// key width as well as in shape.
	half := len(rotation) / 2
	for i := 0; i < half; i += 2 {
		rotation[i], rotation[half+i] = rotation[half+i], rotation[i]
	}
	modes := map[string]bool{}
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for round := 0; round < 3; round++ {
			for _, b := range rotation {
				b.c.Exec = exec.Options{Parallelism: par}
				var sel []WeightedPartition
				for i := range b.tbl.Parts {
					sel = append(sel, WeightedPartition{Part: i, Weight: 1 + float64(i+round)/3})
				}
				ctx := fmt.Sprintf("%s over %d dictionary values, par %d, round %d", b.c.Q, b.tbl.Dict.Len(), par, round)
				got, err := b.c.Estimate(b.tbl, sel)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, ctx, got, referenceFold(b.c, b.tbl, sel))
				p := b.tbl.Parts[round%len(b.tbl.Parts)]
				requireBitIdentical(t, ctx+", one partition", b.c.EvalPartition(p), b.c.EvalPartitionReference(p))
				if b.c.packBits > 0 && len(b.c.groupIdx) > 0 {
					modes[fmt.Sprintf("direct=%v/%d bits", b.c.keyBits() <= directKeyBits, b.c.keyBits())] = true
				}
			}
		}
	}
	if len(modes) != 6 {
		t.Fatalf("the rotation covered group-table shapes %v, want direct, direct and hashed on the small dictionary, direct, hashed and hashed on the large", modes)
	}

	// The same hand-overs on one table value, without a pool's say in which
	// scratch a scan draws: slots are dense and first-seen whatever shape the
	// table was left in.
	var gt groupTable
	rng := rand.New(rand.NewSource(3))
	for step, keyBits := range []uint{14, 7, 12, 18, 3, 12, 0, 14, 6} {
		keys := make([]uint64, 300)
		for i := range keys {
			keys[i] = uint64(rng.Int63()) & (1<<keyBits - 1)
		}
		slots := make([]int32, len(keys))
		gt.begin(keyBits)
		order := gt.resolve(keys, slots, nil)
		seen := map[uint64]int32{}
		for i, k := range keys {
			id, ok := seen[k]
			if !ok {
				id = int32(len(seen))
				seen[k] = id
				if order[id] != k {
					t.Fatalf("step %d (%d-bit keys): slot %d is key %d, first seen was %d", step, keyBits, id, order[id], k)
				}
			}
			if slots[i] != id {
				t.Fatalf("step %d (%d-bit keys): key %d resolved to slot %d, want %d", step, keyBits, k, slots[i], id)
			}
		}
		if len(order) != len(seen) {
			t.Fatalf("step %d (%d-bit keys): %d groups, want %d", step, keyBits, len(order), len(seen))
		}
	}
}

// conjRun is one partition's pass through a traced root conjunction.
type conjRun struct {
	sc *scratch
	// clean: nothing was tallied for the conjunction when the partition began.
	clean bool
	// order lists the children in the order they ran.
	order []int32
}

// traceRoot wraps the kernels of c's root conjunction, every child of which
// must be a clause, so that each partition c evaluates appends a conjRun to
// the returned slice. Sequential scans only.
func traceRoot(c *Compiled) *[]conjRun {
	runs := new([]conjRun)
	cj := c.where
	for i := range cj.kerns {
		i, seed, kern := int32(i), cj.seeds[i], cj.kerns[i]
		cj.seeds[i] = func(p *table.Partition, rows int, out []int32, sc *scratch) []int32 {
			clean := !slices.ContainsFunc(sc.tallies[cj.at:][:len(cj.kerns)], func(t tally) bool { return t != tally{} })
			*runs = append(*runs, conjRun{sc: sc, clean: clean, order: []int32{i}})
			return seed(p, rows, out, sc)
		}
		cj.kerns[i] = func(p *table.Partition, sel []int32, sc *scratch) []int32 {
			last := &(*runs)[len(*runs)-1]
			last.order = append(last.order, i)
			return kern(p, sel, sc)
		}
	}
	return runs
}

// TestScratchSharedAcrossQueriesResetsOrder: the order a scan learns for its
// conjunctions stays in the scratch it learned it in, and scratches are
// pooled across queries, so whoever takes one starts from its own textual
// order with nothing tallied. Query A, three conjuncts written worst-first,
// scans and leaves its scratch holding the reverse order; then a query of
// three other conjuncts, one of five and one without a predicate take it, by
// a scan and by a single-partition call. Without the reset where a scratch
// is taken the first would run in A's order on A's tallies, the second index
// past A's three slots.
func TestScratchSharedAcrossQueriesResetsOrder(t *testing.T) {
	tbl := sharedPoolTable(t, 50, 1)
	lt := func(col string, v float64) Pred { return &Clause{Col: col, Op: OpLt, Num: v} }
	ge := func(col string, v float64) Pred { return &Clause{Col: col, Op: OpGe, Num: v} }
	compile := func(conjuncts ...Pred) *Compiled {
		q := &Query{
			Aggs:    []Aggregate{{Kind: Count}, {Kind: Sum, Expr: Col("v")}},
			GroupBy: []string{"a"},
		}
		if len(conjuncts) > 0 {
			q.Pred = &And{Children: conjuncts}
		}
		c := mustCompile(t, q, tbl)
		c.Exec = exec.Options{Parallelism: 1}
		return c
	}
	var sel []WeightedPartition
	for i := range tbl.Parts {
		sel = append(sel, WeightedPartition{Part: i, Weight: 1 + float64(i)/2})
	}
	scan := func(c *Compiled) {
		t.Helper()
		got, err := c.Estimate(tbl, sel)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, c.Q.String(), got, referenceFold(c, tbl, sel))
	}

	// Every conjunction passes all, most, then few rows: textual order is the
	// worst one, and no child ever empties a partition's selection.
	a := compile(ge("v", -1000), lt("k", 3), lt("v", -100))
	b3 := compile(lt("v", 1000), ge("k", 1), ge("v", 120))
	b5 := compile(lt("v", 1000), ge("k", 0), lt("k", 4), ge("v", -50), ge("v", 100))
	b0 := compile()
	aRuns := traceRoot(a)
	takers := []struct {
		c    *Compiled
		runs *[]conjRun
		// conjuncts, and the one a scan learns to run first: the last.
		n int
	}{
		{b3, traceRoot(b3), 3},
		{b5, traceRoot(b5), 5},
		{b0, new([]conjRun), 0},
	}

	handOvers := 0
	for round := 0; round < 8; round++ {
		for _, b := range takers {
			for _, single := range []bool{false, true} {
				*aRuns = (*aRuns)[:0]
				scan(a)
				if last := (*aRuns)[len(*aRuns)-1]; !slices.Equal(last.order, []int32{2, 1, 0}) {
					t.Fatalf("A's last partition ran its conjuncts as %v: nothing was learned for B to inherit", last.order)
				}
				*b.runs = (*b.runs)[:0]
				if single {
					p := tbl.Parts[round%len(tbl.Parts)]
					requireBitIdentical(t, b.c.Q.String(), b.c.EvalPartition(p), b.c.EvalPartitionReference(p))
				} else {
					scan(b.c)
				}
				if b.n == 0 {
					continue
				}
				first := (*b.runs)[0]
				if !first.clean || !slices.IsSorted(first.order) || len(first.order) != b.n {
					t.Fatalf("round %d, %s: first partition ran its conjuncts as %v, tallies zero: %v; want textual order on a clean slate", round, b.c.Q, first.order, first.clean)
				}
				if last := (*b.runs)[len(*b.runs)-1]; !single && int(last.order[0]) != b.n-1 {
					t.Fatalf("round %d, %s: last partition ran its conjuncts as %v, want the most selective one, the last, learned to be first", round, b.c.Q, last.order)
				}
				if slices.ContainsFunc(*aRuns, func(r conjRun) bool { return r.sc == first.sc }) {
					handOvers++
				}
			}
		}
	}
	if handOvers == 0 {
		t.Fatal("the pool never handed a scratch of A's to another query: the test saw no hand-over")
	}
}

package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ps3/internal/exec"
	"ps3/internal/table"
)

// randomTable builds a table with numeric, date and categorical columns and
// deliberately duplicated/skewed values so that equality predicates and
// group-bys hit real collisions.
func randomTable(t *testing.T, seed int64, rows, rowsPerPart int) *table.Table {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "a", Kind: table.Numeric},
		table.Column{Name: "b", Kind: table.Numeric},
		table.Column{Name: "d", Kind: table.Date},
		table.Column{Name: "cat", Kind: table.Categorical},
		table.Column{Name: "city", Kind: table.Categorical},
	)
	b, err := table.NewBuilder(s, rowsPerPart)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	cats := []string{"red", "green", "blue"}
	cities := []string{"ams", "ber", "cdg", "del", "eze", "fra", "gig", "hnd"}
	for i := 0; i < rows; i++ {
		num := []float64{
			math.Floor(rng.Float64() * 50), // a: coarse values, equality-friendly
			rng.NormFloat64() * 10,         // b: continuous
			float64(rng.Intn(30)),          // d: date-ish day offsets
			0, 0,
		}
		cat := []string{"", "", "", cats[rng.Intn(len(cats))], cities[rng.Intn(len(cities))]}
		if err := b.Append(num, cat); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

// answersBitDiff reports how got differs from want, or "" when the two
// answers contain the same groups with bit-for-bit equal accumulators.
func answersBitDiff(got, want *Answer) string {
	if len(got.Groups) != len(want.Groups) {
		return fmt.Sprintf("%d groups, reference has %d", len(got.Groups), len(want.Groups))
	}
	for g, wv := range want.Groups {
		gv, ok := got.Groups[g]
		if !ok {
			return fmt.Sprintf("missing group %x", g)
		}
		if len(gv) != len(wv) {
			return fmt.Sprintf("group %x has %d comps, reference %d", g, len(gv), len(wv))
		}
		for j := range wv {
			if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) {
				return fmt.Sprintf("group %x comp %d: %v (bits %x) vs reference %v (bits %x)",
					g, j, gv[j], math.Float64bits(gv[j]), wv[j], math.Float64bits(wv[j]))
			}
		}
	}
	return ""
}

// requireBitIdentical fails unless got and want contain the same groups with
// accumulators equal bit-for-bit.
func requireBitIdentical(t *testing.T, ctx string, got, want *Answer) {
	t.Helper()
	if diff := answersBitDiff(got, want); diff != "" {
		t.Fatalf("%s: %s", ctx, diff)
	}
}

// checkQueryEquivalence compares the vectorized and reference paths for one
// query across every partition, plus Selectivity.
func checkQueryEquivalence(t *testing.T, c *Compiled, tbl *table.Table) {
	t.Helper()
	q := c.Q.String()
	for _, p := range tbl.Parts {
		requireBitIdentical(t, q, c.EvalPartition(p), c.EvalPartitionReference(p))
	}
	if got, want := c.Selectivity(tbl), c.SelectivityReference(tbl); got != want {
		t.Fatalf("%s: Selectivity %v != reference %v", q, got, want)
	}
}

// TestVectorizedMatchesReferenceRandomized is the main equivalence contract:
// on a randomized query corpus over a randomized table, the vectorized
// evaluator must be bit-identical to the row-at-a-time reference.
func TestVectorizedMatchesReferenceRandomized(t *testing.T) {
	tbl := randomTable(t, 7, 4_000, 256)
	gen, err := NewGenerator(Workload{
		GroupableCols:  []string{"cat", "city", "d"},
		PredicateCols:  []string{"a", "b", "d", "cat", "city"},
		AggCols:        []string{"a", "b", "d"},
		MaxGroupCols:   3,
		MaxPredClauses: 6,
	}, tbl, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.SampleN(120) {
		checkQueryEquivalence(t, mustCompile(t, q, tbl), tbl)
	}
}

// TestVectorizedMatchesReferenceConstructed covers predicate and aggregate
// shapes the generator rarely (or never) emits: deep NOT/OR nesting, FILTER
// aggregates including always-false filters, IN lists with dictionary-unseen
// values, constant expressions, and multi-column group-bys.
func TestVectorizedMatchesReferenceConstructed(t *testing.T) {
	tbl := randomTable(t, 19, 1_500, 128)
	lt := func(col string, v float64) Pred { return &Clause{Col: col, Op: OpLt, Num: v} }
	ge := func(col string, v float64) Pred { return &Clause{Col: col, Op: OpGe, Num: v} }
	eq := func(col, v string) Pred { return &Clause{Col: col, Op: OpEq, Strs: []string{v}} }
	queries := []*Query{
		// Nested OR of ANDs under a NOT.
		{
			Aggs: []Aggregate{{Kind: Count}, {Kind: Sum, Expr: Col("a")}},
			Pred: &Not{Child: NewOr(
				NewAnd(ge("a", 10), lt("a", 20)),
				NewAnd(eq("cat", "red"), &Not{Child: eq("city", "ams")}),
			)},
		},
		// OR with an always-empty branch (unseen IN values).
		{
			Aggs:    []Aggregate{{Kind: Avg, Expr: Col("b")}},
			GroupBy: []string{"cat"},
			Pred: NewOr(
				&Clause{Col: "city", Op: OpIn, Strs: []string{"zzz", "yyy"}},
				lt("b", 0),
			),
		},
		// != against a dictionary-unseen value passes everything.
		{
			Aggs: []Aggregate{{Kind: Count}},
			Pred: &Clause{Col: "cat", Op: OpNe, Strs: []string{"nope"}},
		},
		// FILTER aggregates: one selective, one rejecting every row.
		{
			GroupBy: []string{"city"},
			Aggs: []Aggregate{
				{Kind: Count, Filter: eq("cat", "green")},
				{Kind: Sum, Expr: Col("a").Add(Col("d")), Filter: lt("a", -1)},
				{Kind: Avg, Expr: Col("b"), Filter: NewOr(eq("cat", "red"), eq("cat", "blue"))},
				{Kind: Count},
			},
			Pred: ge("d", 3),
		},
		// Multi-column group-by mixing categorical and numeric keys.
		{
			GroupBy: []string{"cat", "d", "city"},
			Aggs:    []Aggregate{{Kind: Sum, Expr: Col("b").Sub(Col("a"))}, {Kind: Count}},
			Pred:    lt("d", 20),
		},
		// Single numeric group-by (generic path, 8-byte keys).
		{
			GroupBy: []string{"d"},
			Aggs:    []Aggregate{{Kind: Avg, Expr: Col("a")}},
		},
		// Constant-only expression.
		{
			Aggs: []Aggregate{{Kind: Sum, Expr: LinearExpr{Const: 2.5}}},
			Pred: ge("b", 0),
		},
		// No predicate, no group-by: pure fast path.
		{
			Aggs: []Aggregate{{Kind: Sum, Expr: Col("a")}, {Kind: Avg, Expr: Col("d")}, {Kind: Count}},
		},
	}
	for _, q := range queries {
		c := mustCompile(t, q, tbl)
		checkQueryEquivalence(t, c, tbl)
		// Cross-check GroundTruth at several worker counts against a
		// reference fold in partition order.
		want := c.NewAnswer()
		for _, p := range tbl.Parts {
			want.Merge(c.EvalPartitionReference(p))
		}
		for _, par := range []int{1, 3, 8} {
			c.Exec = exec.Options{Parallelism: par}
			got, _ := c.GroundTruth(tbl)
			requireBitIdentical(t, q.String(), got, want)
		}
	}
}

// TestVectorizedEmptyPartition checks the kernel path on a partition with no
// rows: both evaluators must return an empty answer without touching any
// column slice.
func TestVectorizedEmptyPartition(t *testing.T) {
	tbl := randomTable(t, 3, 100, 50)
	empty := table.NewPartition(tbl.Schema)
	q := &Query{
		GroupBy: []string{"cat"},
		Aggs:    []Aggregate{{Kind: Sum, Expr: Col("a")}, {Kind: Count}},
		Pred:    &Clause{Col: "a", Op: OpGe, Num: 0},
	}
	c := mustCompile(t, q, tbl)
	if got := c.EvalPartition(empty); got.NumGroups() != 0 {
		t.Errorf("EvalPartition(empty) has %d groups, want 0", got.NumGroups())
	}
	if got := c.EvalPartitionReference(empty); got.NumGroups() != 0 {
		t.Errorf("EvalPartitionReference(empty) has %d groups, want 0", got.NumGroups())
	}
}

// TestEvalPartitionConcurrentScratchReuse hammers one Compiled from many
// goroutines through the public (pool-backed) entry point; with -race this
// verifies scratch recycling never shares buffers across evaluations.
func TestEvalPartitionConcurrentScratchReuse(t *testing.T) {
	tbl := randomTable(t, 23, 2_000, 128)
	q := &Query{
		GroupBy: []string{"cat", "d"},
		Aggs: []Aggregate{
			{Kind: Sum, Expr: Col("a").Add(Col("b"))},
			{Kind: Count, Filter: &Clause{Col: "city", Op: OpIn, Strs: []string{"ams", "ber", "cdg"}}},
		},
		Pred: NewOr(
			&Clause{Col: "a", Op: OpLt, Num: 25},
			&Not{Child: &Clause{Col: "cat", Op: OpEq, Strs: []string{"red"}}},
		),
	}
	c := mustCompile(t, q, tbl)
	want := make([]*Answer, len(tbl.Parts))
	for i, p := range tbl.Parts {
		want[i] = c.EvalPartitionReference(p)
	}
	errs := make(chan string, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range tbl.Parts {
				if diff := answersBitDiff(c.EvalPartition(p), want[i]); diff != "" {
					errs <- fmt.Sprintf("partition %d: %s", i, diff)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for diff := range errs {
		t.Error(diff)
	}
}

// storeFixture builds a table whose columns, copied by storeCopy, come out
// in every form a store-v2 block holds: "f" fractional (raw numeric), "n"
// small integers (frame of reference), "w" one integer throughout (a
// zero-width frame), "cat" shuffled categorical codes (bit-packed) and "run"
// clustered ones (run-length).
func storeFixture(t *testing.T, seed int64, rows, rowsPerPart int) *table.Table {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "f", Kind: table.Numeric},
		table.Column{Name: "n", Kind: table.Numeric},
		table.Column{Name: "w", Kind: table.Numeric},
		table.Column{Name: "cat", Kind: table.Categorical},
		table.Column{Name: "run", Kind: table.Categorical},
	)
	b, err := table.NewBuilder(s, rowsPerPart)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		num := []float64{rng.NormFloat64()*100 + 0.25, float64(rng.Intn(300) - 40), 12, 0, 0}
		cat := []string{"", "", "", fmt.Sprintf("c%d", rng.Intn(9)), fmt.Sprintf("r%d", (i/37)%4)}
		if err := b.Append(num, cat); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

// storeCopy re-creates p as a freshly loaded store-v2 block holds it, no
// column read yet: integer-valued numeric columns frame-of-reference packed,
// other numeric ones as their raw bytes, categorical ones run-length encoded
// when that is at most half the rows and bit-packed otherwise. ds counts
// its materializations.
func storeCopy(t *testing.T, s *table.Schema, p *table.Partition, ds *table.DecodeStats) *table.Partition {
	t.Helper()
	rows := p.Rows()
	none := make([][]float64, s.NumCols())
	enc := make([]*table.EncodedCol, s.NumCols())
	for c, col := range s.Cols {
		vals := make([]uint64, rows)
		var err error
		if !col.IsNumeric() {
			var most uint64
			var runVals []uint32
			var runEnds []int32
			for r, code := range p.CatCol(c) {
				vals[r] = uint64(code)
				most = max(most, vals[r])
				if r > 0 && code == runVals[len(runVals)-1] {
					runEnds[len(runEnds)-1]++
				} else {
					runVals, runEnds = append(runVals, code), append(runEnds, int32(r+1))
				}
			}
			if 2*len(runVals) <= rows {
				enc[c], err = table.NewRLECol(rows, runVals, runEnds)
			} else {
				w := uint8(bits.Len64(most))
				enc[c], err = table.NewBitPackedCol(rows, w, bitPack(vals, w))
			}
		} else {
			src := p.NumCol(c)
			lo, hi, whole := math.Inf(1), math.Inf(-1), true
			for _, v := range src {
				lo, hi = min(lo, v), max(hi, v)
				whole = whole && v == math.Trunc(v)
			}
			if whole && hi-lo < 1<<53 {
				for r, v := range src {
					vals[r] = uint64(v - lo)
				}
				w := uint8(bits.Len64(uint64(hi - lo)))
				enc[c], err = table.NewFoRCol(rows, lo, w, bitPack(vals, w))
			} else {
				raw := make([]byte, 8*rows)
				for r, v := range src {
					binary.LittleEndian.PutUint64(raw[8*r:], math.Float64bits(v))
				}
				enc[c], err = table.NewRawNumCol(rows, raw)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	out, err := table.MakeEncodedPartition(s, p.ID, rows, none, make([][]uint32, s.NumCols()), enc, ds)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFirstTouchMatchesReference is the equivalence contract of the encoded
// aggregation and grouping arms: every query is evaluated three times on a
// freshly encoded copy of every partition — cold (first touches: encoded
// arms), warm (second touches: the columns are decoded here) and memoized —
// and each answer is bit-identical to the row-at-a-time reference on the
// decoded original, as are Selectivity and weighted scans at every worker
// count over copies of either age.
func TestFirstTouchMatchesReference(t *testing.T) {
	tbl := storeFixture(t, 29, 3_000, 250)
	s := tbl.Schema
	kinds := map[table.EncKind]bool{}
	for c := range s.Cols {
		kinds[storeCopy(t, s, tbl.Parts[1], nil).EncCol(c).Kind] = true
	}
	if len(kinds) != 4 || storeCopy(t, s, tbl.Parts[1], nil).EncCol(2).Width != 0 {
		t.Fatalf("fixture encodes as %v: every encoding and a zero-width frame must occur", kinds)
	}
	copies := func() *table.Table {
		parts := make([]*table.Partition, len(tbl.Parts))
		for i, p := range tbl.Parts {
			parts[i] = storeCopy(t, s, p, nil)
		}
		return &table.Table{Schema: s, Dict: tbl.Dict, Parts: parts}
	}

	lt := func(col string, v float64) Pred { return &Clause{Col: col, Op: OpLt, Num: v} }
	ge := func(col string, v float64) Pred { return &Clause{Col: col, Op: OpGe, Num: v} }
	queries := []*Query{
		// Every form as aggregate input and as group key, columns distinct.
		{
			GroupBy: []string{"cat", "run"},
			Aggs:    []Aggregate{{Kind: Sum, Expr: Col("f").Sub(Col("n"))}, {Kind: Avg, Expr: Col("w")}, {Kind: Count}},
		},
		// One column as predicate, aggregate and FILTER: touched three times
		// inside the cold pass.
		{
			GroupBy: []string{"run"},
			Aggs:    []Aggregate{{Kind: Sum, Expr: Col("f")}, {Kind: Avg, Expr: Col("f"), Filter: lt("f", 50)}},
			Pred:    ge("f", -80),
		},
		// Raw numeric clauses in seed and narrowing position, under OR / NOT.
		{
			Aggs: []Aggregate{{Kind: Count}, {Kind: Sum, Expr: Col("n")}},
			Pred: NewAnd(lt("f", 120), &Not{Child: NewOr(ge("f", 90), &Clause{Col: "f", Op: OpEq, Num: 0.25})}),
		},
		// Numeric group key (byte keys) beside a run-length one.
		{
			GroupBy: []string{"w", "run", "n"},
			Aggs:    []Aggregate{{Kind: Sum, Expr: Col("n").Add(Col("w"))}},
			Pred:    &Clause{Col: "w", Op: OpNe, Num: 12.5},
		},
		// Header-decided clauses: all pass, none pass.
		{GroupBy: []string{"cat"}, Aggs: []Aggregate{{Kind: Sum, Expr: Col("n")}}, Pred: NewAnd(ge("w", 12), lt("n", 1000))},
		{Aggs: []Aggregate{{Kind: Count}}, Pred: &Clause{Col: "w", Op: OpEq, Num: 13}},
	}
	// Every operator on a raw numeric and a frame-of-reference column, as
	// the seeding clause and as a narrowing one (a column's clauses after its
	// first in a query are second touches), against a value the column holds.
	for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		for _, clause := range []*Clause{{Col: "f", Op: op, Num: tbl.Parts[0].NumCol(0)[3]}, {Col: "n", Op: op, Num: 17}} {
			queries = append(queries,
				&Query{Aggs: []Aggregate{{Kind: Count}}, Pred: clause},
				&Query{Aggs: []Aggregate{{Kind: Count}}, Pred: NewAnd(ge("w", 0), clause)})
		}
	}
	gen, err := NewGenerator(Workload{
		GroupableCols:  []string{"cat", "run", "w"},
		PredicateCols:  []string{"f", "n", "w", "cat", "run"},
		AggCols:        []string{"f", "n", "w"},
		MaxGroupCols:   3,
		MaxPredClauses: 5,
	}, tbl, 31)
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, gen.SampleN(60)...)

	rng := rand.New(rand.NewSource(5))
	for _, q := range queries {
		c := mustCompile(t, q, tbl)
		label := q.String()
		for i, p := range tbl.Parts {
			want := c.EvalPartitionReference(p)
			fresh := storeCopy(t, s, p, nil)
			for _, touch := range []string{"cold", "warm", "memoized"} {
				requireBitIdentical(t, fmt.Sprintf("%s, partition %d, %s", label, i, touch), c.EvalPartition(fresh), want)
			}
		}
		cold, warm := copies(), copies()
		for _, p := range warm.Parts {
			c.EvalPartition(p)
		}
		wantSel := c.SelectivityReference(tbl)
		for _, src := range []*table.Table{cold, warm} {
			if got := c.Selectivity(src); got != wantSel {
				t.Fatalf("%s: Selectivity %v != reference %v", label, got, wantSel)
			}
		}
		var sel []WeightedPartition
		for _, i := range rng.Perm(len(tbl.Parts))[:1+rng.Intn(len(tbl.Parts))] {
			sel = append(sel, WeightedPartition{Part: i, Weight: 0.5 + 4*rng.Float64()})
		}
		want := referenceFold(c, tbl, sel)
		for _, par := range parallelismLevels() {
			c.Exec = exec.Options{Parallelism: par}
			for age, src := range []*table.Table{copies(), warm} {
				got, err := c.Estimate(src, sel)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, fmt.Sprintf("%s, %d-partition scan, par %d, age %d", label, len(sel), par, age), got, want)
			}
		}
	}
}

// TestFirstTouchDecodesNothing: a scan whose aggregate, GROUP BY and
// raw-numeric predicate columns are all distinct materializes no column of a
// freshly loaded partition, and each of them exactly once on the next scan.
func TestFirstTouchDecodesNothing(t *testing.T) {
	tbl := storeFixture(t, 3, 600, 200)
	q := &Query{
		GroupBy: []string{"cat", "run"},
		Aggs:    []Aggregate{{Kind: Sum, Expr: Col("n")}, {Kind: Avg, Expr: Col("w")}},
		Pred:    &Clause{Col: "f", Op: OpLt, Num: 60},
	}
	c := mustCompile(t, q, tbl)
	for i, p := range tbl.Parts {
		var ds table.DecodeStats
		fresh := storeCopy(t, tbl.Schema, p, &ds)
		want := c.EvalPartitionReference(p)
		evals := EncodedKernelEvals()
		for touch, wantCols := range []int64{0, 5, 5} {
			requireBitIdentical(t, fmt.Sprintf("partition %d, touch %d", i, touch+1), c.EvalPartition(fresh), want)
			if cols, _ := ds.Snapshot(); cols != wantCols {
				t.Fatalf("partition %d: %d columns materialized after touch %d, want %d", i, cols, touch+1, wantCols)
			}
		}
		// The in-place raw-numeric clause counts as an encoded evaluation;
		// the decoded loops of the later touches do not.
		if got := EncodedKernelEvals() - evals; got != 1 {
			t.Fatalf("partition %d: %d encoded clause evaluations over three scans, want 1", i, got)
		}
	}
}

// TestRogueCodesFallBackFromEncodedArm: a group-by code wider than the
// dictionary's packing slot, met while keys are built from the encoded
// column on its first touch, still sends the partition to the byte-key
// path, whose answer is the reference's.
func TestRogueCodesFallBackFromEncodedArm(t *testing.T) {
	tbl := storeFixture(t, 8, 400, 200)
	s := tbl.Schema
	c := mustCompile(t, &Query{GroupBy: []string{"run", "cat"}, Aggs: []Aggregate{{Kind: Sum, Expr: Col("n")}, {Kind: Count}}}, tbl)
	rogue := uint32(1) << c.packBits
	rng := rand.New(rand.NewSource(8))
	for _, col := range []int{3, 4} { // bit-packed, run-length
		bad := rogueCopy(t, s, tbl.Parts[0], rogue, rng)
		num, cat := bad.DecodedCols()
		cat = slices.Clone(cat)
		for other := 3; other <= 4; other++ {
			if other != col {
				cat[other] = tbl.Parts[0].CatCol(other)
			}
		}
		if col == 4 { // keep the rogue code in runs, or the copy would bit-pack it
			for r := range cat[4] {
				if (r/37)%4 == 1 {
					cat[4][r] = rogue
				} else {
					cat[4][r] = tbl.Parts[0].CatCol(4)[r]
				}
			}
		}
		bad, err := table.MakePartition(s, 0, bad.Rows(), num, cat)
		if err != nil {
			t.Fatal(err)
		}
		fresh := storeCopy(t, s, bad, nil)
		if kind := fresh.EncCol(col).Kind; (kind == table.EncRLE) != (col == 4) {
			t.Fatalf("column %d of the corrupted copy encodes as %v", col, kind)
		}
		sc := &scratch{}
		pt := c.evalPartition(fresh, sc)
		if pt.bytes == nil {
			t.Fatalf("column %d: a code past the packing slot stayed on the packed path", col)
		}
		want := c.EvalPartitionReference(bad)
		requireBitIdentical(t, fmt.Sprintf("rogue code in column %d, cold", col), c.answer(pt), want)
		requireBitIdentical(t, fmt.Sprintf("rogue code in column %d, warm", col), c.EvalPartition(fresh), want)
	}
}

package query

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"ps3/internal/exec"
	"ps3/internal/table"
	"ps3/internal/testutil"
)

// mapRendering is the oracle of the ordered rendering: what a response held
// before there was one — the map answer put through FinalValues and
// GroupLabel and sorted by label.
func mapRendering(c *Compiled, ans *Answer) []Group {
	var out []Group
	//lint:mapiter-ok sorted by label immediately below
	for key, vals := range c.FinalValues(ans) {
		out = append(out, Group{Label: c.GroupLabel(key), Values: vals})
	}
	slices.SortStableFunc(out, func(a, b Group) int { return strings.Compare(a.Label, b.Label) })
	return out
}

// valueBits orders value vectors by their bits, to compare runs of groups
// whose labels are equal as sets.
func valueBits(a, b Group) int {
	return slices.CompareFunc(a.Values, b.Values, func(x, y float64) int {
		return cmp.Compare(math.Float64bits(x), math.Float64bits(y))
	})
}

// requireSameGroups fails unless got is want label for label and bit for
// bit, in ascending strings.Compare order. Groups whose labels are equal may
// come in either order (the oracle's sort leaves it open) but every one of
// them must be there.
func requireSameGroups(t *testing.T, ctx string, got, want []Group) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil groups: a response marshals them as null, not []", ctx)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", ctx, len(got), len(want))
	}
	for i := 0; i < len(got); {
		if got[i].Label != want[i].Label {
			t.Fatalf("%s: group %d is %q, want %q", ctx, i, got[i].Label, want[i].Label)
		}
		if i > 0 && strings.Compare(got[i-1].Label, got[i].Label) > 0 {
			t.Fatalf("%s: group %d %q sorts before its predecessor %q", ctx, i, got[i].Label, got[i-1].Label)
		}
		j := i + 1
		for j < len(got) && want[j].Label == want[i].Label {
			if got[j].Label != want[i].Label {
				t.Fatalf("%s: group %d is %q, want %q", ctx, j, got[j].Label, want[j].Label)
			}
			j++
		}
		g, w := slices.Clone(got[i:j]), slices.Clone(want[i:j])
		slices.SortFunc(g, valueBits)
		slices.SortFunc(w, valueBits)
		for k := range g {
			if !slices.EqualFunc(g[k].Values, w[k].Values, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("%s: group %q holds %v, want %v", ctx, g[k].Label, g[k].Values, w[k].Values)
			}
		}
		i = j
	}
}

// memoLen is the number of labels c's memo holds.
func memoLen(c *Compiled) int { return len(c.labels.cur.Load().labels) }

// TestOrderedMatchesMapRendering is the contract of the ordered rendering:
// for seeded random queries over storeFixture — ungrouped, one or two
// categorical GROUP BY columns (packed keys, the memo), a numeric one (byte
// keys) and the packed ones forced onto byte keys — EstimateGroupsCtx equals
// the map answer of EstimateCtx put through FinalValues, GroupLabel and a
// sort by label, label for label and bit for bit. Each query runs over
// several selections that see different subsets of its groups, so its memo is
// met empty, grown by later selections and warm; over decoded partitions and
// store-v2 copies read for the first time and again; at every worker count.
func TestOrderedMatchesMapRendering(t *testing.T) {
	// Partitions of 60 rows hold two or three of run's four values each, so
	// what a selection sees of a query's groups depends on the selection.
	tbl := storeFixture(t, 61, 2_400, 60)
	s := tbl.Schema
	copies := func() *table.Table {
		parts := make([]*table.Partition, len(tbl.Parts))
		for i, p := range tbl.Parts {
			parts[i] = storeCopy(t, s, p, nil)
		}
		return &table.Table{Schema: s, Dict: tbl.Dict, Parts: parts}
	}
	warm := copies()
	g := &predGen{rng: rand.New(rand.NewSource(67)), tbl: tbl}
	rng := rand.New(rand.NewSource(71))
	ctx := context.Background()
	var cold, grown, hits, byteKeyed, ungrouped int
	for qi := 0; qi < 240; qi++ {
		q := g.query()
		c := mustCompile(t, q, tbl)
		generic := forcedGeneric(c)
		oracle := mustCompile(t, q, tbl)
		oracle.Exec = exec.Options{Parallelism: 1}
		if c.packBits == 0 {
			byteKeyed++
		} else if len(q.GroupBy) == 0 {
			ungrouped++
		}
		for si, size := range []int{1, 2, 5, len(tbl.Parts) / 2, len(tbl.Parts)} {
			var sel []WeightedPartition
			for _, i := range rng.Perm(len(tbl.Parts))[:size] {
				sel = append(sel, WeightedPartition{Part: i, Weight: 0.25 + 3*rng.Float64()})
			}
			ans, err := oracle.EstimateCtx(ctx, tbl, sel)
			if err != nil {
				t.Fatal(err)
			}
			want := mapRendering(oracle, ans)
			for _, par := range parallelismLevels() {
				for _, form := range []struct {
					name string
					src  *table.Table
				}{{"decoded", tbl}, {"cold", copies()}, {"warm", warm}} {
					for _, cc := range []*Compiled{c, generic} {
						cc.Exec = exec.Options{Parallelism: par}
						before := memoLen(c)
						got, err := cc.EstimateGroupsCtx(ctx, form.src, sel)
						if err != nil {
							t.Fatal(err)
						}
						requireSameGroups(t, fmt.Sprintf("query %d (%s), selection %d, %s, %d packing bits, par %d", qi, q, si, form.name, cc.packBits, par), got, want)
						switch after := memoLen(c); {
						case cc.packBits == 0 || len(got) == 0:
							if after != before {
								t.Fatalf("query %d (%s): the memo grew from %d to %d labels on an answer that has no use for it", qi, q, before, after)
							}
						case before == 0:
							cold++
						case after > before:
							grown++
						default:
							hits++
						}
					}
				}
			}
		}
	}
	t.Logf("packed answers: %d on an empty memo, %d growing one, %d warm; %d byte-keyed queries, %d ungrouped", cold, grown, hits, byteKeyed, ungrouped)
	if cold < 40 || grown < 20 || hits < 500 || byteKeyed < 20 || ungrouped < 10 {
		t.Fatalf("the corpus no longer covers every memo state: %d cold, %d grown, %d warm, %d byte-keyed queries, %d ungrouped", cold, grown, hits, byteKeyed, ungrouped)
	}
}

// pairTable builds a table of two categorical columns x and y holding every
// pair of vals, rows spread over parts partitions in pair order, and a
// numeric column v.
func pairTable(t *testing.T, vals []string, rowsPerPart int) *table.Table {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "x", Kind: table.Categorical},
		table.Column{Name: "y", Kind: table.Categorical},
		table.Column{Name: "v", Kind: table.Numeric},
	)
	b, err := table.NewBuilder(s, rowsPerPart)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range vals {
		for j, y := range vals {
			if err := b.Append([]float64{0, 0, float64(1 + i*len(vals) + j)}, []string{x, y, ""}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Finish()
}

// TestOrderedAdversarialLabels: dictionary values that contain the label
// syntax itself, are prefixes of one another, are empty or are not ASCII.
// Order is strings.Compare over the rendered labels whatever the values hold
// — "x=a,y=b" before "x=a,,y=" before "x=ab,y=" — and two keys that render
// the same label ("x=a,y=b,y=c" from (a | b,y=c) and from (a,y=b | c)) are
// two groups: neither swallows the other, in the memo or out of it.
func TestOrderedAdversarialLabels(t *testing.T) {
	vals := []string{"", "a", "a,", "a,b", "a=b", "ab", "é", "a,y=b", "c", "b,y=c"}
	tbl := pairTable(t, vals, 7)
	ctx := context.Background()
	for _, groupBy := range [][]string{{"x"}, {"y", "x"}, {"x", "y"}} {
		q := &Query{GroupBy: groupBy, Aggs: []Aggregate{{Kind: Sum, Expr: Col("v")}, {Kind: Count}}}
		c := mustCompile(t, q, tbl)
		if c.packBits == 0 {
			t.Fatalf("%s compiled to byte keys", q)
		}
		rng := rand.New(rand.NewSource(5))
		for round := 0; round < 8; round++ {
			var sel []WeightedPartition
			for _, i := range rng.Perm(len(tbl.Parts))[:1+rng.Intn(len(tbl.Parts))] {
				sel = append(sel, WeightedPartition{Part: i, Weight: 1 + float64(round)})
			}
			if round == 7 {
				sel = sel[:0]
				for i := range tbl.Parts {
					sel = append(sel, WeightedPartition{Part: i, Weight: 1})
				}
			}
			ans, err := c.EstimateCtx(ctx, tbl, sel)
			if err != nil {
				t.Fatal(err)
			}
			want := mapRendering(c, ans)
			for _, cc := range []*Compiled{c, forcedGeneric(c)} {
				got, err := cc.EstimateGroupsCtx(ctx, tbl, sel)
				if err != nil {
					t.Fatal(err)
				}
				requireSameGroups(t, fmt.Sprintf("%s, round %d, %d packing bits", q, round, cc.packBits), got, want)
			}
			if round < 7 {
				continue
			}
			want2 := len(vals)
			if len(groupBy) == 2 {
				want2 *= len(vals)
			}
			if len(want) != want2 {
				t.Fatalf("%s: %d groups over the whole table, want %d", q, len(want), want2)
			}
			twice := 0
			for i := 1; i < len(want); i++ {
				if want[i].Label == want[i-1].Label {
					twice++
				}
			}
			if (slices.Equal(groupBy, []string{"x", "y"})) != (twice > 0) {
				t.Fatalf("%s: %d labels rendered by two keys; the fixture should have one for GROUP BY x, y alone", q, twice)
			}
		}
	}
}

// wideTable builds a table whose categorical column id holds distinct values
// id0, id1, …, perPart new ones per partition, beside a numeric v.
func wideTable(t *testing.T, parts, perPart int) *table.Table {
	t.Helper()
	s := table.MustSchema(
		table.Column{Name: "id", Kind: table.Categorical},
		table.Column{Name: "v", Kind: table.Numeric},
	)
	b, err := table.NewBuilder(s, perPart)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parts*perPart; i++ {
		if err := b.Append([]float64{0, float64(i % 13)}, []string{fmt.Sprintf("id%d", i), ""}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

// weightOne selects partitions [lo, hi) at weight 1.
func weightOne(lo, hi int) []WeightedPartition {
	var sel []WeightedPartition
	for i := lo; i < hi; i++ {
		sel = append(sel, WeightedPartition{Part: i, Weight: 1})
	}
	return sel
}

// TestLabelMemoIsBounded: a memo never holds more than maxMemoLabels labels.
// An answer that would take it past the bound is rendered for that request
// alone — correctly, and without growing the memo — while answers the memo
// already covers keep using it; an answer wider than the bound never touches
// it at all.
func TestLabelMemoIsBounded(t *testing.T) {
	const parts = 12
	perPart := maxMemoLabels / 4
	tbl := wideTable(t, parts, perPart) // 3 × the bound in distinct groups
	q := &Query{GroupBy: []string{"id"}, Aggs: []Aggregate{{Kind: Sum, Expr: Col("v")}, {Kind: Count}}}
	c := mustCompile(t, q, tbl)
	c.Exec = exec.Options{Parallelism: 1}
	ctx := context.Background()
	check := func(name string, sel []WeightedPartition, wantMemo int) {
		t.Helper()
		ans, err := c.EstimateCtx(ctx, tbl, sel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EstimateGroupsCtx(ctx, tbl, sel)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGroups(t, name, got, mapRendering(c, ans))
		if n := memoLen(c); n != wantMemo {
			t.Fatalf("%s: the memo holds %d labels, want %d (bound %d)", name, n, wantMemo, maxMemoLabels)
		}
	}
	check("wider than the bound, memo empty", weightOne(0, parts), 0)
	check("three quarters of the bound", weightOne(0, 3), 3*perPart)
	check("the same again, warm", weightOne(0, 3), 3*perPart)
	check("two more partitions: past the bound", weightOne(2, 5), 3*perPart)
	check("one more partition: exactly the bound", weightOne(1, 4), maxMemoLabels)
	check("full, and one unknown partition", weightOne(4, 5), maxMemoLabels)
	check("full, covered", weightOne(0, 4), maxMemoLabels)
	check("wider than the bound, memo full", weightOne(0, parts), maxMemoLabels)
}

// TestLabelMemoConcurrentGrowers: goroutines answering one compiled query
// over different selections race to grow its memo (run under -race); every
// answer is the sequential one, and what the memo ends up holding is exactly
// the union of the keys answered with.
func TestLabelMemoConcurrentGrowers(t *testing.T) {
	const parts, perPart = 16, 40
	tbl := wideTable(t, parts, perPart)
	q := &Query{GroupBy: []string{"id"}, Aggs: []Aggregate{{Kind: Avg, Expr: Col("v")}}}
	c := mustCompile(t, q, tbl)
	c.Exec = exec.Options{Parallelism: 1}
	ctx := context.Background()
	sels := make([][]WeightedPartition, parts)
	wants := make([][]Group, parts)
	for i := range sels {
		sels[i] = []WeightedPartition{{Part: i, Weight: 2}, {Part: (i + 5) % parts, Weight: 0.5}}
		oracle := mustCompile(t, q, tbl)
		ans, err := oracle.EstimateCtx(ctx, tbl, sels[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = mapRendering(oracle, ans)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range sels {
					i := (k*3 + w) % parts
					got, err := c.EstimateGroupsCtx(ctx, tbl, sels[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !slices.EqualFunc(got, wants[i], func(a, b Group) bool {
						return a.Label == b.Label && slices.Equal(a.Values, b.Values)
					}) {
						t.Errorf("worker %d, selection %d: %v, want %v", w, i, got, wants[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	tab := c.labels.cur.Load()
	if len(tab.labels) != parts*perPart || len(tab.rank) != parts*perPart {
		t.Fatalf("the memo holds %d labels and %d keys, want the table's %d groups", len(tab.labels), len(tab.rank), parts*perPart)
	}
	if !slices.IsSortedFunc(tab.labels, strings.Compare) {
		t.Fatal("the memo's labels are not in strings.Compare order")
	}
}

// TestOrderedAllocsIndependentOfGroups is the allocation contract of the
// served rendering: once a query's memo knows its groups, rendering an answer
// allocates the groups and the values slab and nothing per group — the whole
// scan allocates the same number of objects for 8 groups as for 2 048. The
// map rendering it replaced on the serving path allocates at least three per
// group (a key string, a label, and the growth of three maps).
func TestOrderedAllocsIndependentOfGroups(t *testing.T) {
	if testutil.RaceDetector {
		t.Skip("sync.Pool sheds pooled scratches at random under -race")
	}
	ctx := context.Background()
	allocs := func(groups int) float64 {
		tbl := wideTable(t, 1, groups)
		tbl.Parts = append(tbl.Parts, tbl.Parts[0]) // every group in both partials
		q := &Query{GroupBy: []string{"id"}, Aggs: []Aggregate{{Kind: Sum, Expr: Col("v")}, {Kind: Avg, Expr: Col("v")}, {Kind: Count}}}
		c := mustCompile(t, q, tbl)
		c.Exec = exec.Options{Parallelism: 1}
		sel := []WeightedPartition{{Part: 0, Weight: 1.5}, {Part: 1, Weight: 2.5}}
		run := func() {
			got, err := c.EstimateGroupsCtx(ctx, tbl, sel)
			if err != nil || len(got) != groups {
				t.Fatalf("%d groups, err %v; want %d", len(got), err, groups)
			}
		}
		run() // builds the memo and warms the pooled scratch
		return testing.AllocsPerRun(50, run)
	}
	few := allocs(8)
	for _, groups := range []int{512, 2048} {
		// A pooled scratch the GC took is rebuilt once; averaged over the runs
		// that is under one allocation.
		if many := allocs(groups); many > few+1 {
			t.Errorf("%.1f allocs per warm scan for %d groups, %.1f for 8: rendering allocates per group", many, groups, few)
		} else {
			t.Logf("%.1f allocs per warm scan for %d groups, %.1f for 8", many, groups, few)
		}
	}
}

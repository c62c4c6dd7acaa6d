package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ps3/internal/exec"
	"ps3/internal/table"
)

// predGen draws random predicate trees over storeFixture's columns: every
// node kind, And nodes of one to four children, columns repeating freely, and
// categorical clauses whose value set resolves partly or wholly empty.
type predGen struct {
	rng *rand.Rand
	tbl *table.Table
}

func (g *predGen) clause() Pred {
	rng := g.rng
	numOps := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	catOps := []Op{OpEq, OpNe, OpIn}
	vals := func(prefix string, n, k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, rng.Intn(n))
		}
		return out
	}
	switch rng.Intn(8) {
	case 0: // raw numeric, against a value the column holds or one it does not
		v := rng.NormFloat64() * 100
		if rng.Intn(2) == 0 {
			p := g.tbl.Parts[rng.Intn(len(g.tbl.Parts))]
			v = p.NumCol(0)[rng.Intn(p.Rows())]
		}
		return &Clause{Col: "f", Op: numOps[rng.Intn(len(numOps))], Num: v}
	case 1: // frame of reference, inside and outside the frame
		return &Clause{Col: "n", Op: numOps[rng.Intn(len(numOps))], Num: float64(rng.Intn(400) - 90)}
	case 2: // zero-width frame: decided from the header
		return &Clause{Col: "w", Op: numOps[rng.Intn(len(numOps))], Num: float64(11 + rng.Intn(3))}
	case 3:
		return &Clause{Col: "cat", Op: catOps[rng.Intn(2)], Strs: vals("c", 9, 1)}
	case 4: // bit-packed membership; c9..c11 are dictionary-unseen
		return &Clause{Col: "cat", Op: OpIn, Strs: vals("c", 12, 2+rng.Intn(2))}
	case 5:
		return &Clause{Col: "run", Op: catOps[rng.Intn(2)], Strs: vals("r", 4, 1)}
	case 6:
		return &Clause{Col: "run", Op: OpIn, Strs: vals("r", 6, 2)}
	default: // constant clause: no value resolves
		col := []string{"cat", "run"}[rng.Intn(2)]
		return &Clause{Col: col, Op: catOps[rng.Intn(3)], Strs: vals("unseen", 3, 1+rng.Intn(2))}
	}
}

func (g *predGen) and(depth int) *And {
	kids := make([]Pred, 1+g.rng.Intn(4))
	for i := range kids {
		kids[i] = g.pred(depth - 1)
	}
	return &And{Children: kids}
}

func (g *predGen) pred(depth int) Pred {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return g.clause()
	}
	switch g.rng.Intn(5) {
	case 0, 1:
		return g.and(depth)
	case 2, 3:
		kids := make([]Pred, 2+g.rng.Intn(2))
		for i := range kids {
			kids[i] = g.pred(depth - 1)
		}
		return &Or{Children: kids}
	default:
		return &Not{Child: g.pred(depth - 1)}
	}
}

func (g *predGen) query() *Query {
	rng := g.rng
	q := &Query{Aggs: []Aggregate{{Kind: Count}, {Kind: Sum, Expr: Col("f").Add(Col("n"))}}}
	switch rng.Intn(8) {
	case 0: // no predicate
	case 1:
		q.Pred = g.pred(2)
	default:
		q.Pred = g.and(3)
	}
	switch rng.Intn(3) {
	case 0:
		q.Aggs = append(q.Aggs, Aggregate{Kind: Avg, Expr: Col("n"), Filter: g.and(2)})
	case 1:
		q.Aggs = append(q.Aggs, Aggregate{Kind: Sum, Expr: Col("w"), Filter: g.pred(2)}, Aggregate{Kind: Count, Filter: g.and(1)})
	}
	groupable := []string{"cat", "run", "w", "n"}
	rng.Shuffle(len(groupable), func(i, j int) { groupable[i], groupable[j] = groupable[j], groupable[i] })
	q.GroupBy = groupable[:rng.Intn(3)]
	return q
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int32 {
	var out [][]int32
	var rec func(cur []int32)
	rec = func(cur []int32) {
		if len(cur) == n {
			out = append(out, slices.Clone(cur))
			return
		}
		for i := int32(0); i < int32(n); i++ {
			if !slices.Contains(cur, i) {
				rec(append(cur, i))
			}
		}
	}
	rec(nil)
	return out
}

// conjNodes returns the [at, at+n) slot range of every And node of c, read
// off the textual order: a node's children are numbered from 0.
func conjNodes(c *Compiled) [][2]int {
	var nodes [][2]int
	for i, k := range c.textual {
		if k == 0 {
			nodes = append(nodes, [2]int{i, i})
		}
		nodes[len(nodes)-1][1]++
	}
	return nodes
}

// TestConjunctionOrderIsNotObservable is the metamorphic contract of the
// ordered-conjunction evaluator: the order a scratch holds for an And node
// decides which columns a scan reads and how many rows each kernel sees, and
// nothing else. For seeded random queries — nested And/Or/Not, repeated
// columns, constant clauses, FILTER conjunctions, zero to two GROUP BY
// columns — every permutation of every And node's children, forced into the
// scratch before the partition is evaluated, gives the answer of the textual
// order and of the row-at-a-time reference, bit for bit, on decoded
// partitions and on store-v2 encoded ones read for the first time and again;
// and a weighted scan, whose workers each learn an order of their own from
// whichever partitions they happen to claim, equals the reference fold at
// every worker count. It fails when any kernel stops compacting in ascending
// row order, because then the order of a conjunction shows in the selection.
func TestConjunctionOrderIsNotObservable(t *testing.T) {
	tbl := storeFixture(t, 43, 2_400, 300)
	s := tbl.Schema
	copies := func() *table.Table {
		parts := make([]*table.Partition, len(tbl.Parts))
		for i, p := range tbl.Parts {
			parts[i] = storeCopy(t, s, p, nil)
		}
		return &table.Table{Schema: s, Dict: tbl.Dict, Parts: parts}
	}
	g := &predGen{rng: rand.New(rand.NewSource(47)), tbl: tbl}
	rng := rand.New(rand.NewSource(53))
	sc := &scratch{}
	nodesSeen, widest := 0, 0
	for qi := 0; qi < 80; qi++ {
		q := g.query()
		c := mustCompile(t, q, tbl)
		nodes := conjNodes(c)
		nodesSeen += len(nodes)

		// orders: the textual one first, then every permutation of each node
		// with the others left textual, then a few of all nodes at once.
		orders := [][]int32{slices.Clone(c.textual)}
		for _, nd := range nodes {
			widest = max(widest, nd[1]-nd[0])
			for _, perm := range permutations(nd[1] - nd[0])[1:] {
				o := slices.Clone(c.textual)
				copy(o[nd[0]:], perm)
				orders = append(orders, o)
			}
		}
		for i := 0; i < 4 && len(nodes) > 1; i++ {
			o := slices.Clone(c.textual)
			for _, nd := range nodes {
				seg := o[nd[0]:nd[1]]
				rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
			}
			orders = append(orders, o)
		}

		for _, pi := range rng.Perm(len(tbl.Parts))[:2] {
			p := tbl.Parts[pi]
			want := c.EvalPartitionReference(p)
			warm := storeCopy(t, s, p, nil)
			c.EvalPartition(warm)
			for oi, order := range orders {
				forms := []struct {
					name string
					part *table.Partition
				}{{"decoded", p}, {"cold", storeCopy(t, s, p, nil)}, {"warm", warm}}
				for _, f := range forms {
					sc.resetOrder(c)
					copy(sc.order, order)
					got := c.evalAnswer(f.part, sc)
					requireBitIdentical(t, fmt.Sprintf("query %d (%s), partition %d %s, order %d %v", qi, q, pi, f.name, oi, order), got, want)
				}
			}
		}

		var sel []WeightedPartition
		for _, i := range rng.Perm(len(tbl.Parts)) {
			sel = append(sel, WeightedPartition{Part: i, Weight: 0.25 + 3*rng.Float64()})
		}
		want := referenceFold(c, tbl, sel)
		for _, par := range parallelismLevels() {
			c.Exec = exec.Options{Parallelism: par}
			for age, src := range []*table.Table{tbl, copies()} {
				got, err := c.Estimate(src, sel)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, fmt.Sprintf("query %d (%s), scan at par %d, age %d", qi, q, par, age), got, want)
			}
		}
		if got, wantSel := c.Selectivity(copies()), c.SelectivityReference(tbl); got != wantSel {
			t.Fatalf("query %d (%s): Selectivity %v != reference %v", qi, q, got, wantSel)
		}
	}
	if nodesSeen < 150 || widest != 4 {
		t.Fatalf("the corpus held %d And nodes, the widest of %d children: want many, up to 4", nodesSeen, widest)
	}
}

// TestSortByPassRate: the order a conjunction leaves behind is its children
// by out/in ascending, ties and children no row reached in place.
func TestSortByPassRate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		order   []int32
		tallies []tally
		want    []int32
	}{
		{"ascending already", []int32{0, 1, 2}, []tally{{10, 1}, {10, 5}, {10, 9}}, []int32{0, 1, 2}},
		{"reversed", []int32{0, 1, 2}, []tally{{10, 9}, {10, 5}, {10, 1}}, []int32{2, 1, 0}},
		{"ties keep their order", []int32{2, 0, 1}, []tally{{10, 5}, {4, 1}, {100, 50}}, []int32{1, 2, 0}},
		{"unreached child in place", []int32{0, 1, 2}, []tally{{10, 9}, {0, 0}, {10, 1}}, []int32{2, 1, 0}},
		{"nothing reached", []int32{1, 0}, []tally{{0, 0}, {0, 0}}, []int32{1, 0}},
		{"different denominators", []int32{0, 1}, []tally{{1000, 501}, {2, 1}}, []int32{1, 0}},
		{"past 64 bits", []int32{0, 1}, []tally{{1 << 62, 1<<61 + 1}, {1 << 62, 1 << 61}}, []int32{1, 0}},
	} {
		got := slices.Clone(tc.order)
		sortByPassRate(got, tc.tallies)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: order %v with tallies %v sorted to %v, want %v", tc.name, tc.order, tc.tallies, got, tc.want)
		}
	}
}

package picker

import (
	"math/rand"
	"reflect"
	"testing"

	"ps3/internal/query"
	"ps3/internal/stats"
	"ps3/internal/table"
)

// collidingStats is a store of two groupable columns whose partitions carry
// three bitmap tuples: 100 share (5, 5), 3 carry (0, 1000003) and 8 carry
// (1, 0), placed at random positions. The last two tuples are distinct
// bitmaps (BitmapK = 25 allows either value) that a polynomial signature
// sig·1000003 + bitmap + 1 maps to the same 2000007. It returns the members
// of the two small groups.
func collidingStats(rng *rand.Rand) (ts *stats.TableStats, small3, small8 []int) {
	schema := table.MustSchema(
		table.Column{Name: "a", Kind: table.Categorical},
		table.Column{Name: "b", Kind: table.Categorical},
	)
	tuples := make([][2]uint32, 0, 111)
	for range 100 {
		tuples = append(tuples, [2]uint32{5, 5})
	}
	for range 3 {
		tuples = append(tuples, [2]uint32{0, 1000003})
	}
	for range 8 {
		tuples = append(tuples, [2]uint32{1, 0})
	}
	rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	ts = &stats.TableStats{Schema: schema, GlobalHH: map[int][]uint32{0: {1}, 1: {1}}}
	for i, tp := range tuples {
		ts.Parts = append(ts.Parts, &stats.PartitionStats{Part: i, Bitmap: map[int]uint32{0: tp[0], 1: tp[1]}})
		switch tp {
		case [2]uint32{0, 1000003}:
			small3 = append(small3, i)
		case [2]uint32{1, 0}:
			small8 = append(small8, i)
		}
	}
	return ts, small3, small8
}

// TestFindOutliersSeparatesCollidingBitmaps checks that partitions group by
// their exact bitmap tuple: two small groups whose tuples a 64-bit signature
// hash merges into one group of 11 — no longer under OutlierAbsSize 10 —
// are each an outlier group.
func TestFindOutliersSeparatesCollidingBitmaps(t *testing.T) {
	ts, small3, small8 := collidingStats(rand.New(rand.NewSource(5)))
	p := &Picker{Cfg: Config{}.withDefaults(), TS: ts}
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}, GroupBy: []string{"a", "b"}}
	outliers, rest := p.findOutliers(q, len(ts.Parts))
	want := append(append([]int(nil), small3...), small8...)
	if !reflect.DeepEqual(outliers, want) {
		t.Fatalf("outliers = %v, want the 3-group %v then the 8-group %v", outliers, small3, small8)
	}
	if len(rest) != 100 {
		t.Fatalf("%d partitions left, want the 100 of the large group", len(rest))
	}
}

// TestFindOutliersMemo checks the memo: a repeated group-by list reads the
// remembered split, which equals the computed one; a lesion copy with
// another outlier threshold and another column list get their own; and a
// rebound picker starts with an empty memo.
func TestFindOutliersMemo(t *testing.T) {
	ts, _, _ := collidingStats(rand.New(rand.NewSource(6)))
	p := &Picker{Cfg: Config{}.withDefaults(), TS: ts, outliers: &outlierMemo{}}
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}, GroupBy: []string{"a", "b"}}
	total := len(ts.Parts)
	out1, rest1 := p.findOutliers(q, total)
	out2, rest2 := p.findOutliers(q, total)
	if &out1[0] != &out2[0] || &rest1[0] != &rest2[0] {
		t.Fatal("the repeated group-by list did not read the memo")
	}
	if cap(out1) != len(out1) || cap(rest1) != len(rest1) {
		t.Fatal("a remembered split is not capacity-clipped: an append would write into the memo")
	}
	wantOut, wantRest := p.groupOutliers([]int{0, 1}, total)
	if !reflect.DeepEqual(out1, wantOut) || !reflect.DeepEqual(rest1, wantRest) {
		t.Fatal("the remembered split differs from the computed one")
	}

	lesion := *p
	lesion.Cfg.OutlierAbsSize = 5 // the 8-group is no longer an outlier
	lo, _ := lesion.findOutliers(q, total)
	if len(lo) != 3 {
		t.Fatalf("a copy with OutlierAbsSize 5 flagged %d partitions, want 3", len(lo))
	}
	// On b alone the groups are the same three.
	if one, _ := p.findOutliers(&query.Query{Aggs: q.Aggs, GroupBy: []string{"b"}}, total); !reflect.DeepEqual(one, wantOut) {
		t.Fatalf("group by b: outliers %v, want %v", one, wantOut)
	}
	if got := len(p.outliers.m); got != 3 {
		t.Fatalf("memo holds %d splits, want 3", got)
	}
	if r := p.Rebound(ts); len(r.outliers.m) != 0 {
		t.Fatal("a rebound picker shares its parent's outlier memo")
	}
}

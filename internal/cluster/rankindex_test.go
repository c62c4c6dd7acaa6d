package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// rankFixture is an n×m matrix whose columns hold what normalized feature
// columns hold: few distinct values (ties), −0 next to +0, one constant
// column, and column nanCol (if ≥ 0) holding a NaN.
func rankFixture(rng *rand.Rand, n, m, nanCol int) []float64 {
	vals := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var v float64
			switch j % 4 {
			case 0:
				v = float64(rng.Intn(5)) // heavy ties
			case 1:
				v = [3]float64{math.Copysign(0, -1), 0, 1}[rng.Intn(3)]
			case 2:
				v = 7 // constant
			default:
				v = rng.NormFloat64()
			}
			vals[i*m+j] = v
		}
	}
	if nanCol >= 0 {
		vals[rng.Intn(n)*m+nanCol] = math.NaN()
	}
	return vals
}

// sameMedian compares two medians as distances see them: equal values (a
// zero of either sign matches the other) or both NaN.
func sameMedian(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestMedianExemplarsIndexedMatchesSorted checks that medians read from the
// rank index are the sorted members' medians and that the exemplars are the
// sorted path's bit for bit: random matrices with ties, ±0, a constant and a
// NaN column, duplicate points, point columns the index does not hold,
// clusters of 1, 2, odd, even and more than 64 members, item counts that are
// not multiples of 64, members in any item order, and an item count past the
// bitmap rule for the smaller clusters, which sort.
func TestMedianExemplarsIndexedMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := []int{1, 2, 3, 4, 5, 8, 13, 64, 65, 90}
	indexed, fellBack := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 260 + rng.Intn(200)
		if trial%10 == 9 {
			n = 64 * 200 // past the rule for clusters of up to 13 members
		}
		m := 4 + rng.Intn(12)
		nanCol := -1
		if trial%3 == 0 {
			nanCol = rng.Intn(m)
		}
		vals := rankFixture(rng, n, m, -1)
		for i := 1; i < n; i++ {
			if rng.Intn(8) == 0 { // duplicate points: equal rows
				copy(vals[i*m:(i+1)*m], vals[(i-1)*m:i*m])
			}
		}
		if nanCol >= 0 {
			vals[rng.Intn(n)*m+nanCol] = math.NaN()
		}
		ranks := NewRankIndex(vals, n, m)

		// A group of distinct items in random order, split into clusters of
		// the listed sizes.
		k := 1 + rng.Intn(len(sizes))
		var labels []int
		for c, sz := range rng.Perm(len(sizes))[:k] {
			for range sizes[sz] {
				labels = append(labels, c)
			}
		}
		rng.Shuffle(len(labels), func(a, b int) { labels[a], labels[b] = labels[b], labels[a] })
		items := rng.Perm(n)[:len(labels)]
		// Point columns: a random subset of index columns, plus one column
		// the index does not hold.
		cols := make([]int32, 0, m+1)
		for _, j := range rng.Perm(m)[:1+rng.Intn(m)] {
			cols = append(cols, int32(j))
		}
		cols = append(cols, -1)
		points := make([][]float64, len(items))
		for i, it := range items {
			row := make([]float64, len(cols))
			for a, j := range cols {
				if j < 0 {
					row[a] = rng.NormFloat64()
				} else {
					row[a] = vals[it*m+int(j)]
				}
			}
			points[i] = row
		}
		a := Assignment{Labels: labels, K: k}
		ix := &MedianIndex{Ranks: ranks, Items: items, Cols: cols}

		got := MedianExemplars(points, a, ix)
		want := MedianExemplars(points, a, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): indexed exemplars %v, sorted %v", trial, n, got, want)
		}

		// The medians themselves, cluster by cluster.
		dim := len(cols)
		rcols := make([]*rankColumn, dim)
		for j, ic := range cols {
			if ic >= 0 && !ranks.column(int(ic)).nan {
				rcols[j] = ranks.column(int(ic))
			}
		}
		if nanCol >= 0 && !ranks.column(nanCol).nan {
			t.Fatalf("trial %d: column %d holds a NaN but is ranked", trial, nanCol)
		}
		bm := make([]uint64, (n+63)/64)
		for _, members := range a.Members() {
			its := make([]int32, len(members))
			for i, m := range members {
				its[i] = int32(items[m])
			}
			if len(members) == 0 {
				continue
			}
			switch {
			case bitmapCheaper(len(members), n):
				indexed++
			case len(members) > 6:
				fellBack++
			}
			wantMed := make([]float64, dim)
			gotMed := make([]float64, dim)
			medianVector(points, members, wantMed, make([]float64, len(members)), nil, nil, nil)
			medianVector(points, members, gotMed, make([]float64, len(members)), rcols, its, bm)
			for j := range wantMed {
				if !sameMedian(gotMed[j], wantMed[j]) {
					t.Fatalf("trial %d: %d members, column %d: indexed median %v, sorted %v", trial, len(members), j, gotMed[j], wantMed[j])
				}
			}
			if slices.ContainsFunc(bm, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("trial %d: rank bitmap not cleared", trial)
			}
		}
	}
	if indexed == 0 || fellBack == 0 {
		t.Fatalf("%d clusters took the indexed path and %d of more than 6 members sorted; want both", indexed, fellBack)
	}
	if bitmapCheaper(1, 1) || bitmapCheaper(6, 64) || !bitmapCheaper(13, 400) || bitmapCheaper(13, 64*200) {
		t.Fatal("the bitmap rule moved")
	}
}

// TestRankIndexExtendedMatchesRebuilt checks that an index extended by new
// items — merged into every built column, NaN arriving with them — equals
// the index built from scratch over the extended matrix, and that unbuilt
// columns stay unbuilt.
func TestRankIndexExtendedMatchesRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		old := 1 + rng.Intn(200)
		n := old + rng.Intn(70)
		m := 8
		vals := rankFixture(rng, n, m, -1)
		if trial%2 == 0 && n > old {
			vals[(old+rng.Intn(n-old))*m+3] = math.NaN()
		}
		base := NewRankIndex(vals[:old*m], old, m)
		for j := 0; j < m; j += 2 {
			base.column(j)
		}
		base.column(3)
		ext := base.Extended(vals, n)
		fresh := NewRankIndex(vals, n, m)
		for j := 0; j < m; j++ {
			c := ext.cols[j].Load()
			if (c == nil) != (base.cols[j].Load() == nil) {
				t.Fatalf("trial %d column %d: built %v after extension, %v before", trial, j, c != nil, base.cols[j].Load() != nil)
			}
			if c == nil {
				continue
			}
			if want := fresh.column(j); !reflect.DeepEqual(c.rank, want.rank) || !slices.EqualFunc(c.sorted, want.sorted, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) || c.nan != want.nan {
				t.Fatalf("trial %d column %d (old %d, n %d): extended column differs from rebuilt", trial, j, old, n)
			}
		}
	}
}

// TestRankIndexConcurrentBuild has goroutines race to build the columns of
// one fresh index — a NaN column among them — and read medians from it; each
// must get the sorted path's exemplars (run under -race in make race).
func TestRankIndexConcurrentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const n, m = 300, 12
	vals := rankFixture(rng, n, m, 5)
	ranks := NewRankIndex(vals, n, m)
	items := rng.Perm(n)[:120]
	cols := make([]int32, m)
	for j := range cols {
		cols[j] = int32(j)
	}
	points := make([][]float64, len(items))
	labels := make([]int, len(items))
	for i, it := range items {
		points[i] = vals[it*m : (it+1)*m]
		labels[i] = i % 10 // clusters of 12: the bitmap serves them
	}
	a := Assignment{Labels: labels, K: 10}
	want := MedianExemplars(points, a, nil)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := MedianExemplars(points, a, &MedianIndex{Ranks: ranks, Items: items, Cols: cols}); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent indexed exemplars %v, sorted %v", got, want)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkMedianExemplars measures the exemplar step at the serving
// benchmark's shape — 400 items, a 40-point group split into 4 or 10
// clusters over 60 ranked columns — sorting (/sorted) against reading the
// rank index (/indexed).
func BenchmarkMedianExemplars(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	const n, m = 400, 60
	vals := rankFixture(rng, n, m, -1)
	for i := range vals {
		vals[i] += rng.Float64() // mostly distinct, like normalized features
	}
	ranks := NewRankIndex(vals, n, m)
	items := rng.Perm(n)[:40]
	slices.Sort(items)
	cols := make([]int32, m)
	points := make([][]float64, len(items))
	for i, it := range items {
		points[i] = vals[it*m : (it+1)*m]
	}
	for j := range cols {
		cols[j] = int32(j)
		ranks.column(j)
	}
	for _, k := range []int{4, 10} {
		labels := make([]int, len(items))
		for i := range labels {
			labels[i] = i % k
		}
		a := Assignment{Labels: labels, K: k}
		for _, v := range []struct {
			name string
			ix   *MedianIndex
		}{{"sorted", nil}, {"indexed", &MedianIndex{Ranks: ranks, Items: items, Cols: cols}}} {
			b.Run(fmt.Sprintf("%s/k=%d", v.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MedianExemplars(points, a, v.ix)
				}
			})
		}
	}
}

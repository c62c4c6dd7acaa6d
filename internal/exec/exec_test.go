package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	cases := []struct {
		par, n, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)},
		{4, 100, 4},
		{4, 2, 2},
		{1, 100, 1},
		{8, 0, 1},
		{-3, 5, min(5, runtime.GOMAXPROCS(0))},
	}
	for _, c := range cases {
		if got := (Options{Parallelism: c.par}).Workers(c.n); got != c.want {
			t.Errorf("Workers(par=%d, n=%d) = %d, want %d", c.par, c.n, got, c.want)
		}
	}
}

func TestMapOrdering(t *testing.T) {
	for _, par := range []int{1, 2, 3, 0} {
		out := Map(100, Options{Parallelism: par}, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if out := Map(0, Options{}, func(i int) int { return i }); len(out) != 0 {
		t.Fatalf("Map(0) returned %d results", len(out))
	}
}

func TestForEachVisitsEachIndexOnce(t *testing.T) {
	const n = 1000
	var counts [n]atomic.Int32
	ForEach(n, Options{Parallelism: 8}, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, par := range []int{1, 4} {
		_, err := MapErr(50, Options{Parallelism: par}, func(i int) (int, error) {
			switch i {
			case 7:
				return 0, errLow
			case 30:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("par=%d: err = %v, want %v", par, err, errLow)
		}
	}
}

func TestMapErrSuccess(t *testing.T) {
	out, err := MapErr(10, Options{Parallelism: 3}, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestReduceExactCounts(t *testing.T) {
	// Integer sums are associative: Reduce must agree with the sequential
	// fold at every worker count.
	want := 0
	for i := 0; i < 997; i++ {
		want += i
	}
	for _, par := range []int{1, 2, 3, 7, 0} {
		got := Reduce(997, Options{Parallelism: par},
			func() int { return 0 },
			func(acc, i int) int { return acc + i },
			func(a, b int) int { return a + b })
		if got != want {
			t.Fatalf("par=%d: Reduce = %d, want %d", par, got, want)
		}
	}
}

func TestReduceReproducible(t *testing.T) {
	// Same Options → byte-identical result, even for an order-sensitive
	// merge (string concatenation exposes any scheduling dependence).
	run := func() string {
		return Reduce(64, Options{Parallelism: 4},
			func() string { return "" },
			func(acc string, i int) string { return acc + fmt.Sprint(i, ",") },
			func(a, b string) string { return a + b })
	}
	first := run()
	for k := 0; k < 10; k++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", k, got, first)
		}
	}
}

func TestBlockBoundsCoverage(t *testing.T) {
	for n := 0; n <= 20; n++ {
		for w := 1; w <= 6; w++ {
			prev := 0
			for b := 0; b < w; b++ {
				lo, hi := blockBounds(n, w, b)
				if lo != prev {
					t.Fatalf("n=%d w=%d b=%d: lo=%d, want %d", n, w, b, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d w=%d b=%d: hi=%d < lo=%d", n, w, b, hi, lo)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d w=%d: blocks cover %d items", n, w, prev)
			}
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	ForEach(100, Options{Parallelism: 4}, func(i int) {
		if i == 13 {
			panic("boom")
		}
	})
}

func TestMapWithOrdering(t *testing.T) {
	for _, par := range []int{1, 2, 3, 0} {
		out := MapWith(100, Options{Parallelism: par},
			func() *int { return new(int) },
			func(w *int, i int) int { *w++; return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// TestMapWithPerWorkerState verifies each worker gets exactly one state
// value and the states collectively see every index exactly once.
func TestMapWithPerWorkerState(t *testing.T) {
	const n, par = 500, 4
	var mu sync.Mutex
	var states []*[]int
	MapWith(n, Options{Parallelism: par},
		func() *[]int {
			s := new([]int)
			mu.Lock()
			states = append(states, s)
			mu.Unlock()
			return s
		},
		func(w *[]int, i int) struct{} {
			*w = append(*w, i)
			return struct{}{}
		})
	if len(states) > par {
		t.Fatalf("newW ran %d times for %d workers", len(states), par)
	}
	visited := make([]int, n)
	for _, s := range states {
		for _, i := range *s {
			visited[i]++
		}
	}
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("index %d visited %d times across worker states", i, v)
		}
	}
}

// TestForEachWithSequentialSingleState: with one worker, a single state is
// threaded through every call in index order.
func TestForEachWithSequentialSingleState(t *testing.T) {
	var made int
	var seen []int
	ForEachWith(10, Options{Parallelism: 1},
		func() *[]int { made++; return &seen },
		func(w *[]int, i int) { *w = append(*w, i) })
	if made != 1 {
		t.Fatalf("newW ran %d times, want 1", made)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("seen[%d] = %d, want %d (sequential order)", i, v, i)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("visited %d indices, want 10", len(seen))
	}
}

// TestForEachCallerIsWorker: a pool of w workers is the calling goroutine
// plus w-1 spawned ones. Every item waits until all w are running, so the
// goroutine count read at that moment (and before any worker may leave) is
// the pool's whole footprint.
func TestForEachCallerIsWorker(t *testing.T) {
	const par = 4
	base := runtime.NumGoroutine()
	var running, counted sync.WaitGroup
	running.Add(par)
	counted.Add(par)
	spawned := make([]int, par)
	ForEach(par, Options{Parallelism: par}, func(i int) {
		running.Done()
		running.Wait()
		spawned[i] = runtime.NumGoroutine() - base
		counted.Done()
		counted.Wait()
	})
	for i, s := range spawned {
		if s != par-1 {
			t.Fatalf("item %d saw %d goroutines beyond the caller's, want %d", i, s, par-1)
		}
	}
}

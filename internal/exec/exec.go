// Package exec is PS3's shared parallel scan engine: a bounded worker pool
// that maps a function over a set of work indices — typically partition ids,
// whose immutable, read-only chunks are embarrassingly parallel to scan —
// with per-worker accumulators and a deterministic merge.
//
// Every primitive is deterministic by construction: Map and MapErr return
// results in index order regardless of which worker computed what, and
// Reduce splits work into contiguous blocks whose boundaries depend only on
// the item count and the resolved worker count, merging block accumulators
// in ascending order. Callers that need results bit-identical to a
// sequential loop (floating-point merges are not associative) use Map and
// fold the ordered results themselves; callers with exact merges (integer
// counts) use Reduce and skip the per-item result allocation.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configures a parallel execution.
type Options struct {
	// Parallelism bounds worker goroutines (0 = GOMAXPROCS), following the
	// knob convention of stats.Options.
	Parallelism int
}

// Workers resolves the worker count for n work items: Parallelism (or
// GOMAXPROCS when zero), clamped to [1, n].
func (o Options) Workers(n int) int {
	w := o.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach calls fn(i) for every i in [0, n) from at most o.Workers(n)
// goroutines, the caller's among them. Indices are handed out dynamically,
// so uneven per-item cost does not idle workers. fn must be safe for
// concurrent invocation. A panic in any fn is re-raised on the caller's
// goroutine after all workers stop.
func ForEach(n int, o Options, fn func(i int)) {
	ForEachWith(n, o, func() struct{} { return struct{}{} }, func(_ struct{}, i int) { fn(i) })
}

// ForEachWith is ForEach with per-worker state: every worker (the calling
// goroutine is one of them) creates one W via newW and passes it to each fn
// call it executes, so scratch buffers are allocated once per worker instead
// of once per item — newW runs at most o.Workers(n) times. fn owns w
// exclusively for the worker's lifetime and never needs to lock it; newW and
// fn must be safe for concurrent invocation across workers.
func ForEachWith[W any](n int, o Options, newW func() W, fn func(w W, i int)) {
	forEachCtx(nil, n, o, newW, fn)
}

// forEachCtx is the one worker-pool implementation behind ForEachWith and
// ForEachWithCtx. A nil ctx disables cancellation entirely (the check
// degenerates to a nil compare, so the context-free entry points pay
// nothing). With a non-nil ctx, workers poll ctx.Err() after claiming an
// index and before running it: an item that started always completes (the
// scan kernels hold no interior cancellation points), and the pool stops
// claiming new items once the context is done. Returns ctx.Err() when at
// least one claimed item was skipped, nil when every index ran — even if
// the context expired while the last items were running. The pool reports
// only incomplete work; the deadline contract ("a request whose context is
// done when the scan joins never returns success") belongs to the caller
// that owns the request, which re-checks ctx after the join
// (query.EstimateCtx).
func forEachCtx[W any](ctx context.Context, n int, o Options, newW func() W, fn func(w W, i int)) error {
	workers := o.Workers(n)
	if workers == 1 {
		st := newW()
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			fn(st, i)
		}
		return nil
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicked  atomic.Bool
		cancelled atomic.Bool
		once      sync.Once
		pval      any
	)
	worker := func() {
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { pval = r })
				panicked.Store(true)
			}
		}()
		st := newW()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || panicked.Load() {
				return
			}
			if ctx != nil && ctx.Err() != nil {
				// Claimed but not run: the caller must learn the scan
				// is incomplete.
				cancelled.Store(true)
				return
			}
			fn(st, i)
		}
	}
	// The calling goroutine is worker 0: it would otherwise park until the
	// pool joins, so running the claim loop on it saves one spawn and one
	// wake-up per call. Its panic is caught like any worker's and re-raised
	// below, after the others have stopped.
	wg.Add(workers - 1)
	for k := 1; k < workers; k++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	if panicked.Load() {
		panic(pval)
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// Map computes fn(i) for every i in [0, n) in parallel and returns the
// results in index order, so a sequential fold over the returned slice
// reproduces the merge order of a plain loop exactly.
func Map[T any](n int, o Options, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, o, func(i int) { out[i] = fn(i) })
	return out
}

// MapWith is Map with per-worker state (see ForEachWith): each worker
// allocates one W and reuses it for every item it computes. Results are
// returned in index order, preserving Map's determinism guarantee.
func MapWith[W, T any](n int, o Options, newW func() W, fn func(w W, i int) T) []T {
	out := make([]T, n)
	ForEachWith(n, o, newW, func(w W, i int) { out[i] = fn(w, i) })
	return out
}

// MapErr is Map for fallible functions. All indices are attempted (errors do
// not cancel in-flight work) and the error with the lowest index wins, so
// the returned error matches what a sequential loop would have reported.
func MapErr[T any](n int, o Options, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, o, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MapErrWith is MapErr with per-worker state (see ForEachWith): each worker
// allocates one W and reuses it for every item it computes. Like MapErr, all
// indices are attempted and the lowest-index error wins, matching what a
// sequential loop would have reported.
func MapErrWith[W, T any](n int, o Options, newW func() W, fn func(w W, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEachWith(n, o, newW, func(w W, i int) { out[i], errs[i] = fn(w, i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Reduce folds step over [0, n) with one accumulator per contiguous block of
// indices and merges the block accumulators in ascending block order. Block
// boundaries depend only on n and o.Workers(n) — never on scheduling — so
// the result is reproducible for fixed Options. For non-associative merges
// the result may still differ across worker counts; use Map plus an ordered
// fold when bit-identity across parallelism levels is required.
func Reduce[A any](n int, o Options, newAcc func() A, step func(acc A, i int) A, merge func(dst, src A) A) A {
	w := o.Workers(n)
	if w == 1 {
		acc := newAcc()
		for i := 0; i < n; i++ {
			acc = step(acc, i)
		}
		return acc
	}
	accs := Map(w, o, func(b int) A {
		lo, hi := blockBounds(n, w, b)
		acc := newAcc()
		for i := lo; i < hi; i++ {
			acc = step(acc, i)
		}
		return acc
	})
	total := accs[0]
	for _, a := range accs[1:] {
		total = merge(total, a)
	}
	return total
}

// blockBounds returns the half-open index range of block b when n items are
// split into w near-equal contiguous blocks (earlier blocks take the
// remainder).
func blockBounds(n, w, b int) (lo, hi int) {
	base := n / w
	extra := n % w
	lo = b*base + min(b, extra)
	hi = lo + base
	if b < extra {
		hi++
	}
	return lo, hi
}

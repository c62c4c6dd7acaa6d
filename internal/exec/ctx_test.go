package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ps3/internal/testutil"
)

// TestForEachWithPanicRepanics: a panic in one worker is re-raised on the
// caller's goroutine with its original value, after every worker has
// stopped — no leak, no deadlock, regardless of worker count.
func TestForEachWithPanicRepanics(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("panic did not propagate to the caller")
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("recovered %v, want \"boom\"", r)
				}
			}()
			ForEachWith(64, Options{Parallelism: workers},
				func() struct{} { return struct{}{} },
				func(_ struct{}, i int) {
					if i == 13 {
						panic("boom")
					}
				})
			t.Fatal("ForEachWith returned normally despite a panicking item")
		})
	}
}

// TestMapErrWithPanicDoesNotDeadlockMerge: MapErrWithCtx's ordered merge
// sits after wg.Wait — a panic mid-map must tear the pool down and re-raise,
// never leave the merge waiting on results that will not come.
func TestMapErrWithPanicDoesNotDeadlockMerge(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	done := make(chan any, 1)
	go func() { //lint:nakedgo-ok test watchdog: bounds the deadlock check, joined via the done channel below
		defer func() { done <- recover() }()
		_, _ = MapErrWithCtx(context.Background(), 128, Options{Parallelism: 4},
			func() int { return 0 },
			func(_ int, i int) (int, error) {
				if i == 50 {
					panic("mid-map")
				}
				return i, nil
			})
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("MapErrWithCtx returned normally despite a panicking item")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("MapErrWithCtx deadlocked after worker panic")
	}
}

// TestForEachWithCtxCancelMidScan: cancelling mid-scan stops the pool's
// context path (MapErrWithCtx) before all items run, returns ctx.Err(),
// and leaks nothing. Items that
// started still complete (item-granular cancellation).
func TestForEachWithCtxCancelMidScan(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const n = 1000
			var ran atomic.Int64
			_, err := MapErrWithCtx(ctx, n, Options{Parallelism: workers},
				func() struct{} { return struct{}{} },
				func(_ struct{}, i int) (struct{}, error) {
					if ran.Add(1) == 10 {
						cancel()
					}
					return struct{}{}, nil
				})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := ran.Load(); got >= n {
				t.Fatalf("all %d items ran despite cancellation", got)
			}
		})
	}
}

// TestForEachWithCtxCompleteRunsEverything: to MapErrWithCtx an
// un-cancelled context is invisible — every index runs exactly once and the error is nil.
func TestForEachWithCtxCompleteRunsEverything(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const n = 500
	counts := make([]atomic.Int32, n)
	_, err := MapErrWithCtx(context.Background(), n, Options{Parallelism: 4},
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (struct{}, error) { counts[i].Add(1); return struct{}{}, nil })
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, c)
		}
	}
}

// TestForEachWithCtxPreCancelled: a context already done at entry of
// MapErrWithCtx runs nothing on the sequential path and at most a handful of items on the
// parallel one (each worker may claim one index before its first check is
// observed — the contract is "stops promptly", not "runs zero").
func TestForEachWithCtxPreCancelled(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapErrWithCtx(ctx, 1000, Options{Parallelism: 4},
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (struct{}, error) { ran.Add(1); return struct{}{}, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("pre-cancelled context ran %d items, want 0", got)
	}
}

// TestMapErrWithCtxMatchesContextFree: on the nil-error path the ctx
// variant is bit-identical to MapErr — same values, same order.
func TestMapErrWithCtxMatchesContextFree(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	fn := func(_ struct{}, i int) (int, error) { return i * i, nil }
	newW := func() struct{} { return struct{}{} }
	want, err := MapErr(300, Options{Parallelism: 4}, func(i int) (int, error) { return fn(struct{}{}, i) })
	if err != nil {
		t.Fatal(err)
	}
	got, err := MapErrWithCtx(context.Background(), 300, Options{Parallelism: 4}, newW, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: ctx variant = %d, context-free = %d", i, got[i], want[i])
		}
	}
}

// TestMapErrWithCtxItemErrorBeatsCancellation: a real item error at a low
// index wins over the cancellation error, matching the sequential-loop
// error convention.
func TestMapErrWithCtxItemErrorBeatsCancellation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	itemErr := errors.New("item 2 failed")
	_, err := MapErrWithCtx(ctx, 100, Options{Parallelism: 2},
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (int, error) {
			if i == 2 {
				cancel()
				return 0, itemErr
			}
			return i, nil
		})
	if !errors.Is(err, itemErr) {
		t.Fatalf("err = %v, want the item error to win over cancellation", err)
	}
}

// TestForEachWithCtxCancelDuringSlowItems: MapErrWithCtx's workers blocked
// inside items when the cancel lands still finish their item and exit; wg.Wait joins
// them all — the test would leak (and fail VerifyNoLeaks) otherwise.
func TestForEachWithCtxCancelDuringSlowItems(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 8)
	_, err := MapErrWithCtx(ctx, 64, Options{Parallelism: 4},
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (struct{}, error) {
			select {
			case started <- struct{}{}:
				if len(started) == 4 {
					cancel()
				}
			default:
			}
			time.Sleep(time.Millisecond)
			return struct{}{}, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

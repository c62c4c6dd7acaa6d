package exec

import "context"

// This file holds the context-aware entry points of the pool. Cancellation
// granularity is the work item: a partition scan that has started runs to
// completion (kernels hold no interior checks), and the pool stops
// claiming further items once the context is done. That bounds
// cancellation latency by the cost of one partition — milliseconds — which
// is the right trade for deadline-driven serving: a finer granularity
// would put branch checks inside the vectorized kernels.

// MapErrWithCtx is MapErr with per-worker state (see ForEachWith), under a
// context (nil disables cancellation). On the nil-error path every fn(i)
// ran exactly once and the returned slice is complete and index-ordered —
// bit-identical to MapErr. On cancellation some indices were never
// attempted, so no partial results are returned. Error priority follows
// the sequential-loop convention: the lowest-index item error wins; a
// cancellation with no item errors returns ctx.Err().
func MapErrWithCtx[W, T any](ctx context.Context, n int, o Options, newW func() W, fn func(w W, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ctxErr := forEachCtx(ctx, n, o, newW, func(w W, i int) { out[i], errs[i] = fn(w, i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return out, nil
}

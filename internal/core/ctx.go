package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"ps3/internal/query"
	"ps3/internal/store"
)

// This file holds the context-aware run path and its graceful-degradation
// policy. Cancellation granularity: the pick phase checks the context at
// entry (picking is CPU-bound and short — sub-millisecond at serving
// budgets); the scan phase observes it between partitions through
// exec.MapErrWithCtx. Degradation policy: quarantined partitions (blocks
// whose bytes failed CRC/decode twice — see store.ErrQuarantined) are
// dropped from the selection and the remainder is served with an explicit
// Degraded flag. Every other error fails the request: transient I/O is
// retryable by the caller, and a wrong answer is never served silently.

// RunCtx is Run under a context deadline.
func (s *System) RunCtx(ctx context.Context, q *query.Query, budgetFrac float64) (*Result, error) {
	c, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	return s.RunCompiledCtx(ctx, c, budgetFrac)
}

// RunCompiledCtx is RunCompiled under a context deadline.
func (s *System) RunCompiledCtx(ctx context.Context, c *query.Compiled, budgetFrac float64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sel, pickStats, err := s.PickWithStats(c.Q, budgetFrac)
	if err != nil {
		return nil, err
	}
	res, err := s.RunSelectionCtx(ctx, c, sel)
	if err != nil {
		return nil, err
	}
	res.PickTime = pickStats.Total
	return res, nil
}

// RunSelectionCtx is RunSelection under a context deadline, with the
// degradation loop (scanDegrading).
func (s *System) RunSelectionCtx(ctx context.Context, c *query.Compiled, sel []query.WeightedPartition) (*Result, error) {
	return s.scanDegrading(sel, func(res *Result, cur []query.WeightedPartition) error {
		ans, err := c.EstimateCtx(ctx, s.Source, cur)
		if err == nil {
			res.Values, res.Labels = finalize(c, ans)
		}
		return err
	})
}

// RunSelectionGroupsCtx is RunSelectionCtx for a caller that renders the
// answer instead of computing with it — the serving path: the same scan over
// the same selection under the same degradation loop, its total finalized
// into Result.Groups (label-ordered, query.Compiled.EstimateGroupsCtx) with
// Values and Labels left nil and no map built on the way.
func (s *System) RunSelectionGroupsCtx(ctx context.Context, c *query.Compiled, sel []query.WeightedPartition) (*Result, error) {
	return s.scanDegrading(sel, func(res *Result, cur []query.WeightedPartition) (err error) {
		res.Groups, err = c.EstimateGroupsCtx(ctx, s.Source, cur)
		return err
	})
}

// scanDegrading runs scan over sel under the degradation loop: when the scan
// hits a quarantined partition, that partition — and any others the source
// has already fenced — is dropped from the selection and the scan retries
// over the survivors. scan fills the answer fields of the Result it is given
// in whichever rendering its caller wants; everything else is filled here.
// The result carries Degraded=true and the dropped ids in SkippedParts;
// weights are not rescaled, so a degraded answer covers strictly less data
// than the picker chose and the client is told so. If every selected
// partition is quarantined there is nothing left to serve and the call
// errors.
func (s *System) scanDegrading(sel []query.WeightedPartition, scan func(res *Result, cur []query.WeightedPartition) error) (*Result, error) {
	scanStart := time.Now()
	cur := sel
	var skipped []int
	for {
		res := &Result{}
		err := scan(res, cur)
		if err == nil {
			sort.Ints(skipped)
			res.Selection = cur
			res.PartsRead = len(cur)
			res.FracRead = float64(len(cur)) / float64(s.Source.NumParts())
			res.ScanTime = time.Since(scanStart)
			res.Degraded = len(skipped) > 0
			res.SkippedParts = skipped
			return res, nil
		}
		var qe *store.QuarantineError
		if !errors.As(err, &qe) {
			return nil, err
		}
		// Drop the partition the scan tripped on plus everything the source
		// has already fenced — one pass usually clears the whole set, so the
		// retry does not trip partition-by-partition.
		drop := map[int]bool{qe.Part: true}
		if h, ok := s.Source.(healthReporter); ok {
			for _, p := range h.Health().QuarantinedParts {
				drop[p] = true
			}
		}
		next := make([]query.WeightedPartition, 0, len(cur))
		for _, wp := range cur {
			if drop[wp.Part] {
				skipped = append(skipped, wp.Part)
			} else {
				next = append(next, wp)
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("core: every selected partition is quarantined: %w", err)
		}
		if len(next) == len(cur) {
			// The quarantine error named a partition outside the selection —
			// nothing to drop, so retrying would loop forever.
			return nil, err
		}
		cur = next
	}
}

// RunExactCtx is RunExact under a context deadline. Exact means exact:
// a quarantined partition fails the call rather than degrading it — there
// is no honest partial answer to an exact query.
func (s *System) RunExactCtx(ctx context.Context, q *query.Query) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	var total *query.Answer
	if s.Table != nil {
		total, _ = c.GroundTruth(s.Table)
	} else {
		all := make([]query.WeightedPartition, s.Source.NumParts())
		for i := range all {
			all[i] = query.WeightedPartition{Part: i, Weight: 1}
		}
		total, err = c.EstimateCtx(ctx, exactScanSource(s.Source), all)
		if err != nil {
			return nil, err
		}
	}
	vals, labels := finalize(c, total)
	return &Result{
		Values:    vals,
		Labels:    labels,
		PartsRead: s.Source.NumParts(),
		FracRead:  1,
	}, nil
}

// finalize turns a scan's answer into a Result's Values and Labels.
func finalize(c *query.Compiled, ans *query.Answer) (map[string][]float64, map[string]string) {
	vals := c.FinalValues(ans)
	labels := make(map[string]string, len(vals))
	for g := range vals { //lint:mapiter-ok independent per-key map-to-map transform; order-free
		labels[g] = c.GroupLabel(g)
	}
	return vals, labels
}

// healthReporter is the optional capability a source offers for reporting
// quarantine state (store.Reader.Health; ingest's multi-segment source
// aggregates its segments').
type healthReporter interface {
	Health() store.HealthStats
}

package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"ps3/internal/core"
	"ps3/internal/metrics"
	"ps3/internal/serve"
)

const (
	// verifyQueries pool queries are served, run directly, served again and
	// compared bit for bit.
	verifyQueries = 64
	// auditQueries fixed held-out queries (auditSeed, the same for every
	// -seed) measure rel_err_avg: like a fixed test set, the figure is then
	// a property of the build, not of the seed's draw. At 64 seed-drawn
	// queries the mean error moved by a third between seeds.
	auditQueries = 256
)

// verify is the correctness pass: served answers against the system run
// directly on the same snapshot, pick-cache hits against misses, and the
// paper's error metric against the exact answer. It also settles the
// figures that need a quiescent write path (space, exact-scan rate).
func (r *run) verify() error {
	sys, res, budget := r.sys, r.res, r.w.Budget
	if sys.pipe != nil {
		// Top the building partition up to its seal size and flush, so
		// every appended row is in a segment, the live WAL is empty and the
		// installed snapshot is final: the space figure then describes
		// flushed data, independent of where in a partition the run ended.
		rpp := sys.spec.Rows / sys.spec.Parts
		for need := (rpp - sys.pipe.Stats().PendingRows%rpp) % rpp; need > 0; {
			b := r.plan.batches[need%len(r.plan.batches)]
			n := min(need, len(b.num))
			if err := sys.pipe.AppendRows(b.num[:n], b.cat[:n]); err != nil {
				return fmt.Errorf("top-up append: %w", err)
			}
			sys.events.acked.Add(int64(n))
			need -= n
		}
		if err := sys.pipe.Flush(); err != nil {
			return fmt.Errorf("final flush: %w", err)
		}
		if ev := sys.events.snapshot(); ev.swapErrs > 0 {
			res.fail("%d snapshot swaps failed", ev.swapErrs)
		}
	}

	disk, err := sys.diskBytes()
	if err != nil {
		return err
	}
	userBytes := sys.logicalBytes
	if sys.events != nil {
		userBytes += sys.events.acked.Load() * sys.rowBytes
	}
	spaceRatio := float64(disk) / float64(userBytes)

	live := sys.srv.System()
	serveOne := func(text string) *serve.Response {
		resp, err := sys.srv.QuerySQLCtx(context.Background(), text, budget)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.fail("verify: serving %q: %v", text, err)
			return nil
		}
		return resp
	}
	for i := 0; i < min(verifyQueries, len(r.plan.queries)); i++ {
		q, text := r.plan.queries[i], r.plan.sqls[i]
		first := serveOne(text)
		if first == nil {
			continue
		}
		c, err := live.Compile(q)
		if err != nil {
			return err
		}
		direct, err := live.RunCompiled(c, budget)
		if err != nil {
			return err
		}
		if diff := compareGroups(first.Groups, labelled(direct)); diff != "" || first.PartsRead != direct.PartsRead {
			res.fail("verify: served answer differs from System.RunCompiled for %q: %s (parts read %d vs %d)", text, diff, first.PartsRead, direct.PartsRead)
		}
		again := serveOne(text)
		if again == nil {
			continue
		}
		if !again.PickCached {
			res.fail("verify: second serve of %q missed the pick cache", text)
		}
		if diff := compareGroups(first.Groups, again.Groups); diff != "" || first.PartsRead != again.PartsRead {
			res.fail("verify: pick-cache hit differs from its miss for %q: %s", text, diff)
		}
	}

	// The accuracy audit: each audit query served, then run exactly.
	var relErr []float64
	var exactNs int64
	for _, q := range r.plan.audit {
		resp := serveOne(renderSQL(q))
		if resp == nil {
			continue
		}
		t0 := time.Now()
		exact, err := live.RunExact(q)
		exactNs += int64(time.Since(t0))
		if err != nil {
			return err
		}
		relErr = append(relErr, metrics.Compare(byLabel(labelled(exact)), byLabel(resp.Groups)).AvgRelErr)
	}

	if r.o.trace {
		r.layer["core.exact_rows_per_s"] = ratio(float64(len(relErr))*float64(live.Source.NumRows()), float64(exactNs)/1e9)
		r.layer["store.bytes_per_user_byte"] = spaceRatio
		return nil
	}
	res.set("rel_err_avg", mean(relErr))
	res.set("store_bytes_per_user_byte", spaceRatio)
	r.logf("  %-26s %12.6f ratio  mean over %d fixed audit queries at budget %.2f (served vs RunExact)\n", "rel_err_avg", mean(relErr), len(relErr), budget)
	r.logf("  %-26s %12.6f ratio  %d B on disk for %d logical B\n", "store_bytes_per_user_byte", spaceRatio, disk, userBytes)
	return nil
}

// labelled shapes a direct result as the server shapes a response: one
// group per label, sorted by label.
func labelled(res *core.Result) []serve.Group {
	out := make([]serve.Group, 0, len(res.Values))
	for g, vals := range res.Values { //lint:mapiter-ok groups are fully sorted by label immediately below
		out = append(out, serve.Group{Label: res.Labels[g], Values: vals})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Label < out[b].Label })
	return out
}

// byLabel indexes groups for metrics.Compare.
func byLabel(groups []serve.Group) map[string][]float64 {
	m := make(map[string][]float64, len(groups))
	for _, g := range groups {
		m[g.Label] = g.Values
	}
	return m
}

// compareGroups checks two label-sorted answers bit for bit. It returns ""
// when they agree, else the first difference.
func compareGroups(got, want []serve.Group) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d groups vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Label != want[i].Label {
			return fmt.Sprintf("group %d label %q vs %q", i, got[i].Label, want[i].Label)
		}
		if len(got[i].Values) != len(want[i].Values) {
			return fmt.Sprintf("group %q has %d values vs %d", got[i].Label, len(got[i].Values), len(want[i].Values))
		}
		for j := range got[i].Values {
			if math.Float64bits(got[i].Values[j]) != math.Float64bits(want[i].Values[j]) {
				return fmt.Sprintf("group %q value %d: %v vs %v", got[i].Label, j, got[i].Values[j], want[i].Values[j])
			}
		}
	}
	return ""
}

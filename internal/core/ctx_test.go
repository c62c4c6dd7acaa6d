package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"ps3/internal/fault"
	"ps3/internal/query"
	"ps3/internal/store"
)

// storeBackedWithInjector restores a trained system over an on-disk store
// opened through a fault injector, alongside a healthy twin over the same
// bytes for reference answers.
func storeBackedWithInjector(t *testing.T) (faulty, healthy *System, test []*query.Query, inj *fault.Injector) {
	t.Helper()
	sys, _, test := buildSystem(t, 20)
	path := filepath.Join(t.TempDir(), "t.ps3")
	if _, err := store.WriteFileFS(fault.OS, path, sys.Table, store.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	var snapBuf bytes.Buffer
	if _, err := sys.WriteTo(&snapBuf); err != nil {
		t.Fatal(err)
	}
	snap := snapBuf.Bytes()

	inj = fault.NewInjector(fault.OS, 1)
	r, err := store.OpenFS(inj, path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	faulty, err = OpenSnapshot(bytes.NewReader(snap), r)
	if err != nil {
		t.Fatal(err)
	}

	r2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r2.Close() })
	healthy, err = OpenSnapshot(bytes.NewReader(snap), r2)
	if err != nil {
		t.Fatal(err)
	}
	return faulty, healthy, test, inj
}

// quarantinePart deterministically fences one partition of the system's
// reader: corrupt every read, touch exactly that partition (load + retry
// both see bad bytes → quarantine), then clear the schedule.
func quarantinePart(t *testing.T, s *System, inj *fault.Injector, part int) {
	t.Helper()
	inj.AddRule(&fault.Rule{Op: fault.OpRead, FailAt: 1, Corrupt: true})
	if _, err := s.Source.Read(part); !errors.Is(err, store.ErrQuarantined) {
		t.Fatalf("quarantining part %d: err = %v, want ErrQuarantined", part, err)
	}
	inj.ClearRules()
}

// TestRunSelectionCtxDegradesOnQuarantine: a selection containing a
// quarantined partition serves the survivors with Degraded=true and
// SkippedParts naming the fenced partition — and the degraded values are
// bit-identical to honestly scanning the filtered selection on a healthy
// reader. Never a silently wrong answer: the degradation is exact and
// declared.
func TestRunSelectionCtxDegradesOnQuarantine(t *testing.T) {
	faulty, healthy, test, inj := storeBackedWithInjector(t)
	q := test[0]

	sel, err := faulty.Pick(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) < 2 {
		t.Fatalf("selection of %d partitions is too small for the test", len(sel))
	}
	victim := sel[len(sel)/2].Part
	quarantinePart(t, faulty, inj, victim)

	c, err := faulty.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := faulty.RunSelectionCtx(context.Background(), c, sel)
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded = false for a selection with a quarantined partition")
	}
	if len(res.SkippedParts) != 1 || res.SkippedParts[0] != victim {
		t.Fatalf("SkippedParts = %v, want [%d]", res.SkippedParts, victim)
	}
	if res.PartsRead != len(sel)-1 {
		t.Fatalf("PartsRead = %d, want %d", res.PartsRead, len(sel)-1)
	}

	// Reference: the same filtered selection on the healthy twin.
	filtered := make([]query.WeightedPartition, 0, len(sel)-1)
	for _, wp := range sel {
		if wp.Part != victim {
			filtered = append(filtered, wp)
		}
	}
	hc, err := healthy.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := healthy.RunSelectionCtx(context.Background(), hc, filtered)
	if err != nil {
		t.Fatal(err)
	}
	if want.Degraded {
		t.Fatal("healthy reference run reported Degraded")
	}
	if len(res.Values) != len(want.Values) {
		t.Fatalf("degraded run has %d groups, filtered reference %d", len(res.Values), len(want.Values))
	}
	for g, wv := range want.Values {
		gv, ok := res.Values[g]
		if !ok {
			t.Fatalf("group %q missing from degraded run", want.Labels[g])
		}
		for j := range wv {
			if gv[j] != wv[j] {
				t.Fatalf("group %q agg %d: degraded %v, filtered reference %v (must be bit-identical)",
					want.Labels[g], j, gv[j], wv[j])
			}
		}
	}
}

// TestRunSelectionCtxAllQuarantined: nothing left to serve is an error,
// not an empty answer.
func TestRunSelectionCtxAllQuarantined(t *testing.T) {
	faulty, _, test, inj := storeBackedWithInjector(t)
	q := test[1]
	sel, err := faulty.Pick(q, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, wp := range sel {
		quarantinePart(t, faulty, inj, wp.Part)
	}
	c, err := faulty.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faulty.RunSelectionCtx(context.Background(), c, sel); !errors.Is(err, store.ErrQuarantined) {
		t.Fatalf("fully quarantined selection: err = %v, want ErrQuarantined", err)
	}
}

// TestRunExactCtxFailsOnQuarantine: exact runs refuse to degrade.
func TestRunExactCtxFailsOnQuarantine(t *testing.T) {
	faulty, _, test, inj := storeBackedWithInjector(t)
	quarantinePart(t, faulty, inj, 0)
	if _, err := faulty.RunExactCtx(context.Background(), test[0]); !errors.Is(err, store.ErrQuarantined) {
		t.Fatalf("exact over quarantined store: err = %v, want ErrQuarantined", err)
	}
}

// TestRunCompiledCtxHonoursCancellation: a pre-cancelled context returns
// context.Canceled without serving.
func TestRunCompiledCtxHonoursCancellation(t *testing.T) {
	faulty, _, test, _ := storeBackedWithInjector(t)
	c, err := faulty.Compile(test[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := faulty.RunCompiledCtx(ctx, c, 0.2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCtxMatchesRun: under a deadline that does not fire, the ctx path is
// bit-identical to the context-free one.
func TestRunCtxMatchesRun(t *testing.T) {
	_, healthy, test, _ := storeBackedWithInjector(t)
	for _, q := range test[:3] {
		want, err := healthy.Run(q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := healthy.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		got, err := healthy.RunCompiledCtx(ctx, c, 0.2)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		for g, wv := range want.Values {
			gv, ok := got.Values[g]
			if !ok {
				t.Fatalf("query %s: group %q missing from ctx run", q, want.Labels[g])
			}
			for j := range wv {
				if gv[j] != wv[j] {
					t.Fatalf("query %s group %q agg %d: %v vs %v", q, want.Labels[g], j, gv[j], wv[j])
				}
			}
		}
	}
}

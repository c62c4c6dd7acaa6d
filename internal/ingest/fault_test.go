package ingest

import (
	"errors"
	"path/filepath"
	"testing"

	"ps3/internal/core"
	"ps3/internal/fault"
	"ps3/internal/query"
	"ps3/internal/store"
)

// faultPipeline opens a manual-flush pipeline whose every disk operation
// goes through a fresh injector, capturing published snapshots.
func faultPipeline(t *testing.T) (p *Pipeline, inj *fault.Injector, published *[]*core.System, num [][]float64, cat [][]string, queries []*query.Query) {
	t.Helper()
	base, _, num, cat, queries := ingestFixture(t, 12)
	inj = fault.NewInjector(fault.OS, 1)
	var snaps []*core.System
	p, err := Open(Config{
		Dir:         filepath.Join(t.TempDir(), "ing"),
		RowsPerPart: fixRowsPerPart,
		ManualFlush: true,
		FS:          inj,
		OnPublish:   func(sys *core.System, _ int) { snaps = append(snaps, sys) },
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, inj, &snaps, num, cat, queries
}

// answers runs q exactly on sys and returns the grouped values.
func answers(t *testing.T, sys *core.System, q *query.Query) map[string][]float64 {
	t.Helper()
	res, err := sys.RunExact(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Values
}

// TestFailedFlushKeepsPriorSnapshotLive: a flush that dies at its rename
// commit point poisons the pipeline — appends and flushes fail with the
// sticky error, Err() reports it — but the previously published snapshot
// keeps serving bit-identical answers, and every acknowledged row survives
// a crash-consistent close and clean reopen.
func TestFailedFlushKeepsPriorSnapshotLive(t *testing.T) {
	p, inj, published, num, cat, queries := faultPipeline(t)

	// Seal and flush one segment cleanly.
	appendRange(t, p, num, cat, fixBaseRows, fixBaseRows+fixRowsPerPart)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(*published) != 1 {
		t.Fatalf("published %d snapshots, want 1", len(*published))
	}
	v1 := (*published)[0]
	before := answers(t, v1, queries[0])

	// Kill the next flush at its commit point: the rename of segment 1.
	inj.AddRule(&fault.Rule{Op: fault.OpRename, Path: segmentName(1), FailAt: 1})
	acked := fixBaseRows + 2*fixRowsPerPart
	appendRange(t, p, num, cat, fixBaseRows+fixRowsPerPart, acked)
	err := p.Flush()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("flush across rename fault: err = %v, want ErrInjected", err)
	}
	if p.Err() == nil {
		t.Fatal("Err() = nil after a failed flush")
	}
	if err := p.AppendRows(num[:1], cat[:1]); err == nil {
		t.Fatal("append succeeded on a poisoned pipeline")
	}
	if err := p.Flush(); err == nil {
		t.Fatal("flush succeeded on a poisoned pipeline")
	}
	if _, _, err := p.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded on a poisoned pipeline")
	}

	// The already published snapshot is untouched by the wreckage.
	after := answers(t, v1, queries[0])
	for g, want := range before {
		got, ok := after[g]
		if !ok {
			t.Fatalf("group %q vanished from the prior snapshot", g)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("group %q agg %d drifted after failed flush: %v vs %v", g, j, got[j], want[j])
			}
		}
	}

	// Crash-consistent close, then recovery on a clean filesystem: every
	// acknowledged row is in the single flushed segment or the surviving
	// WAL, exactly once.
	dir := p.cfg.Dir
	base := p.base
	if err := p.Close(); err != nil {
		t.Fatalf("crash-consistent close: %v", err)
	}
	inj.ClearRules()
	p2, err := Open(Config{Dir: dir, RowsPerPart: fixRowsPerPart, PublishTail: true, ManualFlush: true}, base)
	if err != nil {
		t.Fatalf("recovery after failed flush: %v", err)
	}
	defer p2.Close()
	if got := view(t, p2).NumRows(); got != acked {
		t.Fatalf("recovered NumRows = %d, want %d acknowledged rows", got, acked)
	}
	if st := p2.Stats(); st.RecoveredRows != int64(acked-fixBaseRows-fixRowsPerPart) {
		t.Fatalf("RecoveredRows = %d, want %d (rows past the one flushed segment)",
			st.RecoveredRows, acked-fixBaseRows-fixRowsPerPart)
	}
}

// TestPoisonedWALReportsErr: a WAL whose fsync fails never acknowledges the
// append, reports the sticky error through Pipeline.Err() (the signal
// serve's read-only mode watches), and refuses further appends — while
// Snapshot keeps building read-side views.
func TestPoisonedWALReportsErr(t *testing.T) {
	p, inj, _, num, cat, queries := faultPipeline(t)

	appendRange(t, p, num, cat, fixBaseRows, fixBaseRows+100)
	if err := p.Err(); err != nil {
		t.Fatalf("healthy pipeline: Err() = %v", err)
	}

	inj.AddRule(&fault.Rule{Op: fault.OpSync, Path: "wal-", FailAt: 1})
	if err := p.AppendRows(num[:1], cat[:1]); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append across fsync fault: err = %v, want ErrInjected", err)
	}
	if err := p.Err(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Err() = %v, want the WAL's injected fsync error", err)
	}
	if err := p.AppendRows(num[:1], cat[:1]); err == nil {
		t.Fatal("append succeeded on a poisoned WAL")
	}

	// Reads survive the write path dying: snapshots still build and serve.
	inj.ClearRules()
	sys, _, err := p.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot with poisoned WAL: %v", err)
	}
	if res, err := sys.Run(queries[0], 0.3); err != nil || len(res.Values) == 0 {
		t.Fatalf("query on snapshot: res=%v err=%v", res, err)
	}
}

// TestMultiSourceHealthRenumbers: quarantine state from a disk-backed
// segment surfaces through the published snapshot's source with global
// partition ids — both in Health() and in the QuarantineError a read
// returns — so core's degradation loop drops the right partition.
func TestMultiSourceHealthRenumbers(t *testing.T) {
	p, inj, published, num, cat, _ := faultPipeline(t)
	appendRange(t, p, num, cat, fixBaseRows, fixBaseRows+fixRowsPerPart)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	sys := (*published)[0]
	src := sys.Source
	baseParts := p.base.Source.NumParts()

	// Corrupt every read of the segment file; global partition baseParts is
	// the segment's local partition 0.
	inj.AddRule(&fault.Rule{Op: fault.OpRead, Path: segmentName(0), FailAt: 1, Corrupt: true})
	_, err := src.Read(baseParts)
	inj.ClearRules()
	var qe *store.QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("segment read across corruption: err = %v, want a quarantine error", err)
	}
	if qe.Part != baseParts {
		t.Fatalf("QuarantineError.Part = %d, want global id %d", qe.Part, baseParts)
	}

	ms, ok := src.(*multiSource)
	if !ok {
		t.Fatalf("published source is %T, want *multiSource", src)
	}
	hs := ms.Health()
	if len(hs.QuarantinedParts) != 1 || hs.QuarantinedParts[0] != baseParts {
		t.Fatalf("Health().QuarantinedParts = %v, want [%d]", hs.QuarantinedParts, baseParts)
	}

	// The base partitions and the segment's other partitions still serve.
	if _, err := src.Read(0); err != nil {
		t.Fatalf("base partition after segment quarantine: %v", err)
	}
}

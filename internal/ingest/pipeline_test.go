package ingest

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ps3/internal/core"
	"ps3/internal/dataset"
	"ps3/internal/query"
	"ps3/internal/table"
)

// fixtureRows extracts every row of t in partition order, decoded to the
// append wire form (strings for categorical cells).
func fixtureRows(t testing.TB, tbl *table.Table) (num [][]float64, cat [][]string) {
	t.Helper()
	w := tbl.Schema.NumCols()
	for _, p := range tbl.Parts {
		for r := 0; r < p.Rows(); r++ {
			nr := make([]float64, w)
			cr := make([]string, w)
			for c, col := range tbl.Schema.Cols {
				if col.IsNumeric() {
					nr[c] = p.NumCol(c)[r]
				} else {
					cr[c] = tbl.Dict.Value(p.CatCol(c)[r])
				}
			}
			num = append(num, nr)
			cat = append(cat, cr)
		}
	}
	return num, cat
}

// buildTable replays rows [lo, hi) through a fresh Builder — the offline
// ingest path the live pipeline must match bit for bit.
func buildTable(t testing.TB, schema *table.Schema, rowsPerPart int, num [][]float64, cat [][]string, lo, hi int) *table.Table {
	t.Helper()
	b, err := table.NewBuilder(schema, rowsPerPart)
	if err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		if err := b.Append(num[i], cat[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

const (
	fixTotalRows   = 4100
	fixRowsPerPart = 400
	fixBaseRows    = 1600 // 4 full base partitions
)

// ingestFixture builds the shared scenario: a trained base system over the
// first fixBaseRows rows, the remaining rows to stream, and the offline
// reference table holding all rows.
func ingestFixture(t testing.TB, trainN int) (base *core.System, ref *table.Table, num [][]float64, cat [][]string, queries []*query.Query) {
	t.Helper()
	ds, err := dataset.Aria(dataset.Config{Rows: fixTotalRows, Parts: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	num, cat = fixtureRows(t, ds.Table)
	ref = buildTable(t, ds.Table.Schema, fixRowsPerPart, num, cat, 0, len(num))
	baseTable := buildTable(t, ds.Table.Schema, fixRowsPerPart, num, cat, 0, fixBaseRows)
	base, err = core.New(baseTable, core.Options{Workload: ds.Workload, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, baseTable, 42)
	if err != nil {
		t.Fatal(err)
	}
	if trainN > 0 {
		if err := base.Train(gen.SampleN(trainN), nil); err != nil {
			t.Fatal(err)
		}
	}
	return base, ref, num, cat, gen.SampleN(8)
}

// appendRange streams rows [lo, hi) through the pipeline in uneven batch
// sizes, so batches straddle partition seals.
func appendRange(t testing.TB, p *Pipeline, num [][]float64, cat [][]string, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; {
		n := 137
		if i+n > hi {
			n = hi - i
		}
		if err := p.AppendRows(num[i:i+n], cat[i:i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}
}

// view is what a pipeline holds, read the only way it can be: the source of
// a snapshot taken now. Pipelines opened with PublishTail show their
// unflushed (WAL-recovered) rows in it too.
func view(t testing.TB, p *Pipeline) table.PartitionSource {
	t.Helper()
	sys, _, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sys.Source
}

// TestOfflineEquivalence is the tentpole's acceptance gate: streaming rows
// through WAL → memtable → segments must reproduce the offline build bit
// for bit — same partition boundaries, same dictionary codes, same cell
// values — and exact query answers over the frozen pipeline must match the
// offline table at every parallelism.
func TestOfflineEquivalence(t *testing.T) {
	base, ref, num, cat, queries := ingestFixture(t, 12)
	pipe, err := Open(Config{
		Dir:         t.TempDir(),
		RowsPerPart: fixRowsPerPart,
		PublishTail: true,
		ManualFlush: true, // deterministic segment boundaries for the comparison
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	// Stream in three legs with explicit flushes between, so the data ends
	// up spread across multiple segments plus a frozen tail.
	appendRange(t, pipe, num, cat, fixBaseRows, 2500)
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	appendRange(t, pipe, num, cat, 2500, 3300)
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	appendRange(t, pipe, num, cat, 3300, len(num))
	if err := pipe.FreezeSource(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.AppendRows(num[:1], cat[:1]); err == nil {
		t.Fatal("append after freeze must fail")
	}

	// Dictionary: byte-identical value sequence (same codes for same
	// values, assigned in the same first-seen order).
	live := view(t, pipe)
	if got, want := live.TableDict().Values(), ref.Dict.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("dictionary diverged: %d values vs %d", len(got), len(want))
	}
	// Partitions: same count, same boundaries, same encoded cells.
	if got, want := live.NumParts(), ref.NumParts(); got != want {
		t.Fatalf("snapshot has %d partitions, offline build has %d", got, want)
	}
	if got, want := live.NumRows(), ref.NumRows(); got != want {
		t.Fatalf("snapshot has %d rows, offline build has %d", got, want)
	}
	for i := 0; i < ref.NumParts(); i++ {
		lp, err := live.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		ln, lc := lp.DecodedCols()
		rn, rc := ref.Parts[i].DecodedCols()
		if !reflect.DeepEqual(ln, rn) || !reflect.DeepEqual(lc, rc) {
			t.Fatalf("partition %d differs from the offline build", i)
		}
	}

	// Exact answers over the frozen snapshot must match the offline table
	// bit for bit at Parallelism 1, 3 and GOMAXPROCS.
	refSys, err := core.New(ref, core.Options{Workload: base.Opts.Workload, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	snap, version, err := pipe.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if version != 3 {
		t.Fatalf("snapshot version %d, want 3 (three segments cut)", version)
	}
	if snap.Picker == nil {
		t.Fatal("snapshot lost the trained picker")
	}
	for _, par := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		ssys, rsys := *snap, *refSys
		ssys.Opts.Parallelism, rsys.Opts.Parallelism = par, par
		for qi, q := range queries {
			got, err := ssys.RunExact(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rsys.RunExact(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Values, want.Values) || !reflect.DeepEqual(got.Labels, want.Labels) {
				t.Fatalf("parallelism %d query %d: exact answer diverges from offline build", par, qi)
			}
		}
	}
	// Approximate answers must be bit-identical across parallelism too.
	for qi, q := range queries {
		s1 := *snap
		s1.Opts.Parallelism = 1
		want, err := s1.Run(q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{3, runtime.GOMAXPROCS(0)} {
			sp := *snap
			sp.Opts.Parallelism = par
			got, err := sp.Run(q, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Values, want.Values) {
				t.Fatalf("query %d: approximate answer differs at parallelism %d", qi, par)
			}
		}
	}
}

// TestCrashRecovery drives the pipeline through flushes and un-flushed
// appends, then simulates crashes — abrupt handle drop, torn WAL tails at
// randomized offsets, stray temporaries and stale logs from every
// flush-protocol window — and asserts recovery restores exactly the
// acknowledged rows, truncates torn bytes, and reproduces the dictionary.
func TestCrashRecovery(t *testing.T) {
	base, _, num, cat, _ := ingestFixture(t, 0)
	dir := t.TempDir()
	open := func() *Pipeline {
		p, err := Open(Config{Dir: dir, RowsPerPart: fixRowsPerPart, PublishTail: true, ManualFlush: true}, base)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Phase 1: two segments flushed, 300 rows acknowledged into wal-2.
	pipe := open()
	appendRange(t, pipe, num, cat, fixBaseRows, 2400)
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	appendRange(t, pipe, num, cat, 2400, 3200)
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	appendRange(t, pipe, num, cat, 3200, 3500)
	wantDict := view(t, pipe).TableDict().Values()
	if err := pipe.Close(); err != nil { // crash-consistent: no flush on close
		t.Fatal(err)
	}

	verify := func(label string, p *Pipeline, hi int) {
		t.Helper()
		live := view(t, p)
		if got, want := live.NumRows(), base.Source.NumRows()+(hi-fixBaseRows); got != want {
			t.Fatalf("%s: recovered view has %d rows, want %d", label, got, want)
		}
		// Spot-check the last recovered row cell by cell through the
		// snapshot's final partition.
		last, err := live.Read(live.NumParts() - 1)
		if err != nil {
			t.Fatal(err)
		}
		r := last.Rows() - 1
		for c, col := range live.TableSchema().Cols {
			if col.IsNumeric() {
				if got, want := last.NumCol(c)[r], num[hi-1][c]; got != want && !(got != got && want != want) {
					t.Fatalf("%s: last row column %d = %v, want %v", label, c, got, want)
				}
			} else if got, want := live.TableDict().Value(last.CatCol(c)[r]), cat[hi-1][c]; got != want {
				t.Fatalf("%s: last row column %d = %q, want %q", label, c, got, want)
			}
		}
	}

	// Crash 1: clean handle drop. Everything acknowledged must be back.
	pipe = open()
	if st := pipe.Stats(); st.Segments != 2 || st.RecoveredRows != 300 {
		t.Fatalf("recovered %d segments / %d wal rows, want 2 / 300", st.Segments, st.RecoveredRows)
	}
	verify("clean drop", pipe, 3500)
	if got := view(t, pipe).TableDict().Values(); !reflect.DeepEqual(got, wantDict) {
		t.Fatalf("dictionary not reproduced: %d values, want %d", len(got), len(wantDict))
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash 2: torn tails. Cut the live log at randomized offsets inside
	// its final frame: acknowledged full frames survive, the torn bytes
	// are truncated away on recovery.
	walPath := filepath.Join(dir, walName(2))
	pristine, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	_, clean, err := ReadWAL(bytes.NewReader(pristine))
	if err != nil {
		t.Fatal(err)
	}
	if clean != int64(len(pristine)) {
		t.Fatalf("pristine wal has torn bytes already: clean %d of %d", clean, len(pristine))
	}
	for _, cut := range []int{len(pristine) - 1, len(pristine) - 7, int(clean) - len(pristine)/3, 5} {
		if cut < 0 || cut >= len(pristine) {
			continue
		}
		if err := os.WriteFile(walPath, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecs, wantClean, err := ReadWAL(bytes.NewReader(pristine[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		wantRows := 0
		for _, rec := range wantRecs {
			rn, _, err := DecodeRows(rec, base.Source.TableSchema())
			if err != nil {
				t.Fatal(err)
			}
			wantRows += len(rn)
		}
		p := open()
		if st := p.Stats(); int(st.RecoveredRows) != wantRows {
			t.Fatalf("cut %d: recovered %d rows, want %d", cut, st.RecoveredRows, wantRows)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		// No torn record may survive on disk: the file must have been
		// truncated to the clean offset before the new handle appended.
		onDisk, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(onDisk)) != wantClean {
			t.Fatalf("cut %d: wal is %d bytes after recovery, want clean offset %d", cut, len(onDisk), wantClean)
		}
	}
	if err := os.WriteFile(walPath, pristine, 0o644); err != nil {
		t.Fatal(err)
	}

	// Crash 3: every flush-window artifact at once — a stray segment
	// temporary, a stale pre-rotation log, and a premature next log (the
	// crash windows of the flush protocol). Recovery must sweep them and
	// still restore the acknowledged rows.
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)+".tmp"), []byte("half-written segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(1)), frames([]byte("stale")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(3)), frames([]byte("premature")), 0o644); err != nil {
		t.Fatal(err)
	}
	pipe = open()
	if st := pipe.Stats(); st.Segments != 2 || st.RecoveredRows != 300 {
		t.Fatalf("after sweep: recovered %d segments / %d rows, want 2 / 300", st.Segments, st.RecoveredRows)
	}
	verify("swept crash window", pipe, 3500)
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{segmentName(2) + ".tmp", walName(1), walName(3)} {
		if _, err := os.Stat(filepath.Join(dir, stray)); !os.IsNotExist(err) {
			t.Fatalf("stray %s survived recovery", stray)
		}
	}

	// A gap in the segment run is tampering, not a crash shape: refuse.
	if err := os.Rename(filepath.Join(dir, segmentName(0)), filepath.Join(dir, segmentName(7))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir, RowsPerPart: fixRowsPerPart, ManualFlush: true}, base); err == nil {
		t.Fatal("non-contiguous segment run must fail recovery")
	}
}

// TestRecoveryResumesAppends recovers a directory and keeps appending: the
// recovered memtable, dictionary and WAL must be exactly where the crash
// left them, so the stream continues as if uninterrupted and still matches
// the offline build.
func TestRecoveryResumesAppends(t *testing.T) {
	base, ref, num, cat, _ := ingestFixture(t, 0)
	dir := t.TempDir()
	cfg := Config{Dir: dir, RowsPerPart: fixRowsPerPart, PublishTail: true, ManualFlush: true}
	pipe, err := Open(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, pipe, num, cat, fixBaseRows, 2700)
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	appendRange(t, pipe, num, cat, 2700, 3100)
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}

	pipe, err = Open(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	appendRange(t, pipe, num, cat, 3100, len(num))
	if err := pipe.FreezeSource(); err != nil {
		t.Fatal(err)
	}
	live := view(t, pipe)
	if got, want := live.TableDict().Values(), ref.Dict.Values(); !reflect.DeepEqual(got, want) {
		t.Fatal("dictionary diverged across recovery")
	}
	if got, want := live.NumParts(), ref.NumParts(); got != want {
		t.Fatalf("%d partitions, want %d", got, want)
	}
	for i := 0; i < ref.NumParts(); i++ {
		lp, err := live.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		ln, lc := lp.DecodedCols()
		rn, rc := ref.Parts[i].DecodedCols()
		if !reflect.DeepEqual(ln, rn) || !reflect.DeepEqual(lc, rc) {
			t.Fatalf("partition %d differs from the offline build after recovery", i)
		}
	}
}

// TestBackgroundFlushPublishes exercises the automatic path: background
// flushes under concurrent appends, publishing versioned snapshots whose
// row counts only ever grow.
func TestBackgroundFlushPublishes(t *testing.T) {
	base, _, num, cat, _ := ingestFixture(t, 12)
	var mu sync.Mutex
	var versions []int
	var rowCounts []int
	pipe, err := Open(Config{
		Dir:          t.TempDir(),
		RowsPerPart:  fixRowsPerPart,
		CommitWindow: 200 * time.Microsecond,
		OnPublish: func(sys *core.System, version int) {
			mu.Lock()
			versions = append(versions, version)
			rowCounts = append(rowCounts, sys.Source.NumRows())
			mu.Unlock()
		},
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	var wg sync.WaitGroup
	const writers = 4
	per := (len(num) - fixBaseRows) / writers
	for wkr := 0; wkr < writers; wkr++ {
		lo := fixBaseRows + wkr*per
		hi := lo + per
		if wkr == writers-1 {
			hi = len(num)
		}
		wg.Add(1)
		go func(lo, hi int) { //lint:nakedgo-ok test drives concurrent writers; joined on wg below
			defer wg.Done()
			for i := lo; i < hi; i += 50 {
				end := i + 50
				if end > hi {
					end = hi
				}
				if err := pipe.AppendRows(num[i:end], cat[i:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if err := pipe.FreezeSource(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(versions) == 0 {
		t.Fatal("no snapshots published")
	}
	for i := range versions {
		if i > 0 && versions[i] != versions[i-1]+1 {
			t.Fatalf("versions not consecutive: %v", versions)
		}
		if i > 0 && rowCounts[i] < rowCounts[i-1] {
			t.Fatalf("published row counts regressed: %v", rowCounts)
		}
	}
	last := rowCounts[len(rowCounts)-1]
	if want := base.Source.NumRows() + (len(num) - fixBaseRows); last != want {
		t.Fatalf("final snapshot has %d rows, want %d", last, want)
	}
	st := pipe.Stats()
	if st.PendingRows != 0 {
		t.Fatalf("%d rows pending after freeze", st.PendingRows)
	}
	if int(st.RowsAppended) != len(num)-fixBaseRows {
		t.Fatalf("counted %d appended rows, want %d", st.RowsAppended, len(num)-fixBaseRows)
	}
}

func TestOpenRejectsStatslessBase(t *testing.T) {
	base, _, _, _, _ := ingestFixture(t, 0)
	bare := &core.System{Source: base.Source, Opts: base.Opts}
	if _, err := Open(Config{Dir: t.TempDir()}, bare); err == nil {
		t.Fatal("base without stats must be rejected")
	}
}

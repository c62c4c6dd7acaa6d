package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ps3/internal/core"
	"ps3/internal/fault"
	"ps3/internal/ingest"
	"ps3/internal/testutil"
)

// The chaos suite drives the full serve+ingest stack under randomized disk
// fault schedules with concurrent append and query load, and asserts the
// robustness contracts end to end:
//
//   - no acknowledged row is lost: whatever the faults did, a clean reopen
//     of the ingest directory recovers every row Append acknowledged;
//   - never a silently wrong answer: every successful response is
//     bit-identical to replaying its query against the frozen snapshot
//     version that answered it, and every failure is a typed, expected
//     error (injected I/O, shed, draining, deadline);
//   - snapshot versions are monotonic per reader;
//   - no goroutine leaks once the stack shuts down.
//
// `make chaos-smoke` runs exactly this suite under -race.

// isExpectedChaosErr reports whether a query failure under fault injection
// is one of the declared degraded-mode outcomes rather than a surprise.
func isExpectedChaosErr(err error) bool {
	return errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, ErrShed) ||
		errors.Is(err, ErrDraining) ||
		errors.Is(err, ErrReadOnly) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// TestChaosTransientFaultsUnderLoad: concurrent writers and readers while a
// scheduler injects transient read faults and latency into the segment
// files. Transient faults never corrupt — so no response may be degraded,
// successful answers must replay bit-identically, and acknowledged rows must
// survive a crash-consistent close and clean recovery.
func TestChaosTransientFaultsUnderLoad(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sys, num, cat, queries := liveFixture(t)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(fault.OS, 17)
	var frozenMu sync.Mutex
	frozen := map[int64]*core.System{1: sys}
	dir := t.TempDir()
	pipe, err := ingest.Open(ingest.Config{
		Dir:          dir,
		RowsPerPart:  400,
		CommitWindow: 200 * time.Microsecond,
		CacheBytes:   1, // force every segment read to disk, where the faults live
		FS:           inj,
		OnPublish: func(snap *core.System, version int) {
			if err := srv.Swap(snap); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			frozenMu.Lock()
			frozen[srv.SnapshotVersion()] = snap
			frozenMu.Unlock()
		},
	}, sys)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	srv.SetAppender(pipe)

	type obs struct {
		q       int
		version int64
		groups  []Group
	}
	var (
		wg        sync.WaitGroup
		obsMu     sync.Mutex
		observed  []obs
		acked     atomic.Int64
		submitted atomic.Int64
	)

	// Fault scheduler: windows of probabilistic transient read errors and
	// latency on the segment files, low-probability WAL fsync and flush
	// rename failures (which poison the write path — writers stop, readers
	// keep serving, the acknowledged rows must still recover), interleaved
	// with healthy windows. The schedule is seeded, so a failure reproduces.
	stop := make(chan struct{})
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() { //lint:nakedgo-ok test chaos scheduler, joined via schedWG below
		defer schedWG.Done()
		rng := rand.New(rand.NewSource(23))
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			switch round % 6 {
			case 0, 3:
				inj.AddRule(&fault.Rule{Op: fault.OpRead, Path: "segment-", Prob: 0.3 + 0.4*rng.Float64(), MaxFires: 1 + rng.Int63n(6)})
			case 1:
				inj.AddRule(&fault.Rule{Op: fault.OpRead, Path: "segment-", Prob: 0.5, Delay: time.Duration(rng.Intn(300)) * time.Microsecond})
			case 4:
				inj.AddRule(&fault.Rule{Op: fault.OpSync, Path: "wal-", Prob: 0.05, MaxFires: 1})
				inj.AddRule(&fault.Rule{Op: fault.OpRename, Path: "segment-", Prob: 0.1, MaxFires: 1})
			case 2, 5:
				inj.ClearRules()
			}
		}
	}()

	// Writers: two goroutines streaming disjoint halves through the sink,
	// stopping at the first failure (a fault mid-flush poisons the pipeline
	// and flips the server read-only — writers stopping is the contract).
	half := len(num) / 2
	for w, span := range [][2]int{{0, half}, {half, len(num)}} {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i += 60 {
				end := i + 60
				if end > hi {
					end = hi
				}
				submitted.Add(int64(end - i))
				if err := srv.Append(num[i:end], cat[i:end]); err != nil {
					if !isExpectedChaosErr(err) && !errors.Is(err, fault.ErrInjected) {
						t.Errorf("writer %d: unexpected append error: %v", w, err)
					}
					return
				}
				acked.Add(int64(end - i))
			}
		}(w, span[0], span[1])
	}

	// Readers: queries either succeed (recorded for replay) or fail with a
	// typed, expected error. Versions must never go backwards.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last int64
			for i := 0; i < 60; i++ {
				qi := (r + i) % len(queries)
				resp, err := srv.Query(queries[qi], 0.3)
				if err != nil {
					if !isExpectedChaosErr(err) {
						t.Errorf("reader %d: unexpected query error: %v", r, err)
						return
					}
					continue
				}
				if resp.Degraded {
					t.Errorf("reader %d: degraded response under purely transient faults (nothing was corrupt)", r)
					return
				}
				if resp.SnapshotVersion < last {
					t.Errorf("reader %d: snapshot version went backwards: %d after %d", r, resp.SnapshotVersion, last)
					return
				}
				last = resp.SnapshotVersion
				obsMu.Lock()
				observed = append(observed, obs{q: qi, version: resp.SnapshotVersion, groups: resp.Groups})
				obsMu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	schedWG.Wait()
	inj.ClearRules()

	if len(observed) == 0 {
		t.Fatal("no query succeeded; the fault schedule drowned the test")
	}

	// Byte-identity replay: with the faults cleared, every observation must
	// match a fresh server over the frozen snapshot that answered it.
	replay := make(map[[2]int64][]Group)
	for _, o := range observed {
		key := [2]int64{o.version, int64(o.q)}
		want, ok := replay[key]
		if !ok {
			frozenMu.Lock()
			snap := frozen[o.version]
			frozenMu.Unlock()
			if snap == nil {
				t.Fatalf("observed version %d was never published", o.version)
			}
			ref, err := New(snap, Config{})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ref.Query(queries[o.q], 0.3)
			if err != nil {
				t.Fatal(err)
			}
			want = resp.Groups
			replay[key] = want
		}
		if !reflect.DeepEqual(o.groups, want) {
			t.Fatalf("query %d at version %d: served answer differs from the frozen snapshot's", o.q, o.version)
		}
	}

	// No acknowledged row lost: crash-consistent close, then recovery on a
	// clean filesystem. The reopened pipeline may hold more than the
	// acknowledged rows (a batch that failed only at the durability step can
	// reappear — the write-ahead caveat) but never fewer.
	ackedRows := int(acked.Load())
	if err := pipe.Close(); err != nil {
		t.Fatalf("crash-consistent close: %v", err)
	}
	// PublishTail: the snapshot must show WAL-recovered rows, not only the
	// flushed segments.
	p2, err := ingest.Open(ingest.Config{Dir: dir, RowsPerPart: 400, PublishTail: true, ManualFlush: true}, sys)
	if err != nil {
		t.Fatalf("recovery after chaos: %v", err)
	}
	defer p2.Close()
	recovered, _, err := p2.Snapshot()
	if err != nil {
		t.Fatalf("snapshot after recovery: %v", err)
	}
	got := recovered.Source.NumRows() - sys.Source.NumRows()
	if got < ackedRows {
		t.Fatalf("recovered %d appended rows, acknowledged %d: acknowledged rows were lost", got, ackedRows)
	}
	if max := int(submitted.Load()); got > max {
		t.Fatalf("recovered %d appended rows, only %d were ever submitted", got, max)
	}
}

// TestChaosQuarantineDegradedServing: a corrupt segment partition is
// quarantined and served around — the response declares degraded with the
// fenced partition listed, the metrics count it, and /stats surfaces the
// quarantine through StoreHealth.
func TestChaosQuarantineDegradedServing(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sys, num, cat, queries := liveFixture(t)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(fault.OS, 5)
	pipe, err := ingest.Open(ingest.Config{
		Dir:         t.TempDir(),
		RowsPerPart: 400,
		ManualFlush: true,
		CacheBytes:  1,
		FS:          inj,
		OnPublish: func(snap *core.System, _ int) {
			if err := srv.Swap(snap); err != nil {
				t.Errorf("swap: %v", err)
			}
		},
	}, sys)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	srv.SetAppender(pipe)
	if err := srv.Append(num[:800], cat[:800]); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	if srv.SnapshotVersion() != 2 {
		t.Fatalf("snapshot version %d after one flush, want 2", srv.SnapshotVersion())
	}

	// Quarantine the segment's first partition: corrupt its reads, touch it
	// once (load + retry both see bad bytes), clear the fault. Global id =
	// the base partition count.
	victim := sys.Source.NumParts()
	inj.AddRule(&fault.Rule{Op: fault.OpRead, Path: "segment-", FailAt: 1, Corrupt: true})
	if _, err := srv.System().Source.Read(victim); err == nil {
		t.Fatal("corrupt read succeeded")
	}
	inj.ClearRules()

	// Full-budget query: the selection covers every partition, so the
	// quarantined one must be dropped and declared.
	resp, err := srv.Query(queries[0], 1.0)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if !resp.Degraded {
		t.Fatal("response over a quarantined partition is not marked degraded")
	}
	found := false
	for _, p := range resp.SkippedParts {
		if p == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("SkippedParts = %v does not name the quarantined partition %d", resp.SkippedParts, victim)
	}

	m := srv.Stats()
	if m.Degraded < 1 {
		t.Fatalf("Metrics.Degraded = %d, want >= 1", m.Degraded)
	}
	if m.StoreHealth == nil {
		t.Fatal("Metrics.StoreHealth is nil for a paged multi-segment source")
	}
	foundHealth := false
	for _, p := range m.StoreHealth.QuarantinedParts {
		if p == victim {
			foundHealth = true
		}
	}
	if !foundHealth {
		t.Fatalf("StoreHealth.QuarantinedParts = %v does not name %d", m.StoreHealth.QuarantinedParts, victim)
	}
}

// TestChaosWALPoisonFlipsReadOnly: a WAL fsync failure poisons the write
// path. Appends answer ErrReadOnly (HTTP 503 + Retry-After), queries keep
// serving, /readyz stays ready, and /stats declares the degradation.
func TestChaosWALPoisonFlipsReadOnly(t *testing.T) {
	sys, num, cat, queries := liveFixture(t)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(fault.OS, 7)
	pipe, err := ingest.Open(ingest.Config{
		Dir:         t.TempDir(),
		RowsPerPart: 400,
		ManualFlush: true,
		FS:          inj,
	}, sys)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	srv.SetAppender(pipe)

	if ro, _ := srv.ReadOnly(); ro {
		t.Fatal("healthy server reports read-only")
	}
	inj.AddRule(&fault.Rule{Op: fault.OpSync, Path: "wal-", FailAt: 1})
	if err := srv.Append(num[:10], cat[:10]); err == nil {
		t.Fatal("append across a failed fsync was acknowledged")
	}
	inj.ClearRules()

	ro, reason := srv.ReadOnly()
	if !ro || reason == "" {
		t.Fatalf("ReadOnly() = %v, %q after a poisoned WAL", ro, reason)
	}
	if err := srv.Append(num[:10], cat[:10]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("append on poisoned pipeline: err = %v, want ErrReadOnly", err)
	}
	if _, err := srv.Query(queries[0], 0.3); err != nil {
		t.Fatalf("query on a read-only server: %v", err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A well-formed single-row batch: the rejection must come from the
	// poisoned write path, not from request parsing.
	row := make([]any, len(num[0]))
	for c, col := range sys.Source.TableSchema().Cols {
		if col.IsNumeric() {
			row[c] = num[0][c]
		} else {
			row[c] = cat[0][c]
		}
	}
	body, err := json.Marshal(map[string]any{"rows": [][]any{row}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /append on read-only server: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 append response carries no Retry-After")
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz on read-only (but serving) server: status %d, want 200", ready.StatusCode)
	}
	if m := srv.Stats(); !m.ReadOnly || m.ReadOnlyReason == "" {
		t.Fatalf("Metrics = {ReadOnly: %v, Reason: %q}, want the poisoned write path declared", m.ReadOnly, m.ReadOnlyReason)
	}
}

// TestChaosDrainSheds: during graceful shutdown, queued requests complete,
// new arrivals shed with ErrDraining, and Drain returns once the server is
// idle — with no goroutines left behind.
func TestChaosDrainSheds(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sys, _, _, queries := liveFixture(t)
	srv, err := New(sys, Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy every in-flight slot, then queue one request behind them.
	for i := 0; i < 2; i++ {
		srv.sem <- struct{}{}
	}
	queuedErr := make(chan error, 1)
	queuedStarted := make(chan struct{})
	go func() { //lint:nakedgo-ok test helper issuing one blocking query, joined via queuedErr
		close(queuedStarted)
		_, err := srv.Query(queries[0], 0.2)
		queuedErr <- err
	}()
	<-queuedStarted
	deadline := time.Now().Add(2 * time.Second)
	for srv.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	srv.StartDrain()
	if _, err := srv.Query(queries[1], 0.2); !errors.Is(err, ErrDraining) {
		t.Fatalf("query during drain: err = %v, want ErrDraining", err)
	}

	// Free the slots: the queued request (admitted before drain began) must
	// complete successfully.
	<-srv.sem
	<-srv.sem
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued request failed during drain: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	m := srv.Stats()
	if !m.Draining || m.Sheds < 1 {
		t.Fatalf("Metrics = {Draining: %v, Sheds: %d}, want draining with >= 1 shed", m.Draining, m.Sheds)
	}
}

// TestChaosDeadlineMidScan: a tight per-request deadline with injected read
// latency fails with DeadlineExceeded (counted as such), and the same query
// succeeds once the latency clears — cancellation never wedges a slot.
func TestChaosDeadlineMidScan(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sys, num, cat, queries := liveFixture(t)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(fault.OS, 11)
	pipe, err := ingest.Open(ingest.Config{
		Dir:         t.TempDir(),
		RowsPerPart: 400,
		ManualFlush: true,
		CacheBytes:  1,
		FS:          inj,
		OnPublish: func(snap *core.System, _ int) {
			if err := srv.Swap(snap); err != nil {
				t.Errorf("swap: %v", err)
			}
		},
	}, sys)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	srv.SetAppender(pipe)
	if err := srv.Append(num[:800], cat[:800]); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}

	inj.AddRule(&fault.Rule{Op: fault.OpRead, Path: "segment-", Delay: 20 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := srv.QueryCtx(ctx, queries[0], 1.0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow scan under a 5ms deadline: err = %v, want DeadlineExceeded", err)
	}
	if m := srv.Stats(); m.Deadlines < 1 {
		t.Fatalf("Metrics.Deadlines = %d, want >= 1", m.Deadlines)
	}
	inj.ClearRules()
	if _, err := srv.Query(queries[0], 1.0); err != nil {
		t.Fatalf("same query after the latency cleared: %v", err)
	}
	if got := srv.Stats().InFlight; got != 0 {
		t.Fatalf("InFlight = %d after all requests returned: a cancelled request leaked its slot", got)
	}
}

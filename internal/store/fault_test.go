package store

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"ps3/internal/fault"
	"ps3/internal/table"
)

// faultFixture writes a small store to disk and reopens it through an
// injector so tests can script block-read faults. Returns the reader and
// the injector (rules can be added or cleared mid-test).
func faultFixture(t *testing.T, rules ...*fault.Rule) (*Reader, *fault.Injector) {
	t.Helper()
	tbl := buildTable(t, 600, 100)
	path := filepath.Join(t.TempDir(), "t.ps3")
	if _, err := WriteFileFS(fault.OS, path, tbl, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(fault.OS, 1, rules...)
	r, err := OpenFS(inj, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, inj
}

// TestTransientReadErrorIsRetryable: an injected I/O error on a block read
// fails that read without quarantining; the next read succeeds and the
// cache caches nothing in between.
func TestTransientReadErrorIsRetryable(t *testing.T) {
	// Rules match OpRead; the footer reads during open must succeed, so
	// fire starting at the first post-open read.
	r, inj := faultFixture(t)
	inj.AddRule(&fault.Rule{Op: fault.OpRead, FailAt: 1, MaxFires: 1})

	if _, err := r.Read(2); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted read: err = %v, want ErrInjected", err)
	}
	if errors.Is(err0(r.Read(2)), ErrQuarantined) {
		t.Fatal("transient I/O error quarantined the partition")
	}
	p, err := r.Read(2)
	if err != nil {
		t.Fatalf("retry after transient fault: %v", err)
	}
	if p.Rows() != 100 {
		t.Fatalf("retry returned %d rows, want 100", p.Rows())
	}
	if h := r.Health(); len(h.QuarantinedParts) != 0 || h.CorruptRetries != 0 {
		t.Fatalf("health after transient fault = %+v, want clean", h)
	}
}

func err0(_ any, err error) error { return err }

// TestCorruptBlockQuarantines: two corrupt reads in a row quarantine the
// partition; later reads fail fast with ErrQuarantined (no disk I/O),
// other partitions keep serving, and Health reports the fence.
func TestCorruptBlockQuarantines(t *testing.T) {
	r, inj := faultFixture(t)
	// Corrupt every block read from here on: the load and its retry both
	// see damaged bytes, which is the quarantine trigger.
	inj.AddRule(&fault.Rule{Op: fault.OpRead, FailAt: 1, Corrupt: true})

	_, err := r.Read(3)
	var qe *QuarantineError
	if !errors.As(err, &qe) || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("corrupt read: err = %v, want *QuarantineError matching ErrQuarantined", err)
	}
	if qe.Part != 3 {
		t.Fatalf("quarantined part %d, want 3", qe.Part)
	}

	// Fast-fail path: clear the rules; the partition must STILL be fenced
	// (quarantine is sticky) without touching the disk.
	inj.ClearRules()
	opsBefore, _ := inj.Stats()
	if _, err := r.Read(3); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("read after quarantine: err = %v, want ErrQuarantined", err)
	}
	if _, err := r.ReadUncached(3); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("ReadUncached after quarantine: err = %v, want ErrQuarantined", err)
	}
	if opsAfter, _ := inj.Stats(); opsAfter != opsBefore {
		t.Fatalf("quarantined reads performed %d disk ops, want 0", opsAfter-opsBefore)
	}

	// Healthy partitions are unaffected.
	if _, err := r.Read(0); err != nil {
		t.Fatalf("healthy partition after quarantine: %v", err)
	}

	h := r.Health()
	if len(h.QuarantinedParts) != 1 || h.QuarantinedParts[0] != 3 {
		t.Fatalf("Health.QuarantinedParts = %v, want [3]", h.QuarantinedParts)
	}
	if h.CorruptRetries < 1 {
		t.Fatalf("Health.CorruptRetries = %d, want >= 1", h.CorruptRetries)
	}
}

// TestCorruptOnceRecoversOnRetry: corruption that clears before the retry
// (a transient flip on the wire, not on the platter) serves the partition
// and leaves nothing quarantined — only the retry counter moves.
func TestCorruptOnceRecoversOnRetry(t *testing.T) {
	r, inj := faultFixture(t)
	inj.AddRule(&fault.Rule{Op: fault.OpRead, FailAt: 1, MaxFires: 1, Corrupt: true})

	p, err := r.Read(1)
	if err != nil {
		t.Fatalf("read with one corrupt attempt: %v", err)
	}
	if p.Rows() != 100 {
		t.Fatalf("rows = %d, want 100", p.Rows())
	}
	h := r.Health()
	if len(h.QuarantinedParts) != 0 {
		t.Fatalf("QuarantinedParts = %v, want none", h.QuarantinedParts)
	}
	if h.CorruptRetries != 1 {
		t.Fatalf("CorruptRetries = %d, want 1", h.CorruptRetries)
	}
}

// TestSingleFlightLoadErrorConsistency is the satellite-2 contract: when a
// partition load fails, (1) the error is not cached — a later read
// retries the disk; (2) every concurrent waiter coalesced onto the failed
// load sees the error; (3) once the fault clears, a retry succeeds and the
// partition caches normally. Run with -race, this also shakes out
// lock-ordering bugs between the cache lock and the in-flight channel.
func TestSingleFlightLoadErrorConsistency(t *testing.T) {
	r, inj := faultFixture(t)

	const waiters = 8
	for round := 0; round < 3; round++ {
		// Every read attempt in this round fails (loads are single-flight,
		// but under contention the loser of the race may start a second
		// load after the first one's error — fail them all).
		inj.ClearRules()
		inj.AddRule(&fault.Rule{Op: fault.OpRead, FailAt: 1})

		var wg sync.WaitGroup
		errs := make([]error, waiters)
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, errs[w] = r.Read(4)
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("round %d waiter %d: err = %v, want ErrInjected", round, w, err)
			}
		}
		if cs := r.CacheStats(); cs.ResidentParts != 0 {
			t.Fatalf("round %d: %d partitions resident after failed loads, want 0 (errors must not be cached)",
				round, cs.ResidentParts)
		}
	}

	// Fault clears: the same partition loads, serves every waiter the same
	// partition pointer, and caches.
	inj.ClearRules()
	var wg sync.WaitGroup
	ptrs := make([]*table.Partition, waiters)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := r.Read(4)
			if err != nil {
				t.Errorf("waiter %d after fault cleared: %v", w, err)
				return
			}
			ptrs[w] = p
		}(w)
	}
	wg.Wait()
	for w := 1; w < waiters; w++ {
		if ptrs[w] != ptrs[0] {
			t.Fatalf("waiters got different partition instances (%p vs %p)", ptrs[w], ptrs[0])
		}
	}
	cs := r.CacheStats()
	if cs.ResidentParts != 1 {
		t.Fatalf("ResidentParts = %d after successful retry, want 1", cs.ResidentParts)
	}
	if h := r.Health(); len(h.QuarantinedParts) != 0 {
		t.Fatalf("transient-fault rounds quarantined %v, want none", h.QuarantinedParts)
	}
}

// TestWriteFileFSFaults: a scripted create failure and a torn-write
// failure both surface as errors from WriteFileFS (nothing acknowledged),
// and the resulting partial file is rejected at open.
func TestWriteFileFSFaults(t *testing.T) {
	tbl := buildTable(t, 200, 100)
	dir := t.TempDir()

	inj := fault.NewInjector(fault.OS, 3,
		&fault.Rule{Op: fault.OpCreate, FailAt: 1, MaxFires: 1})
	path := filepath.Join(dir, "w1.ps3")
	if _, err := WriteFileFS(inj, path, tbl, WriteOptions{}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("create fault: err = %v, want ErrInjected", err)
	}

	inj2 := fault.NewInjector(fault.OS, 3,
		&fault.Rule{Op: fault.OpWrite, FailAt: 3, Torn: true})
	path2 := filepath.Join(dir, "w2.ps3")
	if _, err := WriteFileFS(inj2, path2, tbl, WriteOptions{}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn write: err = %v, want ErrInjected", err)
	}
	if _, err := Open(path2, Options{}); err == nil {
		t.Fatal("torn store file opened cleanly, want validation failure")
	}
}

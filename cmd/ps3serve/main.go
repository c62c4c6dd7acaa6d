// Command ps3serve is the online half of the paper's deployment model: it
// cold-starts a trained PS3 system from a snapshot (no retraining — the
// offline pass was paid once by ps3train) and serves approximate queries
// over HTTP/JSON:
//
//	ps3serve -table /tmp/aria.ps3 -snapshot /tmp/aria.snap -addr :8080
//	curl -s localhost:8080/query -d '{"sql":"SELECT TenantId, COUNT(*) FROM t GROUP BY TenantId","budget":0.05}'
//	curl -s localhost:8080/stats
//
// The -table store file (ps3gen -out) stays on disk: each request faults
// only the partitions the picker selected through a cache bounded by
// -cachebytes, so memory and cold-start cost scale with the cache budget,
// not the dataset.
//
// With -ingest the server also accepts live appends (POST /append, or the
// programmatic sink): rows are written through a crash-safe WAL, flushed as
// store-format segments, and each flush extends the statistics and swaps a
// fresh snapshot in — queries keep the trained picker over the growing
// dataset without retraining. `ps3gen -stream` writes to a listening
// server; `bash bench/run.sh --workload …` is the way to put load on one.
//
// -pprof <addr> additionally serves net/http/pprof on a listener of its own
// (off by default, never on the query port):
//
//	ps3serve ... -pprof localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ps3/internal/core"
	"ps3/internal/ingest"
	"ps3/internal/serve"
	"ps3/internal/store"
)

func main() {
	var (
		tblPath    = flag.String("table", "", "table store file (written by ps3gen -out); required")
		snapPath   = flag.String("snapshot", "", "trained-system snapshot (written by ps3train -out); required")
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		budget     = flag.Float64("budget", 0.05, "default budget fraction in [0, 1] for requests that omit one (0 = 0.05)")
		cache      = flag.Int("cache", 0, "compiled-query cache entries (0 = default 256)")
		cacheBytes = flag.Int64("cachebytes", 0, "partition cache budget in bytes (0 = default 256 MiB, negative = unbounded); with -ingest each flushed segment has a cache of this size of its own, so resident bytes can reach (segments + 1) × this")
		inflight   = flag.Int("maxinflight", 0, "max concurrent partition scans (0 = 2×GOMAXPROCS)")
		maxQueue   = flag.Int("maxqueue", 0, "queries queued beyond -maxinflight before shedding with 503 (0 = 4×maxinflight, negative = unbounded)")
		reqTimeout = flag.Duration("request-timeout", 0, "per-request serving deadline; exceeded requests return 504 (0 = none)")
		drainWait  = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for draining in-flight queries on SIGTERM/SIGINT")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address, a listener of its own (e.g. localhost:6060); empty = off")

		pickCache = flag.Int("pickcache", 0, "pick-result cache entries (0 = default 512, negative = disabled)")

		ingestOn     = flag.Bool("ingest", false, "accept live appends (POST /append): WAL, segment flushes, incremental stats, hot snapshot swaps")
		walDir       = flag.String("waldir", "", "ingest: directory for WALs and segments (default <table>.ingest)")
		flushRows    = flag.Int("flushrows", 0, "ingest: rows per flushed partition (0 = match the base table's partitioning)")
		commitWindow = flag.Duration("commitwindow", 2*time.Millisecond, "ingest: WAL group-commit window; 0 fsyncs every append")
		publishTail  = flag.Bool("publishtail", false, "ingest: include unflushed memtable rows in published snapshots")
	)
	flag.Parse()
	if *tblPath == "" || *snapPath == "" {
		fatal(fmt.Errorf("-table and -snapshot are required"))
	}
	if *pprofAddr != "" {
		bound, stop, err := servePprof(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", bound)
	}

	t0 := time.Now()
	r, err := store.Open(*tblPath, store.Options{CacheBytes: *cacheBytes})
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	sf, err := os.Open(*snapPath)
	if err != nil {
		fatal(err)
	}
	sys, err := core.OpenSnapshot(sf, r)
	if err != nil {
		fatal(err)
	}
	if err := sf.Close(); err != nil {
		fatal(err)
	}
	srv, err := serve.New(sys, serve.Config{
		DefaultBudget:  *budget,
		CacheSize:      *cache,
		PickCacheSize:  *pickCache,
		MaxInFlight:    *inflight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *reqTimeout,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cold start in %v: %d rows, %d partitions (%s of data), %s partition cache, trained picker restored\n",
		time.Since(t0).Round(time.Millisecond), r.NumRows(), r.NumParts(),
		byteSize(int64(r.TotalBytes())), budgetSize(r.CacheStats().BudgetBytes))

	var pipe *ingest.Pipeline
	if *ingestOn {
		dir := *walDir
		if dir == "" {
			dir = *tblPath + ".ingest"
		}
		rpp := *flushRows
		if rpp <= 0 && r.NumParts() > 0 {
			rpp = r.NumRows() / r.NumParts()
		}
		pipe, err = ingest.Open(ingest.Config{
			Dir:          dir,
			RowsPerPart:  rpp,
			CommitWindow: *commitWindow,
			PublishTail:  *publishTail,
			CacheBytes:   *cacheBytes,
			OnPublish: func(snap *core.System, version int) {
				if err := srv.Swap(snap); err != nil {
					fmt.Fprintf(os.Stderr, "ps3serve: swap snapshot %d: %v\n", version, err)
				}
			},
		}, sys)
		if err != nil {
			fatal(err)
		}
		defer pipe.Close()
		st := pipe.Stats()
		if st.Segments > 0 || (*publishTail && st.PendingRows > 0) {
			snap, _, err := pipe.Snapshot()
			if err != nil {
				fatal(err)
			}
			if err := srv.Swap(snap); err != nil {
				fatal(err)
			}
		}
		srv.SetAppender(pipe)
		fmt.Printf("ingest: %s, %d rows per partition, %v commit window; recovered %d segments, %d WAL rows\n",
			dir, rpp, *commitWindow, st.Segments, st.RecoveredRows)
	}

	endpoints := "POST /query, GET /stats, GET /healthz, GET /readyz"
	if pipe != nil {
		endpoints = "POST /query, POST /append, GET /stats, GET /healthz, GET /readyz"
	}
	fmt.Printf("listening on %s (%s)\n", *addr, endpoints)

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }() //lint:nakedgo-ok listener lifecycle goroutine, joined via errc before exit

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	// Graceful shutdown: flip /readyz so load balancers stop routing here,
	// shed new queries, let in-flight ones finish within the drain budget,
	// then close the write path (the deferred pipe.Close commits the WAL).
	fmt.Printf("shutting down: draining for up to %v\n", *drainWait)
	srv.StartDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "ps3serve: drain: %v (abandoning in-flight queries)\n", err)
	}
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "ps3serve: shutdown: %v\n", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// servePprof starts the opt-in profiling endpoint: the net/http/pprof
// handlers on a mux and listener of their own, so profiles are never
// reachable through the query port. stop closes the listener and waits for
// its goroutine.
func servePprof(addr string) (bound net.Addr, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ps := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() { //lint:nakedgo-ok listener lifecycle goroutine, joined by stop
		defer close(done)
		_ = ps.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return ln.Addr(), func() {
		_ = ps.Close() // profiling requests have nothing to drain
		<-done
	}, nil
}

// byteSize renders a byte count for humans.
func byteSize(n int64) string {
	switch {
	case n < 1<<20:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	case n < 1<<30:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	}
}

// budgetSize is byteSize for cache budget positions, where 0 means the
// cache is unbounded.
func budgetSize(n int64) string {
	if n <= 0 {
		return "unbounded"
	}
	return byteSize(n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ps3serve:", err)
	os.Exit(1)
}

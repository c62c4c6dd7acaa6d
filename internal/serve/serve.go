// Package serve is PS3's online serving layer: a long-lived, concurrency-safe
// query service over a trained (typically snapshot-restored) core.System.
// It is the process shape of the paper's deployment model (Fig 1, §2.3.1):
// statistics and picker training happen once offline, the trained artifact is
// persisted (core.System.WriteTo), and any number of serving processes
// restore it (core.OpenSnapshot) and answer approximate queries without
// retraining.
//
// The server adds what sustained concurrent traffic needs on top of
// System.Run:
//
//   - a compiled-query cache keyed by canonical query text — and by the SQL
//     text a request arrived as, so a repeated request is not parsed either
//     — and a pick-result cache (picker.SelectionCache; selection is
//     deterministic per system seed, query text and budget), both lru.Cache
//     instances: a hot query skips parsing, compilation, featurization, the
//     funnel and clustering, and a burst of it compiles once and picks once;
//   - per-request randomness: each request derives its own RNG from the
//     system seed and a hash of the query text (core.System.Pick), so
//     concurrent requests never share a randomness stream and answers stay
//     deterministic per query;
//   - bounded in-flight execution: a semaphore caps concurrent partition
//     scans so a traffic burst degrades to queueing instead of
//     oversubscribing the scan engine;
//   - live snapshot replacement: Swap atomically installs a retrained
//     system; both caches are invalidated with it, so no post-swap request
//     can observe a pre-swap compilation or selection;
//   - request, cache and latency counters for operational visibility.
//
// Answers are identical to calling System.Run directly — caching and
// admission control never change results.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ps3/internal/core"
	"ps3/internal/lru"
	"ps3/internal/picker"
	"ps3/internal/query"
	"ps3/internal/sql"
	"ps3/internal/store"
)

// Typed serving errors. The HTTP layer maps them to status codes; embedded
// callers match them with errors.Is.
var (
	// ErrShed reports load shedding: the in-flight bound and the admission
	// queue are both full, so the request was rejected immediately rather
	// than queued behind work the server cannot keep up with. Clients
	// should back off and retry (HTTP: 503 + Retry-After).
	ErrShed = errors.New("serve: overloaded, request shed")
	// ErrDraining reports that the server is shutting down and no longer
	// admits queries; in-flight requests are completing. Clients should
	// retry against another replica.
	ErrDraining = errors.New("serve: draining, not admitting requests")
	// ErrReadOnly reports that the write path is disabled because the
	// ingest pipeline is poisoned (a WAL or flush failure made further
	// durable appends impossible). Queries keep serving.
	ErrReadOnly = errors.New("serve: ingest degraded, server is read-only")
)

// Config tunes the server; zero values take the defaults noted per field.
type Config struct {
	// DefaultBudget is the budget fraction used when a request does not
	// specify one (default 0.05).
	DefaultBudget float64
	// CacheSize caps the compiled-query LRU (default 256 entries).
	CacheSize int
	// PickCacheSize caps the pick-result cache (default 512 entries;
	// negative disables pick caching).
	PickCacheSize int
	// MaxInFlight bounds concurrently executing partition scans; further
	// requests queue (default 2 × GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond it the
	// server sheds (typed ErrShed, HTTP 503 + Retry-After) instead of
	// building an unbounded backlog whose requests would all miss their
	// deadlines anyway. Default 4 × MaxInFlight; negative means unbounded
	// (the pre-shedding behavior).
	MaxQueue int
	// RequestTimeout is the per-request serving deadline applied inside
	// QueryCtx on top of whatever deadline the caller's context carries
	// (the earlier one wins). Zero means no server-imposed deadline.
	// Cancellation is observed while queued for admission and between
	// partitions during the scan.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 0.05
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.PickCacheSize == 0 {
		c.PickCacheSize = 512
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	return c
}

// snapState bundles everything bound to one installed snapshot: the system
// and both caches, whose contents are only valid against that system. Swap
// replaces the whole bundle atomically, so a request that loaded a state
// keeps a mutually consistent (system, compiled queries, selections) view
// for its entire lifetime, and no request can pair a new system with a stale
// cache entry or vice versa.
type snapState struct {
	sys *core.System
	// compiled holds each query under its canonical text and, when it came
	// in as SQL that reads differently, under that text as well: two keys,
	// one value.
	compiled *lru.Cache[string, *compiledQuery]
	picks    *picker.SelectionCache // nil when pick caching is disabled
	// version numbers the installed snapshot: 1 for the system the server
	// started with, incremented by every Swap. Responses carry it so a
	// client (or a test) can tell which snapshot answered.
	version int64
}

// Server is a concurrency-safe query service over one trained System. All
// methods are safe for concurrent use.
type Server struct {
	cfg   Config
	state atomic.Pointer[snapState]

	// swapMu serializes Swap so snapshot versions are assigned
	// monotonically even when swaps race.
	swapMu sync.Mutex

	// appender, when set, accepts live row appends (POST /append); nil
	// servers are read-only.
	appender atomic.Pointer[RowAppender]

	// sem bounds in-flight scans.
	sem chan struct{}

	// draining, once set, makes every new query shed with ErrDraining;
	// in-flight and queued requests complete. Set by StartDrain during
	// graceful shutdown, never cleared.
	draining atomic.Bool

	requests    atomic.Int64
	failures    atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	partsRead   atomic.Int64
	inFlight    atomic.Int64
	queued      atomic.Int64
	sheds       atomic.Int64
	deadlines   atomic.Int64
	degraded    atomic.Int64
	latencyNs   atomic.Int64
	maxLatency  atomic.Int64
	pickNs      atomic.Int64
	scanNs      atomic.Int64
	swaps       atomic.Int64

	appends        atomic.Int64
	appendFailures atomic.Int64
	appendedRows   atomic.Int64
	appendNs       atomic.Int64
}

// compiledQuery is one compiled-query cache value.
type compiledQuery struct {
	c *query.Compiled
	// key is the canonical query text (query.Query.String of c.Q): what a
	// response reports and what the pick cache and the pick RNG key on,
	// whichever text the request used.
	key string
	// aggs is c.Q's aggregate labels, rendered once: every response to the
	// query shares the slice, read-only.
	aggs []string
}

// compile returns q's cache entry, compiling on a miss. cached reports a hit
// or a joined in-flight compile.
func (st *snapState) compile(q *query.Query) (cq *compiledQuery, cached bool, err error) {
	key := q.String()
	return st.compiled.GetOrCompute(key, func() (*compiledQuery, error) { return st.compileAs(q, key) })
}

// compileAs compiles q, whose canonical text is key, outside the cache.
func (st *snapState) compileAs(q *query.Query, key string) (*compiledQuery, error) {
	c, err := st.sys.Compile(q)
	if err != nil {
		return nil, err
	}
	aggs := make([]string, len(q.Aggs))
	for i, a := range q.Aggs {
		aggs[i] = a.String()
	}
	return &compiledQuery{c: c, key: key, aggs: aggs}, nil
}

// compileSQL is compile for SQL text. The entry is cached under the text
// too, so only the first request with a given text on this snapshot pays for
// sql.Parse and Query.String; differently written SQL for one query still
// shares the one compilation under the canonical key.
func (st *snapState) compileSQL(text string) (cq *compiledQuery, cached bool, err error) {
	var shared bool
	cq, cached, err = st.compiled.GetOrCompute(text, func() (*compiledQuery, error) {
		q, _, err := sql.Parse(text)
		if err != nil {
			return nil, err
		}
		key := q.String()
		if key == text { // this flight is the canonical key's own
			return st.compileAs(q, key)
		}
		cq, hit, err := st.compile(q)
		shared = hit
		return cq, err
	})
	return cq, cached || shared, err
}

// newSnapState builds the per-snapshot bundle.
func newSnapState(sys *core.System, cfg Config, version int64) *snapState {
	st := &snapState{
		sys:      sys,
		compiled: lru.New[string, *compiledQuery](int64(cfg.CacheSize), nil),
		version:  version,
	}
	if cfg.PickCacheSize >= 0 {
		st.picks = picker.NewSelectionCache(cfg.PickCacheSize)
	}
	return st
}

// New returns a server over sys, which must already be trained (a serving
// process restores a trained system from a snapshot; it never trains).
func New(sys *core.System, cfg Config) (*Server, error) {
	if sys.Picker == nil {
		return nil, fmt.Errorf("serve: system is not trained; restore a trained snapshot or call Train first")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		sem: make(chan struct{}, cfg.MaxInFlight),
	}
	s.state.Store(newSnapState(sys, cfg, 1))
	return s, nil
}

// RowAppender is the server's hook into a live write path: ingest's
// pipeline implements it. Kept as a one-method interface so serve depends
// on the capability, not on the WAL machinery.
type RowAppender interface {
	AppendRows(num [][]float64, cat [][]string) error
}

// AppendHealth is the optional capability an appender offers for reporting
// a sticky failure (ingest's pipeline: a poisoned WAL or failed flush).
// When Err is non-nil the server flips the write path to read-only —
// /append answers 503 while queries keep serving — instead of letting
// every append fail with a raw I/O error.
type AppendHealth interface {
	Err() error
}

// SetAppender installs (or, with nil, removes) the live append sink behind
// POST /append.
func (s *Server) SetAppender(a RowAppender) {
	if a == nil {
		s.appender.Store(nil)
		return
	}
	s.appender.Store(&a)
}

// Appender returns the installed append sink, or nil on a read-only
// server.
func (s *Server) Appender() RowAppender {
	if p := s.appender.Load(); p != nil {
		return *p
	}
	return nil
}

// System returns the currently installed system (read-only use).
func (s *Server) System() *core.System { return s.state.Load().sys }

// Swap atomically replaces the served system with a retrained one — the
// deployment move when a new snapshot lands. The compiled-query and
// pick-result caches are bound to the snapshot bundle and are replaced with
// it, and the outgoing pick cache is invalidated, so once Swap returns no
// request — not even one joining a selection computed mid-swap — can observe
// a pre-swap compilation or selection. Requests already executing against
// the old system finish coherently against it.
func (s *Server) Swap(sys *core.System) error {
	if sys.Picker == nil {
		return fmt.Errorf("serve: swapped-in system is not trained")
	}
	s.swapMu.Lock()
	old := s.state.Swap(newSnapState(sys, s.cfg, s.state.Load().version+1))
	s.swapMu.Unlock()
	if old.picks != nil {
		// Fail-fast for in-flight waiters on the outgoing cache: flights
		// finishing after the swap are dropped, not adopted.
		old.picks.Invalidate()
	}
	s.swaps.Add(1)
	return nil
}

// Append ingests a batch of rows through the installed appender, counting
// it in the server's metrics. Read-only servers return an error; a
// poisoned pipeline returns ErrReadOnly (wrapped with the root cause) so
// the transport can answer 503 instead of a generic failure.
func (s *Server) Append(num [][]float64, cat [][]string) error {
	a := s.Appender()
	if a == nil {
		s.appendFailures.Add(1)
		return fmt.Errorf("serve: server is read-only; no append sink installed")
	}
	if h, ok := a.(AppendHealth); ok {
		if herr := h.Err(); herr != nil {
			s.appendFailures.Add(1)
			return fmt.Errorf("%w: %w", ErrReadOnly, herr)
		}
	}
	start := time.Now()
	s.appends.Add(1)
	if err := a.AppendRows(num, cat); err != nil {
		s.appendFailures.Add(1)
		// The failure may have poisoned the pipeline between our health
		// probe and the write; report it as the read-only flip if so.
		if h, ok := a.(AppendHealth); ok && h.Err() != nil {
			return fmt.Errorf("%w: %w", ErrReadOnly, err)
		}
		return err
	}
	s.appendedRows.Add(int64(len(num)))
	s.appendNs.Add(int64(time.Since(start)))
	return nil
}

// ReadOnly reports whether the write path is degraded to read-only (a
// poisoned ingest pipeline) and why. Servers with no appender at all are
// not "read-only" in this sense — they never had a write path.
func (s *Server) ReadOnly() (bool, string) {
	a := s.Appender()
	if a == nil {
		return false, ""
	}
	if h, ok := a.(AppendHealth); ok {
		if err := h.Err(); err != nil {
			return true, err.Error()
		}
	}
	return false, ""
}

// StartDrain flips the server into drain mode: every query from now on is
// shed with ErrDraining (and /readyz reports not-ready, so load balancers
// stop routing here) while queued and in-flight requests complete. It is
// the first step of graceful shutdown and is never undone.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain blocks until no request is queued or in flight, or until ctx
// expires (returning its error with work still pending). Call StartDrain
// first; otherwise new arrivals can keep the server busy indefinitely.
func (s *Server) Drain(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.inFlight.Load() == 0 && s.queued.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// SnapshotVersion returns the version of the snapshot currently serving.
func (s *Server) SnapshotVersion() int64 { return s.state.Load().version }

// Response is one served answer, shaped for JSON transport: groups are
// label-sorted (strings.Compare) so responses are stable and diffable. A
// response is read-only: Aggs is shared by every response to the query, and
// so may a Group's Label be; the Values of one response's groups alias one
// slab.
type Response struct {
	Query     string   `json:"query"`
	Budget    float64  `json:"budget"`
	Groups    []Group  `json:"groups"`
	Aggs      []string `json:"aggs"`
	PartsRead int      `json:"parts_read"`
	FracRead  float64  `json:"frac_read"`
	Cached    bool     `json:"cached"` // compiled-query cache hit, or a joined in-flight compile
	// SnapshotVersion identifies the installed snapshot that answered: 1
	// for the boot system, +1 per Swap.
	SnapshotVersion int64 `json:"snapshot_version"`
	// PickCached reports that the partition selection came from the
	// pick-result cache (or joined an in-flight pick) instead of being
	// computed by this request. The answer is identical either way.
	PickCached bool    `json:"pick_cached"`
	LatencyMs  float64 `json:"latency_ms"`
	// PickMs / ScanMs split the request's latency into partition selection
	// and the weighted partition scan.
	PickMs float64 `json:"pick_ms"`
	ScanMs float64 `json:"scan_ms"`
	// Degraded reports that quarantined partitions were excluded from the
	// scan: the answer honestly covers less data than the picker chose.
	// SkippedParts lists the excluded partition ids. Absent (false/empty)
	// on healthy responses.
	Degraded     bool  `json:"degraded,omitempty"`
	SkippedParts []int `json:"skipped_parts,omitempty"`
}

// Group is one group's aggregate values under its human-readable label:
// query.Group with the transport's field names. Read-only, like the Response
// it belongs to.
type Group struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// MarshalJSON renders non-finite values as null: a SUM or AVG over a NaN
// cell (an appended JSON null) is NaN, and encoding/json refuses NaN and
// ±Inf outright, which would fail the whole response. Everything else is
// byte for byte what encoding/json writes for the same fields, appended to
// one buffer per group (an answer may carry a thousand of them).
func (g Group) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, len(`{"label":"","values":[]}`)+len(g.Label)+24*len(g.Values))
	b = append(b, `{"label":`...)
	if plainASCII(g.Label) {
		b = append(append(append(b, '"'), g.Label...), '"')
	} else {
		quoted, err := json.Marshal(g.Label)
		if err != nil {
			return nil, err
		}
		b = append(b, quoted...)
	}
	b = append(b, `,"values":`...)
	if g.Values == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, v := range g.Values {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, v)
	}
	return append(b, "]}"...), nil
}

// plainASCII reports whether encoding/json would write s between quotes
// unchanged: printable ASCII with none of the characters it escapes.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONFloat appends v in encoding/json's float64 format (ES6 number
// to string: exponent form below 1e-6 and from 1e21), or null if v is not
// finite.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b
}

// QuerySQL parses SQL text, executes it at the budget fraction (0 or less =
// the server default; NaN and ±Inf are errors) and returns the
// transport-shaped response.
func (s *Server) QuerySQL(sqlText string, budget float64) (*Response, error) {
	return s.QuerySQLCtx(context.Background(), sqlText, budget)
}

// QuerySQLCtx is QuerySQL under the caller's context (the HTTP layer
// passes the request context, so a disconnected client cancels its scan).
func (s *Server) QuerySQLCtx(ctx context.Context, sqlText string, budget float64) (*Response, error) {
	return s.serve(ctx, nil, sqlText, budget)
}

// Query executes q at the budget fraction (as for QuerySQL). The
// result is identical to sys.Run(q, budget): the caches and admission
// control are invisible in the answer — a pick-cache hit returns the
// byte-identical selection a cold pick would compute, because picking is
// deterministic per (seed, query text, budget).
func (s *Server) Query(q *query.Query, budget float64) (*Response, error) {
	return s.QueryCtx(context.Background(), q, budget)
}

// admit acquires an in-flight slot under the admission policy: immediate
// grant when a slot is free; otherwise the request queues, bounded by
// MaxQueue (beyond it, ErrShed) and by the context (deadline or
// disconnect while queued returns ctx.Err()). The returned release
// function must be called exactly once.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	release = func() {
		s.inFlight.Add(-1)
		<-s.sem
	}
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return release, nil
	default:
	}
	if max := int64(s.cfg.MaxQueue); max >= 0 && s.queued.Load() >= max {
		return nil, ErrShed
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// QueryCtx is Query under a context: the deadline (the caller's, tightened
// by Config.RequestTimeout) is observed while queued for admission and
// between partitions during the scan. Degraded answers — quarantined
// partitions dropped by core's degradation loop — are declared in the
// response, never silent. Shed and deadline outcomes are counted
// separately from other failures in the metrics.
func (s *Server) QueryCtx(ctx context.Context, q *query.Query, budget float64) (*Response, error) {
	return s.serve(ctx, q, "", budget)
}

// serve answers q, or when q is nil the query sqlText parses to.
func (s *Server) serve(ctx context.Context, q *query.Query, sqlText string, budget float64) (*Response, error) {
	start := time.Now()
	s.requests.Add(1)
	if s.draining.Load() {
		s.failures.Add(1)
		s.sheds.Add(1)
		return nil, ErrDraining
	}
	if math.IsNaN(budget) || math.IsInf(budget, 0) {
		// No partition count follows from it (core.budgetParts would convert
		// a non-finite float to int) and encoding/json refuses to echo it.
		s.failures.Add(1)
		return nil, fmt.Errorf("serve: budget must be a finite fraction, got %v", budget)
	}
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	if budget <= 0 {
		budget = s.cfg.DefaultBudget
	}
	st := s.state.Load()
	var (
		cq     *compiledQuery
		cached bool
		err    error
	)
	if q != nil {
		cq, cached, err = st.compile(q)
	} else {
		cq, cached, err = st.compileSQL(sqlText)
	}
	if err != nil {
		s.failures.Add(1)
		return nil, err
	}
	// The cached compilation's own query: the one q parsed to, or an equal
	// one from the request that compiled it.
	c, key := cq.c, cq.key
	q = c.Q
	if cached {
		s.cacheHits.Add(1)
	} else {
		s.cacheMisses.Add(1)
	}

	// Bound in-flight work: a burst beyond MaxInFlight queues here, bounded
	// by MaxQueue and the deadline. Picking (cached or not) and scanning
	// both count against the bound. The release is deferred so a panic
	// during evaluation (recovered per request by net/http) can't leak the
	// slot and wedge the server.
	res, pickHit, err := func() (*core.Result, bool, error) {
		release, err := s.admit(ctx)
		if err != nil {
			return nil, false, err
		}
		defer release()
		n := st.sys.PartsForBudget(budget)
		var pickStats picker.PickStats
		pick := func() ([]query.WeightedPartition, error) {
			sel, ps, err := st.sys.PickParts(q, n)
			pickStats = ps
			return sel, err
		}
		var (
			sel []query.WeightedPartition
			hit bool
		)
		if st.picks != nil {
			sel, hit, err = st.picks.GetOrCompute(picker.SelectionKey{Query: key, N: n}, pick)
		} else {
			sel, err = pick()
		}
		if err != nil {
			return nil, false, err
		}
		res, err := st.sys.RunSelectionGroupsCtx(ctx, c, sel)
		if err != nil {
			return nil, false, err
		}
		// Zero when the selection came from the cache: no picking happened
		// in this request.
		res.PickTime = pickStats.Total
		return res, hit, nil
	}()

	if err != nil {
		s.failures.Add(1)
		switch {
		case errors.Is(err, ErrShed) || errors.Is(err, ErrDraining):
			s.sheds.Add(1)
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			s.deadlines.Add(1)
		}
		return nil, err
	}
	if res.Degraded {
		s.degraded.Add(1)
	}
	lat := time.Since(start)
	s.latencyNs.Add(int64(lat))
	updateMax(&s.maxLatency, int64(lat))
	s.partsRead.Add(int64(res.PartsRead))
	s.pickNs.Add(int64(res.PickTime))
	s.scanNs.Add(int64(res.ScanTime))

	resp := &Response{
		Query:           key,
		Aggs:            cq.aggs,
		Budget:          budget,
		PartsRead:       res.PartsRead,
		FracRead:        res.FracRead,
		Cached:          cached,
		PickCached:      pickHit,
		SnapshotVersion: st.version,
		LatencyMs:       float64(lat) / float64(time.Millisecond),
		PickMs:          float64(res.PickTime) / float64(time.Millisecond),
		ScanMs:          float64(res.ScanTime) / float64(time.Millisecond),
		Degraded:        res.Degraded,
		SkippedParts:    res.SkippedParts,
	}
	resp.Groups = make([]Group, len(res.Groups))
	for i, g := range res.Groups {
		resp.Groups[i] = Group(g)
	}
	return resp, nil
}

// CacheLen returns the number of cached compiled queries.
func (s *Server) CacheLen() int { return s.state.Load().compiled.Stats().Entries }

// PickCacheStats snapshots the current snapshot's pick-result cache counters
// (zero value when pick caching is disabled).
func (s *Server) PickCacheStats() picker.SelectionCacheStats {
	if p := s.state.Load().picks; p != nil {
		return p.Stats()
	}
	return picker.SelectionCacheStats{}
}

// Metrics is a point-in-time snapshot of the server's counters.
type Metrics struct {
	Requests    int64 `json:"requests"`
	Failures    int64 `json:"failures"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheLen    int   `json:"cache_len"`
	PartsRead   int64 `json:"parts_read"`
	InFlight    int64 `json:"in_flight"`
	Queued      int64 `json:"queued"`
	Swaps       int64 `json:"swaps"`
	// Sheds counts requests rejected by admission control (queue full or
	// draining); Deadlines counts requests that missed their deadline or
	// were cancelled — queued or mid-scan. Both are included in Failures.
	Sheds     int64 `json:"sheds"`
	Deadlines int64 `json:"deadlines"`
	// Degraded counts successful responses that carried degraded: true
	// (quarantined partitions excluded from the scan).
	Degraded int64 `json:"degraded"`
	// Draining reports drain mode (shutting down, shedding new queries);
	// ReadOnly reports a poisoned write path (appends 503, queries fine),
	// with the cause in ReadOnlyReason.
	Draining       bool   `json:"draining,omitempty"`
	ReadOnly       bool   `json:"read_only,omitempty"`
	ReadOnlyReason string `json:"read_only_reason,omitempty"`
	// SnapshotVersion is the currently installed snapshot's version.
	SnapshotVersion int64 `json:"snapshot_version"`
	// Appends / AppendFailures / AppendedRows / AvgAppendMs count live
	// ingest traffic through the server's append sink (zero on read-only
	// servers). AvgAppendMs is per successful append batch and includes
	// the WAL group-commit wait.
	Appends        int64   `json:"appends"`
	AppendFailures int64   `json:"append_failures"`
	AppendedRows   int64   `json:"appended_rows"`
	AvgAppendMs    float64 `json:"avg_append_ms"`
	AvgLatencyMs   float64 `json:"avg_latency_ms"`
	MaxLatencyMs   float64 `json:"max_latency_ms"`
	// AvgPickMs / AvgScanMs split the served latency into partition
	// selection (the learned picker's batched inference) and the weighted
	// partition scans, per successful request; PickFrac is pick time as a
	// share of pick+scan. Compiled-query cache hits make the remainder
	// (request latency minus pick minus scan) essentially transport.
	AvgPickMs float64 `json:"avg_pick_ms"`
	AvgScanMs float64 `json:"avg_scan_ms"`
	PickFrac  float64 `json:"pick_frac"`
	// PickCache carries the pick-result cache counters of the installed
	// snapshot (nil when pick caching is disabled): hits, misses,
	// single-flight shares, evictions and mean hit age.
	PickCache *picker.SelectionCacheStats `json:"pick_cache,omitempty"`
	// PickerTableBytes is the memory the installed snapshot's picker holds in
	// funnel fold tables (picker.Picker.TableBytes): 0 until the snapshot's
	// first pick miss builds them. No cache budget bounds it.
	PickerTableBytes int64 `json:"picker_table_bytes"`
	// Store carries the partition-cache counters when the system serves
	// from a paged store (nil on fully-resident systems): physical loads,
	// hits, evictions, and resident bytes vs budget.
	Store *store.CacheStats `json:"store,omitempty"`
	// StoreEncoding carries the store's block-encoding counters (nil on
	// fully-resident systems): compression ratio and how many encoded
	// columns had to be materialized anyway.
	StoreEncoding *store.EncodingStats `json:"store_encoding,omitempty"`
	// StoreHealth carries the source's quarantine state when it reports one
	// (paged stores and ingest's multi-segment source): fenced partitions
	// and corrupt-load retries. Nil when the source offers no health
	// report; zero-valued when healthy.
	StoreHealth *store.HealthStats `json:"store_health,omitempty"`
	// EncodedKernelEvals counts predicate clauses evaluated directly on
	// encoded columns (process-wide) — the work the encodings let scans
	// skip.
	EncodedKernelEvals int64 `json:"encoded_kernel_evals"`
}

// Stats snapshots the counters; averages are over successful requests. Every
// per-snapshot figure (cache_len, pick_cache, snapshot_version, the store
// blocks) comes from one loaded state, so a racing Swap cannot mix snapshots.
func (s *Server) Stats() Metrics {
	st := s.state.Load()
	m := Metrics{
		Requests:    s.requests.Load(),
		Failures:    s.failures.Load(),
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.cacheMisses.Load(),
		CacheLen:    st.compiled.Stats().Entries,
		PartsRead:   s.partsRead.Load(),
		InFlight:    s.inFlight.Load(),
		Queued:      s.queued.Load(),
		Swaps:       s.swaps.Load(),
		Sheds:       s.sheds.Load(),
		Deadlines:   s.deadlines.Load(),
		Degraded:    s.degraded.Load(),
		Draining:    s.draining.Load(),

		SnapshotVersion: st.version,
		Appends:         s.appends.Load(),
		AppendFailures:  s.appendFailures.Load(),
		AppendedRows:    s.appendedRows.Load(),
	}
	if ok := m.Appends - m.AppendFailures; ok > 0 {
		m.AvgAppendMs = float64(s.appendNs.Load()) / float64(ok) / float64(time.Millisecond)
	}
	pickNs, scanNs := s.pickNs.Load(), s.scanNs.Load()
	if ok := m.Requests - m.Failures; ok > 0 {
		m.AvgLatencyMs = float64(s.latencyNs.Load()) / float64(ok) / float64(time.Millisecond)
		m.AvgPickMs = float64(pickNs) / float64(ok) / float64(time.Millisecond)
		m.AvgScanMs = float64(scanNs) / float64(ok) / float64(time.Millisecond)
	}
	if total := pickNs + scanNs; total > 0 {
		m.PickFrac = float64(pickNs) / float64(total)
	}
	m.MaxLatencyMs = float64(s.maxLatency.Load()) / float64(time.Millisecond)
	if st.picks != nil {
		ps := st.picks.Stats()
		m.PickCache = &ps
	}
	if p := st.sys.Picker; p != nil {
		m.PickerTableBytes = p.TableBytes()
	}
	if cs, ok := st.sys.Source.(interface{ CacheStats() store.CacheStats }); ok {
		cst := cs.CacheStats()
		m.Store = &cst
	}
	if es, ok := st.sys.Source.(interface{ EncodingStats() store.EncodingStats }); ok {
		est := es.EncodingStats()
		m.StoreEncoding = &est
	}
	if hs, ok := st.sys.Source.(interface{ Health() store.HealthStats }); ok {
		h := hs.Health()
		m.StoreHealth = &h
	}
	m.ReadOnly, m.ReadOnlyReason = s.ReadOnly()
	m.EncodedKernelEvals = query.EncodedKernelEvals()
	return m
}

// updateMax raises *a to v if v is larger (lock-free max).
func updateMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

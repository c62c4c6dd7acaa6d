package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ps3/internal/core"
	"ps3/internal/dataset"
	"ps3/internal/query"
	"ps3/internal/sql"
	"ps3/internal/store"
	"ps3/internal/table"
	"ps3/internal/testutil"
)

// fixtureConfig is the dataset every serving fixture builds from;
// fixtureSizes derives cache budgets from the same config.
var fixtureConfig = dataset.Config{Rows: 16000, Parts: 40, Seed: 1}

// restoredSystem trains a small system, snapshots it together with its
// table, and restores both from bytes — the serving deployment shape: the
// server always fronts a snapshot-restored system, never the process that
// trained.
func restoredSystem(t testing.TB, trainN int) (*core.System, []*query.Query) {
	t.Helper()
	ds, err := dataset.Aria(fixtureConfig)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(ds.Table, core.Options{Workload: ds.Workload, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, ds.Table, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(gen.SampleN(trainN), nil); err != nil {
		t.Fatal(err)
	}

	var snapBuf bytes.Buffer
	if _, err := sys.WriteTo(&snapBuf); err != nil {
		t.Fatal(err)
	}
	restored, err := core.OpenSnapshot(&snapBuf, decodedCopy(t, ds.Table))
	if err != nil {
		t.Fatal(err)
	}
	return restored, gen.SampleN(12)
}

// decodedCopy round-trips tbl through store bytes and rebuilds every
// partition decoded, into slices of its own. The copy stays a resident
// table of decoded columns, like tbl — the resident arm of the
// resident-vs-paged suites: Reader.Materialize alone would hand back
// encoded partitions.
func decodedCopy(t testing.TB, tbl *table.Table) *table.Table {
	t.Helper()
	var buf bytes.Buffer
	if _, err := store.WriteWith(&buf, tbl, store.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := store.NewReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	out := &table.Table{Schema: enc.Schema, Dict: enc.Dict}
	for _, p := range enc.Parts {
		n, c := p.DecodedCols()
		num, cat := make([][]float64, len(n)), make([][]uint32, len(c))
		for i := range n {
			num[i], cat[i] = slices.Clone(n[i]), slices.Clone(c[i])
		}
		dp, err := table.MakePartition(enc.Schema, p.ID, p.Rows(), num, cat)
		if err != nil {
			t.Fatal(err)
		}
		out.Parts = append(out.Parts, dp)
	}
	return out
}

// residentAndPagedSystems trains one system and restores its snapshot
// twice: once over the resident table, once over the same data re-written
// in the paged store format and opened with the given cache budget. The
// pair is the equivalence fixture for out-of-core serving.
func residentAndPagedSystems(t testing.TB, trainN int, cacheBytes int64) (resident, paged *core.System, r *store.Reader, queries []*query.Query) {
	t.Helper()
	sys, queries := restoredSystem(t, trainN)

	var storeBuf, snapBuf bytes.Buffer
	if _, err := store.WriteWith(&storeBuf, sys.Table, store.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WriteTo(&snapBuf); err != nil {
		t.Fatal(err)
	}
	r, err := store.NewReaderAt(bytes.NewReader(storeBuf.Bytes()), int64(storeBuf.Len()), store.Options{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	paged, err = core.OpenSnapshot(&snapBuf, r)
	if err != nil {
		t.Fatal(err)
	}
	if paged.Table != nil {
		t.Fatal("store-backed system must not hold a resident table")
	}
	return sys, paged, r, queries
}

func TestNewRequiresTrainedSystem(t *testing.T) {
	ds, err := dataset.Aria(dataset.Config{Rows: 2000, Parts: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(ds.Table, core.Options{Workload: ds.Workload})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sys, Config{}); err == nil {
		t.Fatal("want error for untrained system")
	}
}

// TestNewRejectsDefaultBudgetOutsideUnitRange: the default budget is held
// to the range a request's own budget must lie in. A NaN or infinite one
// made every request that omits a budget read one partition (and fail to
// encode over HTTP), and 2 read every partition while echoing a budget
// POST /query rejects.
func TestNewRejectsDefaultBudgetOutsideUnitRange(t *testing.T) {
	sys, queries := restoredSystem(t, 5)
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.5, 2} {
		if _, err := New(sys, Config{DefaultBudget: b}); err == nil {
			t.Errorf("New accepted DefaultBudget %v", b)
		}
	}
	for _, tc := range []struct{ budget, want float64 }{{0, 0.05}, {0.25, 0.25}, {1, 1}} {
		srv, err := New(sys, Config{DefaultBudget: tc.budget})
		if err != nil {
			t.Fatalf("DefaultBudget %v: %v", tc.budget, err)
		}
		resp, err := srv.Query(queries[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Budget != tc.want || resp.PartsRead != sys.PartsForBudget(tc.want) {
			t.Errorf("DefaultBudget %v: served at budget %v reading %d partitions, want %v and %d",
				tc.budget, resp.Budget, resp.PartsRead, tc.want, sys.PartsForBudget(tc.want))
		}
	}
}

func TestServeMatchesDirectRun(t *testing.T) {
	sys, queries := restoredSystem(t, 20)
	srv, err := New(sys, Config{DefaultBudget: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		direct, err := sys.Run(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Query(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if resp.PartsRead != direct.PartsRead {
			t.Fatalf("query %s: served %d parts, direct %d", q, resp.PartsRead, direct.PartsRead)
		}
		if len(resp.Groups) != len(direct.Values) {
			t.Fatalf("query %s: served %d groups, direct %d", q, len(resp.Groups), len(direct.Values))
		}
		want := make(map[string][]float64, len(direct.Values))
		for g, vals := range direct.Values {
			want[direct.Labels[g]] = vals
		}
		for _, grp := range resp.Groups {
			if !reflect.DeepEqual(want[grp.Label], grp.Values) {
				t.Fatalf("query %s group %q: served %v, direct %v", q, grp.Label, grp.Values, want[grp.Label])
			}
		}
	}
}

func TestServeCacheHitsAndEviction(t *testing.T) {
	sys, queries := restoredSystem(t, 15)
	srv, err := New(sys, Config{CacheSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := queries[0]
	if _, err := srv.Query(q, 0.1); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Query(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("second execution of the same query missed the cache")
	}
	m := srv.Stats()
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("cache counters: %d hits / %d misses, want 1/1", m.CacheHits, m.CacheMisses)
	}
	// Fill past capacity; the LRU must stay bounded.
	for _, qq := range queries[1:] {
		if _, err := srv.Query(qq, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Stats().CacheLen; got > 3 {
		t.Fatalf("cache grew to %d entries, cap is 3", got)
	}
	// SQL text canonicalization: differently-formatted SQL for the same
	// query shares one cache entry.
	srv2, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.QuerySQLCtx(context.Background(), "SELECT COUNT(*) FROM t", 0.1); err != nil {
		t.Fatal(err)
	}
	resp2, err := srv2.QuerySQLCtx(context.Background(), "select   count(*)   from t", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("canonically equal SQL text missed the cache")
	}
	// The entry is now keyed on that text as well: a repeat finds it without
	// parsing (one more entry, no new compilation), and still answers under
	// the canonical text. Text that does not parse is not cached.
	resp3, err := srv2.QuerySQLCtx(context.Background(), "select   count(*)   from t", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !resp3.Cached || resp3.Query != "SELECT COUNT(*) FROM t" || !resp3.PickCached {
		t.Fatalf("repeat of the same SQL text: cached %v, pick cached %v, query %q", resp3.Cached, resp3.PickCached, resp3.Query)
	}
	if _, err := srv2.QuerySQLCtx(context.Background(), "select count(*) from", 0.1); err == nil {
		t.Fatal("malformed SQL was served")
	}
	if m := srv2.Stats(); m.CacheLen != 2 || m.CacheMisses != 1 || m.CacheHits != 2 || m.Failures != 1 {
		t.Fatalf("one query under two texts and one parse error: %d entries, %d misses, %d hits, %d failures; want 2, 1, 2, 1",
			m.CacheLen, m.CacheMisses, m.CacheHits, m.Failures)
	}
}

func TestServeHTTP(t *testing.T) {
	sys, _ := restoredSystem(t, 15)
	srv, err := New(sys, Config{DefaultBudget: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, body := post(`{"sql": "SELECT TenantId, COUNT(*) FROM t GROUP BY TenantId", "budget": 0.2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query returned %d: %s", resp.StatusCode, body)
	}
	var qr Response
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if qr.PartsRead == 0 || len(qr.Groups) == 0 {
		t.Fatalf("empty served answer: %+v", qr)
	}

	if resp, body = post(`{"sql": ""}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing sql returned %d: %s", resp.StatusCode, body)
	}
	if resp, body = post(`{"sql": "SELECT", "budget": 0.1}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unparsable sql returned %d: %s", resp.StatusCode, body)
	}
	if resp, body = post(`{"sql": "SELECT COUNT(*) FROM t", "budget": 7}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range budget returned %d: %s", resp.StatusCode, body)
	}
	if resp, body = post(`{bad json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json returned %d: %s", resp.StatusCode, body)
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(sresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 {
		t.Fatalf("stats show no requests: %+v", m)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", hresp.StatusCode)
	}
}

// TestBudgetValidation: one table over every entry point. A budget is a
// fraction: /query takes [0, 1] (0 or absent = the server default) and says
// so in the message that rejects anything else; the in-process entry points
// also take a negative one as the default and clamp one above 1 to the whole
// table, as they always have; and nothing takes NaN or ±Inf, which name no
// partition count and cannot be echoed in a JSON response — they fail before
// admission, and nothing is compiled or cached for them.
func TestBudgetValidation(t *testing.T) {
	sys, _ := restoredSystem(t, 15)
	srv, err := New(sys, Config{DefaultBudget: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const text = "SELECT TenantId, COUNT(*) FROM t GROUP BY TenantId"
	parsed, _, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	all, tenth := sys.Source.NumParts(), sys.PartsForBudget(0.1)
	for _, tc := range []struct {
		name string
		// budget is what the in-process entry points are given, body what
		// /query is sent as its "budget" member ("" sends none).
		budget float64
		body   string
		// parts is the partition count an accepted request reads; 0 means
		// the in-process entry points must refuse. status is /query's.
		parts  int
		status int
	}{
		{"absent", 0, "", tenth, http.StatusOK},
		{"zero", 0, "0", tenth, http.StatusOK},
		{"a fraction", 0.25, "0.25", sys.PartsForBudget(0.25), http.StatusOK},
		{"one", 1, "1", all, http.StatusOK},
		{"negative", -0.5, "-0.5", tenth, http.StatusBadRequest},
		{"above one", 2, "2", all, http.StatusBadRequest},
		{"NaN", math.NaN(), "NaN", 0, http.StatusBadRequest},
		{"+Inf", math.Inf(1), "1e999", 0, http.StatusBadRequest},
		{"-Inf", math.Inf(-1), "-1e999", 0, http.StatusBadRequest},
	} {
		before := srv.Stats()
		for entry, ask := range map[string]func() (*Response, error){
			"Query":       func() (*Response, error) { return srv.Query(parsed, tc.budget) },
			"QuerySQLCtx": func() (*Response, error) { return srv.QuerySQLCtx(context.Background(), text, tc.budget) },
		} {
			resp, err := ask()
			switch {
			case tc.parts == 0 && err == nil:
				t.Errorf("%s budget, %s: accepted, read %d partitions", tc.name, entry, resp.PartsRead)
			case tc.parts == 0:
				if !strings.Contains(err.Error(), "budget") {
					t.Errorf("%s budget, %s: error %q does not name the budget", tc.name, entry, err)
				}
			case err != nil:
				t.Errorf("%s budget, %s: %v", tc.name, entry, err)
			case resp.PartsRead != tc.parts:
				t.Errorf("%s budget, %s: read %d partitions, want %d", tc.name, entry, resp.PartsRead, tc.parts)
			default:
				if _, err := json.Marshal(resp); err != nil {
					t.Errorf("%s budget, %s: the response does not marshal: %v", tc.name, entry, err)
				}
			}
		}
		if after := srv.Stats(); tc.parts == 0 && (after.Failures != before.Failures+2 || after.CacheLen != before.CacheLen ||
			after.CacheHits+after.CacheMisses != before.CacheHits+before.CacheMisses || after.PickCache.Misses != before.PickCache.Misses) {
			t.Errorf("%s budget: a refused request reached the caches or was not counted failed:\nbefore %+v\n after %+v", tc.name, before, after)
		}

		body := `{"sql": "` + text + `"}`
		if tc.body != "" {
			body = `{"sql": "` + text + `", "budget": ` + tc.body + `}`
		}
		hr, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Error     string `json:"error"`
			PartsRead int    `json:"parts_read"`
		}
		err = json.NewDecoder(hr.Body).Decode(&got)
		hr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case hr.StatusCode != tc.status:
			t.Errorf("%s budget, /query: status %d (%+v), want %d", tc.name, hr.StatusCode, got, tc.status)
		case tc.status == http.StatusOK && got.PartsRead != tc.parts:
			t.Errorf("%s budget, /query: read %d partitions, want %d", tc.name, got.PartsRead, tc.parts)
		case tc.status != http.StatusOK && tc.parts != 0 && !strings.Contains(got.Error, "[0, 1]"):
			// Out of range: the message states the range the check enforces.
			t.Errorf("%s budget, /query: error %q does not state the accepted range [0, 1]", tc.name, got.Error)
		}
	}
}

// ask is one request of the concurrent suites: a query at a budget.
type ask struct {
	q      *query.Query
	budget float64
}

// concurrentAsks is what the concurrent suites request: every sampled query
// at one budget, and grouped templates — one, two and three GROUP BY columns,
// tens to hundreds of groups — at three, so that requests for one template
// scan different selections, see different subsets of its groups, and (the
// suites run with a compiled cache smaller than the template count, so
// entries keep being evicted and compiled anew) race to grow one label memo
// from empty.
func concurrentAsks(t testing.TB, queries []*query.Query, budget float64) []ask {
	t.Helper()
	var asks []ask
	for _, q := range queries {
		asks = append(asks, ask{q, budget})
	}
	for _, text := range []string{
		"SELECT AppInfo_Version, SUM(olsize), COUNT(*) FROM t GROUP BY AppInfo_Version",
		"SELECT UserInfo_TimeZone, DeviceInfo_NetworkType, AVG(records_sent_count) FROM t GROUP BY UserInfo_TimeZone, DeviceInfo_NetworkType",
		"SELECT TenantId, AppInfo_Version, DeviceInfo_NetworkType, COUNT(*), SUM(ol_w) FROM t WHERE records_received_count > 2 GROUP BY TenantId, AppInfo_Version, DeviceInfo_NetworkType",
	} {
		q, _, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []float64{0.05, budget, 0.4} {
			asks = append(asks, ask{q, b})
		}
	}
	return asks
}

// labelled keys a direct result's values by group label.
func labelled(res *core.Result) map[string][]float64 {
	vals := make(map[string][]float64, len(res.Values))
	for g, v := range res.Values {
		vals[res.Labels[g]] = v
	}
	return vals
}

// checkServed compares a served response with the labelled direct answer:
// the same groups, bit for bit, in ascending label order.
func checkServed(resp *Response, want map[string][]float64) error {
	if len(resp.Groups) != len(want) {
		return fmt.Errorf("served %d groups, baseline %d", len(resp.Groups), len(want))
	}
	for i, grp := range resp.Groups {
		if i > 0 && resp.Groups[i-1].Label >= grp.Label {
			return fmt.Errorf("group %q served after %q", grp.Label, resp.Groups[i-1].Label)
		}
		if !reflect.DeepEqual(want[grp.Label], grp.Values) {
			return fmt.Errorf("group %q: served %v, baseline %v", grp.Label, grp.Values, want[grp.Label])
		}
	}
	return nil
}

// TestConcurrentServingMatchesSequentialBaseline is the serving-layer race
// test: N goroutines fan requests over one restored system through both the
// server and System.Run directly, and every concurrent answer must equal
// the sequential baseline computed up front. Run under -race (make race).
func TestConcurrentServingMatchesSequentialBaseline(t *testing.T) {
	sys, queries := restoredSystem(t, 20)
	srv, err := New(sys, Config{MaxInFlight: 4, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 0.15

	// Sequential baseline.
	type baseline struct {
		values map[string][]float64
		parts  int
	}
	asks := concurrentAsks(t, queries, budget)
	want := make([]baseline, len(asks))
	for i, a := range asks {
		res, err := sys.Run(a.q, a.budget)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = baseline{values: labelled(res), parts: res.PartsRead}
	}

	const workers = 8
	const rounds = 5
	var wg sync.WaitGroup
	// Sends must never block: a broad regression reports one error per
	// request from every worker, and a full channel would deadlock the
	// workers before wg.Wait returns. Errors beyond the buffer are dropped;
	// the survivors are plenty to fail on.
	errs := make(chan error, workers*rounds*len(asks))
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range asks {
					// Workers start at different asks, so each template is met
					// at different budgets by different workers at once.
					i := (k + w*5) % len(asks)
					a := asks[i]
					// Alternate between the serve path and the direct
					// System.Run path, as the satellite task specifies.
					if (w+r+i)%2 == 0 {
						resp, err := srv.Query(a.q, a.budget)
						if err != nil {
							report(err)
							continue
						}
						if resp.PartsRead != want[i].parts {
							report(fmt.Errorf("ask %d: served %d parts, baseline %d", i, resp.PartsRead, want[i].parts))
						}
						if err := checkServed(resp, want[i].values); err != nil {
							report(fmt.Errorf("ask %d (%s at %v): %w", i, a.q, a.budget, err))
						}
					} else {
						res, err := sys.Run(a.q, a.budget)
						if err != nil {
							report(err)
							continue
						}
						if res.PartsRead != want[i].parts {
							report(fmt.Errorf("ask %d: direct %d parts, baseline %d", i, res.PartsRead, want[i].parts))
						}
						if got := labelled(res); !reflect.DeepEqual(got, want[i].values) {
							report(fmt.Errorf("ask %d (%s at %v): direct %v, baseline %v", i, a.q, a.budget, got, want[i].values))
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := srv.Stats()
	if m.Failures != 0 {
		t.Fatalf("server recorded %d failures", m.Failures)
	}
	if m.InFlight != 0 {
		t.Fatalf("in-flight gauge did not drain: %d", m.InFlight)
	}
}

// TestServePagedMatchesResident is the acceptance contract for out-of-core
// serving: a store-backed server must answer bit-identically to the
// fully-resident server for the same snapshot and seed — the partition
// cache and block decode are invisible in the results.
func TestServePagedMatchesResident(t *testing.T) {
	resident, paged, r, queries := residentAndPagedSystems(t, 20, -1)
	srvR, err := New(resident, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srvP, err := New(paged, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := srvR.Query(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := srvP.Query(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got.PartsRead != want.PartsRead || got.FracRead != want.FracRead {
			t.Fatalf("query %s: paged read %d parts, resident %d", q, got.PartsRead, want.PartsRead)
		}
		if !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("query %s:\npaged    %v\nresident %v", q, got.Groups, want.Groups)
		}
	}
	if m := srvR.Stats(); m.Store != nil {
		t.Fatal("resident server must not report store cache counters")
	}
	m := srvP.Stats()
	if m.Store == nil {
		t.Fatal("paged server must report store cache counters")
	}
	if m.Store.Misses == 0 || m.Store.LoadedBytes == 0 {
		t.Fatalf("paged serving recorded no physical loads: %+v", *m.Store)
	}
	if got := r.CacheStats(); got.Misses != m.Store.Misses {
		t.Fatalf("stats snapshot disagrees with reader: %+v vs %+v", m.Store, got)
	}
}

// fixtureSizes reports the byte sizes of the restoredSystem dataset without
// the cost of building and training a full system (both build from
// fixtureConfig).
func fixtureSizes(t testing.TB) (totalBytes, partSize int64) {
	t.Helper()
	ds, err := dataset.Aria(fixtureConfig)
	if err != nil {
		t.Fatal(err)
	}
	return int64(ds.Table.TotalBytes()), int64(ds.Table.Parts[0].SizeBytes())
}

// TestServePagedBoundedCacheLoadsOnlyPicked asserts the memory-model flip:
// with a cache budget far below TotalBytes, serving stays within budget and
// the physical bytes faulted in are bounded by what the picker selected,
// not by the dataset.
func TestServePagedBoundedCacheLoadsOnlyPicked(t *testing.T) {
	totalBytes, partSize := fixtureSizes(t)
	budget := totalBytes / 8 // ~5 of 40 partitions
	_, paged, r, queries := residentAndPagedSystems(t, 15, budget)
	if int64(r.TotalBytes()) <= budget {
		t.Fatalf("fixture defeats the test: budget %d covers the %d-byte dataset", budget, r.TotalBytes())
	}
	reads := testutil.CountReads(paged.Source)
	paged.Source = reads
	srv, err := New(paged, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var logicalReads int64
	for _, q := range queries {
		resp, err := srv.Query(q, 0.05) // 2 of 40 partitions per request
		if err != nil {
			t.Fatal(err)
		}
		logicalReads += int64(resp.PartsRead)
	}
	if parts := len(reads.Reads()); int64(parts) != logicalReads {
		t.Fatalf("the server read %d partitions, responses say %d", parts, logicalReads)
	}
	st := r.CacheStats()
	if st.ResidentBytes > budget {
		t.Fatalf("cache holds %d bytes, budget %d", st.ResidentBytes, budget)
	}
	if st.LoadedBytes > logicalReads*partSize {
		t.Fatalf("loaded %d physical bytes for %d picked partition reads of ≤%d bytes each",
			st.LoadedBytes, logicalReads, partSize)
	}
	if st.LoadedBytes >= int64(r.TotalBytes()) {
		t.Fatalf("picked-set serving faulted in the whole dataset: %d of %d bytes",
			st.LoadedBytes, r.TotalBytes())
	}
}

// TestConcurrentPagedServingMatchesResidentBaseline is the out-of-core half
// of the serving race contract: concurrent requests against a store-backed
// server with a thrashing cache must reproduce the resident sequential
// baseline bit for bit. Run under -race (make race-serve).
func TestConcurrentPagedServingMatchesResidentBaseline(t *testing.T) {
	_, partSize := fixtureSizes(t)
	// Room for ~3 partitions: every scan evicts, exercising reload + single
	// flight under contention.
	resident, paged, _, queries := residentAndPagedSystems(t, 20, 3*partSize)
	srv, err := New(paged, Config{MaxInFlight: 4, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 0.15
	asks := concurrentAsks(t, queries, budget)
	want := make([]map[string][]float64, len(asks))
	for i, a := range asks {
		res, err := resident.Run(a.q, a.budget)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = labelled(res)
	}
	const workers = 8
	const rounds = 4
	var wg sync.WaitGroup
	// Non-blocking sends, as in the resident concurrent test: errors
	// beyond the buffer are dropped rather than deadlocking workers.
	errs := make(chan error, workers*rounds*len(asks))
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range asks {
					i := (k + w*5) % len(asks)
					resp, err := srv.Query(asks[i].q, asks[i].budget)
					if err != nil {
						report(err)
						continue
					}
					if err := checkServed(resp, want[i]); err != nil {
						report(fmt.Errorf("ask %d (%s at %v), paged: %w", i, asks[i].q, asks[i].budget, err))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := srv.Stats(); m.Failures != 0 {
		t.Fatalf("server recorded %d failures", m.Failures)
	}
}

// queryConcurrently drives total srv.Query calls from workers goroutines,
// round-robin over queries, and returns how many were served from the
// pick-result cache. Any failed request fails the test.
func queryConcurrently(t *testing.T, srv *Server, queries []*query.Query, budget float64, workers, total int) (pickHits int64) {
	t.Helper()
	var next, hits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < total; i = int(next.Add(1)) - 1 {
				resp, err := srv.Query(queries[i%len(queries)], budget)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.PickCached {
					hits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return hits.Load()
}

// TestStatsPickScanBreakdown checks the pick-vs-scan latency split /stats
// reports after concurrent traffic.
func TestStatsPickScanBreakdown(t *testing.T) {
	sys, queries := restoredSystem(t, 15)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	queryConcurrently(t, srv, queries[:4], 0.1, 4, 60)
	m := srv.Stats()
	if m.Requests != 60 || m.Failures != 0 {
		t.Fatalf("requests %d failures %d, want 60 and 0", m.Requests, m.Failures)
	}
	if m.AvgPickMs <= 0 || m.AvgScanMs <= 0 {
		t.Fatalf("pick/scan breakdown missing from /stats metrics: %+v", m)
	}
	if m.PickFrac <= 0 || m.PickFrac >= 1 {
		t.Fatalf("PickFrac = %v, want in (0, 1)", m.PickFrac)
	}
	if m.AvgPickMs+m.AvgScanMs > m.AvgLatencyMs+0.5 {
		t.Fatalf("pick %.3fms + scan %.3fms exceeds avg latency %.3fms", m.AvgPickMs, m.AvgScanMs, m.AvgLatencyMs)
	}
}

// pickFingerprint serializes the answer-bearing fields of a response —
// everything except latencies and cache markers — for byte-identity checks.
func pickFingerprint(t *testing.T, r *Response) string {
	t.Helper()
	c := *r
	c.LatencyMs, c.PickMs, c.ScanMs = 0, 0, 0
	c.Cached, c.PickCached = false, false
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServePickCacheHitsAreIdentical pins the cache's core contract: a
// pick-cache hit serves the byte-identical answer a cold pick computes.
func TestServePickCacheHitsAreIdentical(t *testing.T) {
	sys, queries := restoredSystem(t, 15)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().PickerTableBytes; got != 0 {
		t.Fatalf("picker_table_bytes = %d before any pick, want 0 (fold tables are built by the first pick miss)", got)
	}
	for _, q := range queries[:6] {
		cold, err := srv.Query(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if cold.PickCached {
			t.Fatalf("query %s: first execution claims a pick-cache hit", q)
		}
		hot, err := srv.Query(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if !hot.PickCached {
			t.Fatalf("query %s: repeat execution missed the pick cache", q)
		}
		if hot.PickMs != 0 {
			t.Fatalf("query %s: cached pick reports %.3fms pick time, want 0", q, hot.PickMs)
		}
		if got, want := pickFingerprint(t, hot), pickFingerprint(t, cold); got != want {
			t.Fatalf("query %s: cached response differs from cold response:\n cold %s\n  hot %s", q, want, got)
		}
	}
	m := srv.Stats()
	if m.PickCache == nil {
		t.Fatal("metrics missing pick-cache counters")
	}
	if m.PickCache.Hits != 6 || m.PickCache.Misses != 6 || m.PickCache.Entries != 6 {
		t.Fatalf("pick cache counters: %+v, want 6 hits / 6 misses / 6 entries", *m.PickCache)
	}
	if m.PickCache.AvgHitAgeMs < 0 {
		t.Fatalf("negative hit age: %+v", *m.PickCache)
	}
	if m.PickerTableBytes == 0 || m.PickerTableBytes != sys.Picker.TableBytes() {
		t.Fatalf("picker_table_bytes = %d after six pick misses, picker reports %d", m.PickerTableBytes, sys.Picker.TableBytes())
	}
	// Distinct budgets are distinct selections: no false sharing.
	r5, err := srv.Query(queries[0], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r5.PickCached {
		t.Fatal("different budget hit the cache entry of another budget")
	}
}

// TestServePickCacheDisabled: negative PickCacheSize turns the cache off.
func TestServePickCacheDisabled(t *testing.T) {
	sys, queries := restoredSystem(t, 15)
	srv, err := New(sys, Config{PickCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := srv.Query(queries[0], 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if resp.PickCached {
			t.Fatal("disabled pick cache reported a hit")
		}
		if resp.PickMs <= 0 {
			t.Fatal("uncached pick reported zero pick time")
		}
	}
	if m := srv.Stats(); m.PickCache != nil {
		t.Fatalf("metrics report pick-cache counters while disabled: %+v", *m.PickCache)
	}
}

// retrainedSystem builds a second trained system with a different system
// seed, so its pick decisions (and thus answers) diverge from
// restoredSystem's — distinguishable enough to observe a swap — over a table
// that extends the first one the way a flush does: the same rows under the
// same dictionary codes, then rows whose
// AppInfo_Version values (swapOnlyVersion) take codes the first system's
// dictionary never assigned. A label with such a value can only have been
// rendered against this system's dictionary.
func retrainedSystem(t testing.TB) *core.System {
	t.Helper()
	ds, err := dataset.Aria(fixtureConfig)
	if err != nil {
		t.Fatal(err)
	}
	old := ds.Table
	// The old codes, in the old order, first.
	dict, err := table.DictFromValues(append([]string(nil), old.Dict.Values()...))
	if err != nil {
		t.Fatal(err)
	}
	version := old.Schema.ColIndex("AppInfo_Version")
	w := len(old.Schema.Cols)
	tbl := &table.Table{Schema: old.Schema, Dict: dict}
	for pi, p := range append(old.Parts[:len(old.Parts):len(old.Parts)], old.Parts[:2]...) {
		num, cat := make([][]float64, w), make([][]uint32, w)
		for c, col := range old.Schema.Cols {
			if col.IsNumeric() {
				num[c] = slices.Clone(p.NumCol(c))
				continue
			}
			cat[c] = slices.Clone(p.CatCol(c))
			if pi >= len(old.Parts) && c == version {
				for r := range cat[c] {
					cat[c][r] = dict.Code(fmt.Sprintf("%s%d", swapOnlyVersion, r%5))
				}
			}
		}
		np, err := table.MakePartition(old.Schema, pi, p.Rows(), num, cat)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Parts = append(tbl.Parts, np)
	}
	for code, v := range old.Dict.Values() {
		if tbl.Dict.Value(uint32(code)) != v {
			t.Fatalf("the extended dictionary moved code %d from %q to %q", code, v, tbl.Dict.Value(uint32(code)))
		}
	}
	sys, err := core.New(tbl, core.Options{Workload: ds.Workload, Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, tbl, 43)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(gen.SampleN(10), nil); err != nil {
		t.Fatal(err)
	}
	return sys
}

// swapOnlyVersion prefixes the AppInfo_Version values only retrainedSystem's
// dictionary holds.
const swapOnlyVersion = "swap-only-v"

// TestServeSwap: Swap atomically installs a retrained system; both caches
// are invalidated with it, and post-swap answers come from the new system.
func TestServeSwap(t *testing.T) {
	sys, queries := restoredSystem(t, 15)
	newSys := retrainedSystem(t)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := queries[0]
	// Warm both caches on the old system.
	if _, err := srv.Query(q, 0.1); err != nil {
		t.Fatal(err)
	}
	warm, err := srv.Query(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || !warm.PickCached {
		t.Fatalf("warm request not cached: %+v", warm)
	}

	// An untrained system must be rejected without disturbing the server.
	ds, err := dataset.Aria(dataset.Config{Rows: 2000, Parts: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	untrained, err := core.New(ds.Table, core.Options{Workload: ds.Workload})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(untrained); err == nil {
		t.Fatal("want error swapping in an untrained system")
	}
	if srv.System() != sys {
		t.Fatal("rejected swap replaced the system")
	}

	if err := srv.Swap(newSys); err != nil {
		t.Fatal(err)
	}
	if srv.System() != newSys {
		t.Fatal("System() does not return the swapped-in system")
	}
	post, err := srv.Query(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if post.Cached || post.PickCached {
		t.Fatalf("post-swap request served from pre-swap caches: %+v", post)
	}
	// The post-swap answer is the new system's answer.
	direct, err := newSys.Run(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]float64, len(direct.Values))
	for g, vals := range direct.Values {
		want[direct.Labels[g]] = vals
	}
	for _, grp := range post.Groups {
		if !reflect.DeepEqual(want[grp.Label], grp.Values) {
			t.Fatalf("post-swap group %q: served %v, new system %v", grp.Label, grp.Values, want[grp.Label])
		}
	}
	// And it repopulates the new caches.
	again, err := srv.Query(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !again.PickCached {
		t.Fatalf("post-swap repeat not cached: %+v", again)
	}
	if got, want := pickFingerprint(t, again), pickFingerprint(t, post); got != want {
		t.Fatalf("post-swap cached response differs from cold response:\n cold %s\n  hot %s", want, got)
	}
	if m := srv.Stats(); m.Swaps != 1 {
		t.Fatalf("swaps counter = %d, want 1", m.Swaps)
	}
}

// TestStatsDescribeOneSnapshot: one Stats() reading never pairs two snapshots'
// figures. Every snapshot is warmed (one compile, one pick) before its version
// is announced, so a reading that reports an announced version must report
// that snapshot's warm caches, not its successor's empty ones.
func TestStatsDescribeOneSnapshot(t *testing.T) {
	sys, queries := restoredSystem(t, 15)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const swaps = 400
	var warmed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := int64(0); v < swaps; v = warmed.Load() {
			if m := srv.Stats(); m.SnapshotVersion == v && (m.CacheLen != 1 || m.PickCache.Misses != 1) {
				t.Errorf("snapshot_version %d reported with cache_len %d, pick_cache %+v", v, m.CacheLen, *m.PickCache)
				return
			}
		}
	}()
	for v := int64(1); v <= swaps && err == nil; v++ {
		if _, err = srv.Query(queries[0], 0.1); err == nil {
			warmed.Store(v)
			err = srv.Swap(sys)
		}
	}
	warmed.Store(swaps)
	if <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServeSwapUnderConcurrentTraffic swaps mid-traffic (run under -race):
// every response must match one of the two systems' direct answers — never a
// mix — and requests joining in-flight pre-swap picks must not be served
// post-swap selections.
func TestServeSwapUnderConcurrentTraffic(t *testing.T) {
	sys, queries := restoredSystem(t, 15)
	newSys := retrainedSystem(t)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The grouped template's answer names dictionary values only the new
	// system has, at every budget: a post-swap response built from the old
	// snapshot's compiled entry (its dictionary, its label memo) has no way
	// to spell them.
	byVersion, _, err := sql.Parse("SELECT AppInfo_Version, COUNT(*), AVG(olsize) FROM t GROUP BY AppInfo_Version")
	if err != nil {
		t.Fatal(err)
	}
	qs := append(queries[:3:3], byVersion)
	type expect struct{ old, new string }
	wants := make(map[string]expect, len(qs))
	for _, q := range qs {
		oldR, err := sys.Run(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		newR, err := newSys.Run(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		fp := func(r *core.Result) string {
			labels := make([]string, 0, len(r.Values))
			for g := range r.Values {
				labels = append(labels, r.Labels[g]+fmt.Sprint(r.Values[g]))
			}
			sort.Strings(labels)
			return strings.Join(labels, "|")
		}
		wants[q.String()] = expect{old: fp(oldR), new: fp(newR)}
	}
	if w := wants[byVersion.String()]; strings.Contains(w.old, swapOnlyVersion) || !strings.Contains(w.new, swapOnlyVersion) {
		t.Fatalf("the fixture lost its point: %q values must be in the new system's answer only\n old %s\n new %s", swapOnlyVersion, w.old, w.new)
	}
	respFP := func(r *Response) string {
		labels := make([]string, 0, len(r.Groups))
		for _, g := range r.Groups {
			labels = append(labels, g.Label+fmt.Sprint(g.Values))
		}
		sort.Strings(labels)
		return strings.Join(labels, "|")
	}

	var wg sync.WaitGroup
	swapped := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				q := qs[(w+i)%len(qs)]
				resp, err := srv.Query(q, 0.1)
				if err != nil {
					t.Error(err)
					return
				}
				got := respFP(resp)
				want := wants[q.String()]
				if got != want.old && got != want.new {
					t.Errorf("query %s: response matches neither system\n got %s\n old %s\n new %s", q, got, want.old, want.new)
					return
				}
				if i == 30 && w == 0 {
					if err := srv.Swap(newSys); err != nil {
						t.Error(err)
						return
					}
					close(swapped)
				}
				// After the swap completes, answers must come from the new
				// system only.
				select {
				case <-swapped:
					if got != want.new {
						// The request may have loaded the old state before the
						// swap finished; only requests started after are
						// guaranteed new. Re-issue to check the guarantee.
						resp2, err := srv.Query(q, 0.1)
						if err != nil {
							t.Error(err)
							return
						}
						if g2 := respFP(resp2); g2 != want.new {
							t.Errorf("query %s: post-swap response from old system\n got %s\n new %s", q, g2, want.new)
							return
						}
					}
				default:
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentRepeatsHitPickCache: repeated templates under concurrency
// pay for one pick each (the cache is single-flight), everything else hits.
func TestConcurrentRepeatsHitPickCache(t *testing.T) {
	sys, queries := restoredSystem(t, 15)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 80 requests over 6 templates: at most 6 cold picks.
	if hits := queryConcurrently(t, srv, queries[:6], 0.1, 4, 80); hits < 80-6 {
		t.Fatalf("repeated traffic earned only %d pick-cache hits of 80 requests", hits)
	}
}

// TestGroupMarshalJSON pins the hand-appended encoding to encoding/json's:
// every finite value and every label must come out byte for byte as the
// method-less struct does, nil and empty value lists included, and only
// non-finite values become null.
func TestGroupMarshalJSON(t *testing.T) {
	type plain Group
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789, 1 << 53, 1<<53 + 2,
		1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 1e20, 1e21, 1.5e21, 1e22, 1e100, 1e-100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	}
	labels := []string{
		"", "a=x", "cat1=v, cat2=w", "n=1.5e-09", `q="quoted"`, `back\slash`, "<bad code 7>", "a&b",
		"tab\there", "nl\n", "ünïcode=é", "日本=語", "\u2028sep", "bad\xffutf8", "del\x7f",
	}
	for _, g := range []Group{{Label: "nil"}, {Label: "empty", Values: []float64{}}, {Label: "all", Values: values}} {
		labels = append(labels, g.Label)
		for _, label := range labels {
			g.Label = label
			got, err := g.MarshalJSON()
			if err != nil {
				t.Fatalf("%q: %v", label, err)
			}
			want, err := json.Marshal(plain(g))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("label %q:\n got %s\nwant %s", label, got, want)
			}
		}
	}
	got, err := json.Marshal([]Group{{Label: "g", Values: []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), 2.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"label":"g","values":[1,null,null,null,2.5]}]`; string(got) != want {
		t.Errorf("non-finite values:\n got %s\nwant %s", got, want)
	}
}

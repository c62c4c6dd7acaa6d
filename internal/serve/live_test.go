package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ps3/internal/core"
	"ps3/internal/dataset"
	"ps3/internal/ingest"
	"ps3/internal/query"
	"ps3/internal/table"
)

// liveFixture builds a trained system over the first baseRows rows of a
// dataset and hands back the remaining rows in append wire form.
func liveFixture(t testing.TB) (sys *core.System, num [][]float64, cat [][]string, queries []*query.Query) {
	t.Helper()
	ds, err := dataset.Aria(dataset.Config{Rows: 6000, Parts: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w := len(ds.Table.Schema.Cols)
	for _, p := range ds.Table.Parts {
		for r := 0; r < p.Rows(); r++ {
			nr := make([]float64, w)
			cr := make([]string, w)
			for c, col := range ds.Table.Schema.Cols {
				if col.IsNumeric() {
					nr[c] = p.NumCol(c)[r]
				} else {
					cr[c] = ds.Table.Dict.Value(p.CatCol(c)[r])
				}
			}
			num = append(num, nr)
			cat = append(cat, cr)
		}
	}
	const baseRows, rowsPerPart = 2400, 400
	b, err := table.NewBuilder(ds.Table.Schema, rowsPerPart)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < baseRows; i++ {
		if err := b.Append(num[i], cat[i]); err != nil {
			t.Fatal(err)
		}
	}
	baseTable := b.Finish()
	sys, err = core.New(baseTable, core.Options{Workload: ds.Workload, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, baseTable, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(gen.SampleN(15), nil); err != nil {
		t.Fatal(err)
	}
	return sys, num[baseRows:], cat[baseRows:], gen.SampleN(6)
}

// TestServeSwapUnderAppendTraffic is the live-ingest acceptance test for
// the serving layer: sustained concurrent query traffic while writers
// append through the server and flushes hot-swap snapshots in. Every
// response must be byte-identical to re-running its query against a frozen
// copy of the exact snapshot version that answered it, and each reader must
// observe monotonically non-decreasing snapshot versions.
func TestServeSwapUnderAppendTraffic(t *testing.T) {
	sys, num, cat, queries := liveFixture(t)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var frozenMu sync.Mutex
	frozen := map[int64]*core.System{1: sys}
	pipe, err := ingest.Open(ingest.Config{
		Dir:          t.TempDir(),
		RowsPerPart:  400,
		CommitWindow: 200 * time.Microsecond,
		PublishTail:  true,
		OnPublish: func(snap *core.System, version int) {
			if err := srv.Swap(snap); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			// Publishes are serialized by the pipeline's flush lock, so the
			// serve version right after Swap is the one snap serves under.
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
		wg       sync.WaitGroup
		obsMu    sync.Mutex
		observed []obs
	)
	// Writers: two goroutines streaming disjoint halves of the append set
	// through the server's sink.
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
				if err := srv.Append(num[i:end], cat[i:end]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w, span[0], span[1])
	}
	// Readers: four goroutines hammering queries, recording which snapshot
	// version answered and what it said.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last int64
			for i := 0; i < 40; i++ {
				qi := (r + i) % len(queries)
				resp, err := srv.Query(queries[qi], 0.25)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
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
	// The last flush (once it returns, no publish is in flight), then the
	// short tail, which PublishTail puts in the snapshot.
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := pipe.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(snap); err != nil {
		t.Fatal(err)
	}

	if got, want := srv.SnapshotVersion(), int64(1+srv.Stats().Swaps); got != want {
		t.Fatalf("final snapshot version %d, want 1+%d swaps", got, want-1)
	}
	if srv.Stats().Swaps == 0 {
		t.Fatal("no snapshot swaps happened under traffic; the test exercised nothing")
	}

	// Byte-identity: replay every observation against a fresh server over
	// the frozen snapshot that answered it.
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
			resp, err := ref.Query(queries[o.q], 0.25)
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
	// Every acknowledged row is visible in the final snapshot: it serves
	// base + appended.
	if got, want := srv.System().Source.NumRows(), sys.Source.NumRows()+len(num); got != want {
		t.Fatalf("final snapshot serves %d rows, want %d", got, want)
	}
}

// TestHTTPAppend drives the POST /append endpoint end to end against a real
// ingest pipeline: durable acknowledgement, cell-type validation, and 409
// on a read-only server.
func TestHTTPAppend(t *testing.T) {
	sys, num, cat, _ := liveFixture(t)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.String()
	}

	// Read-only server: 409.
	if resp, _ := post(`{"rows": [[1, "x"]]}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("append to read-only server: status %d, want 409", resp.StatusCode)
	}

	pipe, err := ingest.Open(ingest.Config{Dir: t.TempDir(), RowsPerPart: 400}, sys)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	srv.SetAppender(pipe)

	// A valid batch of three rows, cells positional in schema order.
	rows := make([][]any, 3)
	for i := range rows {
		row := make([]any, len(num[i]))
		for c, col := range sys.Source.TableSchema().Cols {
			if col.IsNumeric() {
				row[c] = num[i][c]
			} else {
				row[c] = cat[i][c]
			}
		}
		rows[i] = row
	}
	body, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := post(string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d: %s", resp.StatusCode, out)
	}
	var ack appendResponse
	if err := json.Unmarshal([]byte(out), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Appended != 3 {
		t.Fatalf("acknowledged %d rows, want 3", ack.Appended)
	}
	if got := pipe.Stats().RowsAppended; got != 3 {
		t.Fatalf("pipeline recorded %d rows, want 3", got)
	}

	// Validation: wrong width, wrong cell types, empty batch.
	for _, bad := range []string{
		`{"rows": [[1]]}`,
		fmt.Sprintf(`{"rows": [%s]}`, badCellRow(sys, "string-for-number")),
		fmt.Sprintf(`{"rows": [%s]}`, badCellRow(sys, "number-for-string")),
		`{"rows": []}`,
		`{not json`,
	} {
		if resp, out := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d (%s), want 400", bad, resp.StatusCode, out)
		}
	}
	if got := pipe.Stats().RowsAppended; got != 3 {
		t.Fatalf("rejected batches changed the pipeline: %d rows", got)
	}

	// Null decodes as NaN for numeric cells.
	nullRow := make([]any, len(rows[0]))
	copy(nullRow, rows[0])
	for c, col := range sys.Source.TableSchema().Cols {
		if col.IsNumeric() {
			nullRow[c] = nil
			break
		}
	}
	body, _ = json.Marshal(map[string]any{"rows": [][]any{nullRow}})
	if resp, out := post(string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("null numeric cell: status %d: %s", resp.StatusCode, out)
	}
}

// TestHTTPBodyLimits: a request body past its endpoint's limit is answered
// 413 with a JSON error before anything is decoded — whether the client
// declared the length or streamed it — touches no counter, and leaves the
// server serving.
func TestHTTPBodyLimits(t *testing.T) {
	sys, _, _, _ := liveFixture(t)
	srv, err := New(sys, Config{DefaultBudget: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ingest.Open(ingest.Config{Dir: t.TempDir(), RowsPerPart: 400}, sys)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	srv.SetAppender(pipe)
	h := srv.Handler()

	// Only the undeclared body is ever read, up to the limit.
	big := strings.Repeat(" ", maxQueryBody+1)
	before := srv.Stats()
	for _, tc := range []struct {
		path     string
		declared int64
	}{
		{"/query", maxQueryBody + 1},
		{"/query", -1}, // chunked: length unknown until read
		{"/append", maxAppendBody + 1},
	} {
		req := httptest.NewRequest("POST", tc.path, strings.NewReader(big))
		req.ContentLength = tc.declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var body errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusRequestEntityTooLarge || err != nil || body.Error == "" {
			t.Fatalf("%s with declared length %d: status %d body %q, want 413 and a JSON error", tc.path, tc.declared, rec.Code, rec.Body)
		}
	}
	if after := srv.Stats(); after.Requests != before.Requests || after.Failures != before.Failures {
		t.Fatalf("refused bodies moved the counters: requests %d → %d, failures %d → %d",
			before.Requests, after.Requests, before.Failures, after.Failures)
	}
	if got := pipe.Stats().RowsAppended; got != 0 {
		t.Fatalf("refused append reached the pipeline: %d rows", got)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(`{"sql": "SELECT COUNT(*) FROM t"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("well-formed query after refusals: status %d: %s", rec.Code, rec.Body)
	}
}

// TestHTTPNonFiniteAggregates: a JSON null appended into a numeric cell is
// NaN, so every SUM or AVG over that row is NaN, which encoding/json cannot
// write. The response must still be a 200 with a decodable body that says
// null where the aggregate is not a number — not a 200 status line over an
// empty body — and a value that cannot be encoded at all must be a 500.
func TestHTTPNonFiniteAggregates(t *testing.T) {
	sys, num, cat, _ := liveFixture(t)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ingest.Open(ingest.Config{
		Dir:         t.TempDir(),
		RowsPerPart: 400,
		PublishTail: true,
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
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(path string, body any) (int, []byte) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	// One row, its first numeric cell null; remember that column and the
	// row's value in a groupable one.
	schema := sys.Source.TableSchema()
	row := make([]any, len(schema.Cols))
	nullCol := ""
	for c, col := range schema.Cols {
		switch {
		case !col.IsNumeric():
			row[c] = cat[0][c]
		case nullCol == "":
			nullCol = col.Name
		default:
			row[c] = num[0][c]
		}
	}
	const groupCol = "DeviceInfo_NetworkType"
	rowGroup := groupCol + "=" + cat[0][schema.ColIndex(groupCol)]
	if status, out := post("/append", map[string]any{"rows": [][]any{row}}); status != http.StatusOK {
		t.Fatalf("append: status %d: %s", status, out)
	}
	snap, _, err := pipe.Snapshot() // the one-row tail, published with PublishTail
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(snap); err != nil {
		t.Fatal(err)
	}

	sqlText := fmt.Sprintf("SELECT %s, SUM(%s), AVG(%s), COUNT(*) FROM t GROUP BY %s", groupCol, nullCol, nullCol, groupCol)
	status, out := post("/query", map[string]any{"sql": sqlText, "budget": 1})
	if status != http.StatusOK {
		t.Fatalf("query over a NaN cell: status %d: %s", status, out)
	}
	var resp Response
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("response body does not decode: %v\n%s", err, out)
	}
	var wire struct {
		Groups []struct {
			Label  string
			Values []*float64
		}
	}
	if err := json.Unmarshal(out, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Groups) < 2 {
		t.Fatalf("%d groups served, want the NaN row's group beside clean ones: %s", len(wire.Groups), out)
	}
	for _, g := range wire.Groups {
		if len(g.Values) != 3 || g.Values[2] == nil {
			t.Fatalf("group %q: values %v, want three with a finite COUNT", g.Label, g.Values)
		}
		if nan := g.Label == rowGroup; (g.Values[0] == nil) != nan || (g.Values[1] == nil) != nan {
			t.Errorf("group %q: SUM/AVG null = %v/%v, want %v (only the appended row's group is NaN)",
				g.Label, g.Values[0] == nil, g.Values[1] == nil, nan)
		}
	}

	// Finite values keep encoding/json's rendering, nil and empty included.
	type plain struct {
		Label  string    `json:"label"`
		Values []float64 `json:"values"`
	}
	for _, vals := range [][]float64{nil, {}, {0, -1, 42, 0.1, 1e21, 1e-7, 123456789.125, -2.5e-300}} {
		got, err := json.Marshal(Group{Label: "a=\"b\"", Values: vals})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(plain{Label: "a=\"b\"", Values: vals}); !bytes.Equal(got, want) {
			t.Errorf("Group encodes as %s, encoding/json renders the same fields as %s", got, want)
		}
	}

	// A body that cannot be encoded is a 500 with a JSON error, not the
	// intended status over nothing.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	var fail errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fail); rec.Code != http.StatusInternalServerError || err != nil || fail.Error == "" {
		t.Fatalf("unencodable body: status %d, body %q (decode error %v), want 500 with an error message", rec.Code, rec.Body, err)
	}
}

// badCellRow renders one JSON row with a deliberately mistyped cell for the
// named failure shape, valid cells elsewhere.
func badCellRow(sys *core.System, shape string) string {
	schema := sys.Source.TableSchema()
	cells := make([]string, len(schema.Cols))
	doneBad := false
	for c, col := range schema.Cols {
		if col.IsNumeric() {
			if shape == "string-for-number" && !doneBad {
				cells[c] = `"oops"`
				doneBad = true
			} else {
				cells[c] = "1"
			}
		} else {
			if shape == "number-for-string" && !doneBad {
				cells[c] = "7"
				doneBad = true
			} else {
				cells[c] = `"v"`
			}
		}
	}
	return "[" + joinComma(cells) + "]"
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

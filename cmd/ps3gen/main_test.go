package main

import (
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"ps3/internal/table"
)

// streamFixture builds a six-row table (one numeric, one categorical column)
// whose numeric cell in row 4 is v, and a server that acknowledges every
// /append, counting requests and new connections.
func streamFixture(t *testing.T, v float64) (tbl *table.Table, url string, requests, conns *atomic.Int64) {
	t.Helper()
	schema, err := table.NewSchema(table.Column{Name: "x", Kind: table.Numeric}, table.Column{Name: "k", Kind: table.Categorical})
	if err != nil {
		t.Fatal(err)
	}
	b, err := table.NewBuilder(schema, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		x := float64(i)
		if i == 4 {
			x = v
		}
		if err := b.Append([]float64{x, 0}, []string{"", "a"}); err != nil {
			t.Fatal(err)
		}
	}
	requests, conns = new(atomic.Int64), new(atomic.Int64)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, `{"appended": 2, "snapshot_version": 0}`)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return b.Finish(), ts.URL, requests, conns
}

// TestStreamReusesOneConnection: every acknowledgement is read to its end,
// so three batches travel over one connection, and NaN still goes out.
func TestStreamReusesOneConnection(t *testing.T) {
	tbl, url, requests, conns := streamFixture(t, math.NaN())
	if err := streamTable(url, tbl, 2); err != nil {
		t.Fatal(err)
	}
	if requests.Load() != 3 || conns.Load() != 1 {
		t.Fatalf("%d batches over %d connections, want 3 over 1", requests.Load(), conns.Load())
	}
}

// TestStreamRefusesInfBeforeSending: a cell JSON cannot carry fails the
// stream before the first POST, naming the row and column.
func TestStreamRefusesInfBeforeSending(t *testing.T) {
	tbl, url, requests, _ := streamFixture(t, math.Inf(-1))
	err := streamTable(url, tbl, 2)
	if err == nil || !strings.Contains(err.Error(), "row 4") || !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("streaming an Inf cell: err = %v, want one naming row 4 and column x", err)
	}
	if requests.Load() != 0 {
		t.Fatalf("%d batches were sent before the refusal", requests.Load())
	}
}

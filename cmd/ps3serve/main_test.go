package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServePprof: the profiling endpoint answers on its own listener and is
// gone once stopped.
func TestServePprof(t *testing.T) {
	bound, stop, err := servePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + bound.String() + "/debug/pprof/"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("GET %s: status %d, body %.80q; want the pprof index", url, resp.StatusCode, body)
	}
	stop()
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Fatalf("GET %s after stop: status %d, want a refused connection", url, resp.StatusCode)
	}
	if _, _, err := servePprof("not an address"); err == nil {
		t.Fatal("an unusable address must fail at start-up, not in the background")
	}
}

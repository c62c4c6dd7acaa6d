package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"
)

// httpOverhead measures the transport's share: the same queries are sent
// once as loopback POST /query through Server.Handler() (one keep-alive
// connection per client) and once in process, in alternating order so both
// sides see the same mix of warm and cold serve caches; the result is the
// difference of the two median latencies. Returns 0 (and says so) when the
// sandbox offers no loopback listener.
func httpOverhead(r *run) float64 {
	sys, d, log := r.sys, r.d, r.o.log
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(log, "http probe skipped: %v\n", err)
		return 0
	}
	hs := &http.Server{Handler: sys.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }() //lint:nakedgo-ok listener lifecycle goroutine, joined via served after Shutdown
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // best effort: the listener is local and idle by now
		<-served
	}()

	url := "http://" + ln.Addr().String() + "/query"
	clients := make([]*http.Client, d.clients)
	for i := range clients {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		clients[i] = &http.Client{Transport: tr}
	}
	viaHTTP := func(c int, text string) (time.Duration, error) {
		body, err := json.Marshal(map[string]any{"sql": text, "budget": d.budget})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		resp, err := clients[c].Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lat := time.Since(t0)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return lat, err
	}
	inProcess := func(text string) (time.Duration, error) {
		t0 := time.Now()
		_, err := sys.srv.QuerySQLCtx(context.Background(), text, d.budget)
		return time.Since(t0), err
	}

	httpMs := make([][]float64, d.clients)
	inMs := make([][]float64, d.clients)
	ph := d.runFor(r.dur(httpShare), func(c int, i int64) sample {
		text := d.text(i)
		var h, p time.Duration
		var herr, perr error
		if i%2 == 0 {
			h, herr = viaHTTP(c, text)
			p, perr = inProcess(text)
		} else {
			p, perr = inProcess(text)
			h, herr = viaHTTP(c, text)
		}
		if herr != nil || perr != nil {
			return sample{failed: true}
		}
		httpMs[c] = append(httpMs[c], float64(h)/1e6)
		inMs[c] = append(inMs[c], float64(p)/1e6)
		return sample{latNs: int64(h)}
	})
	r.res.count(ph.samples)
	var hs2, ps2 []float64
	for c := range httpMs {
		hs2 = append(hs2, httpMs[c]...)
		ps2 = append(ps2, inMs[c]...)
	}
	sort.Float64s(hs2)
	sort.Float64s(ps2)
	fmt.Fprintf(log, "http probe: %d request pairs, p50 %.4f ms over loopback HTTP vs %.4f ms in process\n",
		len(hs2), percentile(hs2, 0.5), percentile(ps2, 0.5))
	return percentile(hs2, 0.5) - percentile(ps2, 0.5)
}

package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ps3/internal/serve"
)

// sample is one completed operation as its client saw it.
type sample struct {
	end     int64 // completion time, ns since the phase started
	latNs   int64 // client-side wall time of the call; for an append, from when it was due
	pickNs  int64 // Response.PickMs (0 on a pick-cache hit)
	scanNs  int64 // Response.ScanMs
	parts   int32 // Response.PartsRead
	append_ bool
	failed  bool
	// compiled / picked report hits in the server's two caches.
	compiled, picked bool
}

// ingestEvents timestamps the write path from outside: when the append that
// completed each new partition was acknowledged, when that partition was
// published, and how long the server's snapshot swap took.
type ingestEvents struct {
	rec       *recorder
	baseParts int

	acked atomic.Int64 // rows acknowledged so far

	mu        sync.Mutex
	fillAck   []int64 // fillAck[k]: ack time of the append completing new partition k
	published int     // new partitions published so far
	flushNs   []int64 // fill-ack → publish, one per published partition
	swapNs    []int64 // Server.Swap duration, one per publish
	swapErrs  int
}

func newIngestEvents(rec *recorder, baseParts int) *ingestEvents {
	return &ingestEvents{rec: rec, baseParts: baseParts}
}

// ack records an acknowledged append of rows rows; rowsPerPart is the seal
// size, so crossing a multiple of it means this append completed a
// partition.
func (e *ingestEvents) ack(rows, rowsPerPart int) {
	n := e.acked.Add(int64(rows))
	first, last := (n-int64(rows))/int64(rowsPerPart), n/int64(rowsPerPart)
	if first == last {
		return
	}
	now := e.rec.now()
	e.mu.Lock()
	for int64(len(e.fillAck)) < last {
		e.fillAck = append(e.fillAck, now)
	}
	e.mu.Unlock()
}

// publish runs the snapshot swap for a publish covering numParts partitions
// and records both latencies.
func (e *ingestEvents) publish(numParts int, swap func() error) {
	t0 := e.rec.now()
	err := swap()
	t1 := e.rec.now()
	e.rec.addShared(spanSwap, t0, t1, 0)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		e.swapErrs++
	}
	e.swapNs = append(e.swapNs, t1-t0)
	for k := e.published; k < numParts-e.baseParts; k++ {
		// A flush can publish before the filling append's group commit is
		// acknowledged; such a partition has no ack-to-publish latency.
		if k < len(e.fillAck) {
			e.flushNs = append(e.flushNs, t0-e.fillAck[k])
			e.rec.addShared(spanPublish, e.fillAck[k], t0, int64(k))
		}
	}
	if n := numParts - e.baseParts; n > e.published {
		e.published = n
	}
}

// ingestSnapshot is a copy of the event log at one instant.
type ingestSnapshot struct {
	flushNs, swapNs []int64
	swapErrs        int
}

func (e *ingestEvents) snapshot() ingestSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return ingestSnapshot{
		flushNs:  append([]int64(nil), e.flushNs...),
		swapNs:   append([]int64(nil), e.swapNs...),
		swapErrs: e.swapErrs,
	}
}

// driver sends a plan's operations to a server. Queries are a closed loop
// from d.clients goroutines: each sends its next query only after the
// previous one returned. Appends, where the workload has them, are an open
// loop from one writer goroutine beside them: an append falls due every
// appendEvery and its latency counts from when it was due. The write rate is
// therefore an input, the same on every host and build, and the table a
// query meets at a given moment of a run has the same size in every run.
// With appends as every Nth operation of the closed loop a faster build
// appended more, grew the table faster and paid for it in its own query
// latencies, and a client waiting out the WAL's commit window and fsync
// (2.3 ms, the disk's time and not the processor's) sent no queries, so
// query throughput followed the disk.
type driver struct {
	s           *system
	p           *plan
	budget      float64
	clients     int
	appendEvery time.Duration // 0: no write stream
	nextQuery   atomic.Int64  // queries started so far, over all phases
	nextBatch   int           // appends started so far, over all phases
}

// text is the SQL of the plan's i-th query.
func (d *driver) text(i int64) string {
	return d.p.sqls[d.p.seq[i%int64(len(d.p.seq))]]
}

// query sends the plan's i-th query through the real server.
func (d *driver) query(_ int, i int64) sample {
	var sm sample
	t0 := time.Now()
	resp, err := d.s.srv.QuerySQLCtx(context.Background(), d.text(i), d.budget)
	sm.latNs = int64(time.Since(t0))
	if err != nil {
		sm.failed = true
		return sm
	}
	sm.fill(resp)
	return sm
}

// append sends the next batch through the real server; due is when the
// schedule wanted it sent.
func (d *driver) append(due time.Time) sample {
	b := d.p.batches[d.nextBatch%len(d.p.batches)]
	d.nextBatch++
	rec := d.s.events.rec
	t0 := rec.now()
	err := d.s.srv.Append(b.num, b.cat)
	rec.addShared(spanAppend, t0, rec.now(), int64(len(b.num)))
	if err == nil {
		d.s.events.ack(len(b.num), d.s.spec.Rows/d.s.spec.Parts)
	}
	return sample{latNs: int64(time.Since(due)), append_: true, failed: err != nil}
}

func (sm *sample) fill(resp *serve.Response) {
	sm.pickNs = int64(resp.PickMs * float64(time.Millisecond))
	sm.scanNs = int64(resp.ScanMs * float64(time.Millisecond))
	sm.parts = int32(resp.PartsRead)
	sm.compiled = resp.Cached
	sm.picked = resp.PickCached
}

// phase is one timed interval of load: the operations that completed inside
// it, ordered by completion, and the host-speed bursts taken alongside.
type phase struct {
	dur     time.Duration
	samples []sample
	host    *hostMeter
}

// runFor drives the plan for dur. query performs one query (the real
// server's, or the traced replay). Between queries each client runs a
// calibration burst every burstEvery, so the phase carries its own record of
// how fast the host was (see calib.go).
func (d *driver) runFor(dur time.Duration, query func(client int, i int64) sample) phase {
	start := time.Now()
	deadline := start.Add(dur)
	ph := phase{dur: dur, host: &hostMeter{}}
	perClient := make([][]sample, d.clients+1) // the last is the writer's
	keep := func(buf []sample, sm sample) []sample {
		sm.end = int64(time.Since(start))
		if sm.end <= int64(dur) {
			buf = append(buf, sm)
		}
		return buf
	}
	var wg sync.WaitGroup
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		//lint:nakedgo-ok closed-loop load-generator clients: each must block on its own request, which exec's work-sharing pool cannot express; joined by wg before return
		go func(c int) {
			defer wg.Done()
			buf := make([]sample, 0, 1<<16)
			// Clients take their bursts out of phase with each other.
			nextBurst := start.Add(burstEvery * time.Duration(c+1) / time.Duration(d.clients))
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				if !now.Before(nextBurst) {
					ns := burst()
					ph.host.record(int64(time.Since(start)), ns)
					nextBurst = time.Now().Add(burstEvery)
				}
				buf = keep(buf, query(c, d.nextQuery.Add(1)-1))
			}
			perClient[c] = buf
		}(c)
	}
	if d.appendEvery > 0 {
		wg.Add(1)
		//lint:nakedgo-ok the paced writer: sleeps until each append is due and blocks on its acknowledgement; joined by wg before return
		go func() {
			defer wg.Done()
			var buf []sample
			for due := start; due.Before(deadline); due = due.Add(d.appendEvery) {
				time.Sleep(time.Until(due))
				buf = keep(buf, d.append(due))
			}
			perClient[d.clients] = buf
		}()
	}
	wg.Wait()
	for _, b := range perClient {
		ph.samples = append(ph.samples, b...)
	}
	sort.Slice(ph.samples, func(a, b int) bool { return ph.samples[a].end < ph.samples[b].end })
	return ph
}

// timing is the latency and rate of a phase's successful queries.
type timing struct {
	p50Ms, p99Ms, qps float64
	queries           int
}

// windowStats is one window of a phase: its own raw timing (printed, so a
// disturbed window shows) and the host factor every sample completing in it
// is scaled by.
type windowStats struct {
	timing
	hostFactor float64
}

// queryTiming computes a phase's query timing over the whole phase, as
// measured (raw) and at reference host speed (scaled). The phase is cut into
// n equal windows by completion time only to follow the host: each latency
// is divided by the host factor of its window, each window's query count
// multiplied by it. The statistics are taken over the whole phase and not
// per window, because a window holds a slice of the pool and the whole phase
// holds all of it: per-window medians moved by ±5 % with the queries that
// fell into them.
func queryTiming(ph phase, n int) (scaled, raw timing, windows []windowStats) {
	windows = make([]windowStats, n)
	width := int64(ph.dur) / int64(n)
	for w := range windows {
		windows[w].hostFactor = ph.host.factor(int64(w)*width, int64(w+1)*width)
	}
	perWindow := make([][]float64, n)
	var rawMs, scaledMs []float64
	for _, sm := range ph.samples {
		if sm.append_ || sm.failed {
			continue
		}
		w := min(int(sm.end/width), n-1)
		ms := float64(sm.latNs) / 1e6
		perWindow[w] = append(perWindow[w], ms)
		rawMs = append(rawMs, ms)
		scaledMs = append(scaledMs, ms/windows[w].hostFactor)
	}
	of := func(ms []float64, count float64, seconds float64) timing {
		sort.Float64s(ms)
		return timing{p50Ms: percentile(ms, 0.50), p99Ms: percentile(ms, 0.99), qps: count / seconds, queries: len(ms)}
	}
	var scaledCount float64
	for w := range windows {
		windows[w].timing = of(perWindow[w], float64(len(perWindow[w])), float64(width)/1e9)
		scaledCount += float64(len(perWindow[w])) * windows[w].hostFactor
	}
	raw = of(rawMs, float64(len(rawMs)), ph.dur.Seconds())
	scaled = of(scaledMs, scaledCount, ph.dur.Seconds())
	return scaled, raw, windows
}

// tally sums the per-operation fields of a phase.
type tally struct {
	queries, appends        int
	latNs, pickNs, partsN   int64
	compiledHits, pickHits  int
	queryLatMs, appendLatMs []float64 // ascending
	overheadMs              []float64 // ascending: wall − pick − scan per query
}

func tallyOf(samples []sample) tally {
	var t tally
	for _, sm := range samples {
		if sm.failed {
			continue
		}
		if sm.append_ {
			t.appends++
			t.appendLatMs = append(t.appendLatMs, float64(sm.latNs)/1e6)
			continue
		}
		t.queries++
		t.latNs += sm.latNs
		t.pickNs += sm.pickNs
		t.partsN += int64(sm.parts)
		if sm.compiled {
			t.compiledHits++
		}
		if sm.picked {
			t.pickHits++
		}
		t.queryLatMs = append(t.queryLatMs, float64(sm.latNs)/1e6)
		t.overheadMs = append(t.overheadMs, float64(sm.latNs-sm.pickNs-sm.scanNs)/1e6)
	}
	sort.Float64s(t.queryLatMs)
	sort.Float64s(t.appendLatMs)
	sort.Float64s(t.overheadMs)
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

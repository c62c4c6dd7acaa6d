package main

import (
	"container/list"
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ps3/internal/core"
	"ps3/internal/picker"
	"ps3/internal/query"
	"ps3/internal/sql"
)

// The serve layer's cache sizes (serve.Config defaults), mirrored by the
// replay so its hit/miss mix is the server's.
const (
	compiledCacheSize = 256
	pickCacheSize     = 512
)

// replayer re-runs the server's request pipeline through the public
// functions of each layer — sql.Parse → System.Compile → System.PickParts →
// System.RunSelectionCtx — with a span around every call, which the real
// Server.QueryCtx offers no seam for. It mirrors the server's two
// per-snapshot caches so cached and uncached requests occur in the same
// proportion, and follows the server's installed system across swaps.
type replayer struct {
	s      *system
	rec    *recorder
	budget float64

	state atomic.Pointer[replayState]

	// spans[c] is client c's buffer: request trees are appended only by the
	// client running the request.
	spans [][]span

	mu    sync.Mutex
	picks int
	km    clusterWork
}

// clusterWork accumulates PickStats.KMeans over the replayed picks.
type clusterWork struct {
	iterations, pointDists, possibleDists int64
}

// replayState is the replay's analogue of serve's snapState: the caches are
// valid for one installed system only and are replaced with it.
type replayState struct {
	sys   *core.System
	picks *picker.SelectionCache

	mu       sync.Mutex
	compiled map[string]*list.Element
	recency  *list.List
}

type compiledEntry struct {
	key string
	c   *query.Compiled
}

func newReplayer(s *system, rec *recorder, budget float64, clients int) *replayer {
	return &replayer{s: s, rec: rec, budget: budget, spans: make([][]span, clients)}
}

// stateFor returns the cache bundle for the system the server serves now.
func (r *replayer) stateFor(sys *core.System) *replayState {
	for {
		st := r.state.Load()
		if st != nil && st.sys == sys {
			return st
		}
		fresh := &replayState{
			sys:      sys,
			picks:    picker.NewSelectionCache(pickCacheSize),
			compiled: make(map[string]*list.Element),
			recency:  list.New(),
		}
		if r.state.CompareAndSwap(st, fresh) {
			return fresh
		}
	}
}

func (st *replayState) lookup(key string) *query.Compiled {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.compiled[key]; ok {
		st.recency.MoveToFront(el)
		return el.Value.(*compiledEntry).c
	}
	return nil
}

func (st *replayState) insert(key string, c *query.Compiled) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.compiled[key]; ok {
		return
	}
	st.compiled[key] = st.recency.PushFront(&compiledEntry{key: key, c: c})
	if st.recency.Len() > compiledCacheSize {
		last := st.recency.Back()
		st.recency.Remove(last)
		delete(st.compiled, last.Value.(*compiledEntry).key)
	}
}

// query replays one request and records its span tree.
func (r *replayer) query(client int, text string) sample {
	rec := r.rec
	reqID := rec.nextID()
	buf := r.spans[client]
	add := func(parent int64, name string, start, end int64) int64 {
		id := rec.nextID()
		buf = append(buf, span{Req: reqID, ID: id, Parent: parent, Name: name, Start: start, End: end})
		return id
	}
	var sm sample
	t0 := rec.now()
	fail := func() sample {
		sm.failed = true
		sm.latNs = rec.now() - t0
		r.spans[client] = buf
		return sm
	}

	q, _, err := sql.Parse(text)
	t := rec.now()
	add(reqID, spanParse, t0, t)
	if err != nil {
		return fail()
	}

	// The two cache spans are the replay's stand-ins for the serve layer's
	// lookups; the layer calls they make on a miss are their children.
	ls := rec.now()
	lookupID := rec.nextID()
	st := r.stateFor(r.s.srv.System())
	key := q.String()
	c := st.lookup(key)
	sm.compiled = c != nil
	if c == nil {
		cs := rec.now()
		c, err = st.sys.Compile(q)
		add(lookupID, spanCompile, cs, rec.now())
		if err == nil {
			st.insert(key, c)
		}
	}
	buf = append(buf, span{Req: reqID, ID: lookupID, Parent: reqID, Name: spanCompiledCache, Start: ls, End: rec.now()})
	if err != nil {
		return fail()
	}

	ps0 := rec.now()
	pickCacheID := rec.nextID()
	n := st.sys.PartsForBudget(r.budget)
	sel, hit, err := st.picks.GetOrCompute(picker.SelectionKey{Query: key, N: n}, func() ([]query.WeightedPartition, error) {
		ps := rec.now()
		sel, stats, err := st.sys.PickParts(q, n)
		pe := rec.now()
		// PickStats reports durations, not instants: the three stages run
		// in this order inside the pick, so they are laid end to end from
		// the pick's start.
		pid := add(pickCacheID, spanPick, ps, pe)
		funnel := stats.Total - stats.Featurize - stats.Cluster
		f := ps + int64(stats.Featurize)
		add(pid, spanFeaturize, ps, f)
		add(pid, spanFunnel, f, f+int64(funnel))
		add(pid, spanKMeans, f+int64(funnel), f+int64(funnel)+int64(stats.Cluster))
		sm.pickNs = int64(stats.Total)
		r.mu.Lock()
		r.picks++
		r.km.iterations += int64(stats.KMeans.Iterations)
		r.km.pointDists += stats.KMeans.PointDists
		r.km.possibleDists += stats.KMeans.PossibleDists
		r.mu.Unlock()
		return sel, err
	})
	buf = append(buf, span{Req: reqID, ID: pickCacheID, Parent: reqID, Name: spanPickCache, Start: ps0, End: rec.now()})
	if err != nil {
		return fail()
	}
	sm.picked = hit

	// A per-request view of the system whose source times this request's
	// partition fetches; everything else is shared with the served system.
	view := *st.sys
	src := &reqSource{PartitionSource: st.sys.Source, rec: rec}
	view.Source = src
	ss := rec.now()
	res, err := view.RunSelectionCtx(context.Background(), c, sel)
	se := rec.now()
	sid := add(reqID, spanScan, ss, se)
	for _, rd := range src.reads {
		rd.Req, rd.ID, rd.Parent = reqID, rec.nextID(), sid
		buf = append(buf, rd)
	}
	if err != nil {
		return fail()
	}
	t1 := rec.now()
	buf = append(buf, span{Req: reqID, ID: reqID, Name: spanReq, Start: t0, End: t1})
	r.spans[client] = buf

	sm.latNs = t1 - t0
	sm.scanNs = int64(res.ScanTime)
	sm.parts = int32(res.PartsRead)
	return sm
}

// allSpans merges the per-client buffers.
func (r *replayer) allSpans() []span {
	var out []span
	for _, b := range r.spans {
		out = append(out, b...)
	}
	return out
}

// traceSummary is what the span window yields per layer.
type traceSummary struct {
	requests                        int
	parseNs, compileNs              int64
	featurizeNs, funnelNs, kmeansNs int64
	scanSelfNs                      int64
	reqWallNs, coveredNs            int64
	missReads                       int
	missReadNs, missReadAtNs        int64
}

// summarize folds request trees and the shared fs spans into per-layer
// times. Self time is a span's duration minus the union of its children, so
// partition reads running in parallel under one scan count once.
func summarize(spans, shared []span) traceSummary {
	var ts traceSummary
	children := make(map[int64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.iv())
		}
	}
	var readAts []span
	for _, s := range shared {
		if s.Name == spanReadAt {
			readAts = append(readAts, s)
		}
	}
	sort.Slice(readAts, func(a, b int) bool { return readAts[a].Start < readAts[b].Start })

	for _, s := range spans {
		d := s.End - s.Start
		switch s.Name {
		case spanReq:
			ts.requests++
			ts.reqWallNs += d
			ts.coveredNs += unionLen(children[s.ID], s.Start, s.End)
		case spanParse:
			ts.parseNs += d
		case spanCompile:
			ts.compileNs += d
		case spanFeaturize:
			ts.featurizeNs += d
		case spanFunnel:
			ts.funnelNs += d
		case spanKMeans:
			ts.kmeansNs += d
		case spanScan:
			ts.scanSelfNs += selfTime(s.iv(), children[s.ID])
		case spanRead:
			// A read that went to disk contains the positional read that
			// served it; a cache hit (about a microsecond) contains none.
			k := sort.Search(len(readAts), func(i int) bool { return readAts[i].Start >= s.Start })
			if k < len(readAts) && readAts[k].End <= s.End {
				ts.missReads++
				ts.missReadNs += d
				ts.missReadAtNs += readAts[k].End - readAts[k].Start
			}
		}
	}
	return ts
}

// nsToMs converts a nanosecond total to a per-count mean in milliseconds.
func nsToMs(total int64, count int) float64 {
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count) / float64(time.Millisecond)
}

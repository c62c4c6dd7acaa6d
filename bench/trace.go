package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ps3/internal/fault"
	"ps3/internal/table"
)

// Layer names used as span names; a span's layer is the module whose call
// the benchmark timed from outside.
const (
	spanReq           = "req"
	spanParse         = "sql.parse"
	spanCompiledCache = "serve.compiled_cache"
	spanCompile       = "query.compile"
	spanPickCache     = "serve.pick_cache"
	spanPick          = "picker.pick"
	spanFeaturize     = "stats.featurize"
	spanFunnel        = "picker.funnel"
	spanKMeans        = "cluster.kmeans"
	spanScan          = "query.scan"
	spanRead          = "store.read"
	spanReadAt        = "fs.readat"
	spanWrite         = "fs.write"
	spanSync          = "fs.sync"
	spanAppend        = "ingest.append"
	spanPublish       = "ingest.publish"
	spanSwap          = "serve.swap"
)

// span is one timed call into a layer. Spans of one request share Req; a
// span below a shared mechanism (the block cache's single-flight loads, the
// WAL's group commit, the flush loop) belongs to no single request and
// carries Req 0. Parent is the ID of the span that caused it (0 = root).
type span struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the payload size for fs.* spans, the partition id for
	// store.read spans; omitted elsewhere.
	Arg int64 `json:"arg,omitempty"`
}

func (s span) iv() iv { return iv{s.Start, s.End} }

// recorder keeps spans in memory until the run ends. Request-tree spans are
// appended to per-client buffers by the client that owns the request (no
// lock); shared-layer spans go through the mutex.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu     sync.Mutex
	shared []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) nextID() int64 { return r.ids.Add(1) }

// addShared records a span that belongs to no request, when recording is on.
func (r *recorder) addShared(name string, start, end, arg int64) {
	if !r.on.Load() {
		return
	}
	s := span{ID: r.nextID(), Name: name, Start: start, End: end, Arg: arg}
	r.mu.Lock()
	r.shared = append(r.shared, s)
	r.mu.Unlock()
}

// takeShared drains the shared-layer spans recorded so far.
func (r *recorder) takeShared() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.shared
	r.shared = nil
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fsCounters is what the timing filesystem counts at the disk boundary.
type fsCounters struct {
	ReadOps, ReadBytes, ReadNs    int64
	WriteOps, WriteBytes, WriteNs int64
	WALBytes, SegmentBytes        int64
	Syncs, SyncNs                 int64
}

func (a fsCounters) sub(b fsCounters) fsCounters {
	return fsCounters{
		ReadOps: a.ReadOps - b.ReadOps, ReadBytes: a.ReadBytes - b.ReadBytes, ReadNs: a.ReadNs - b.ReadNs,
		WriteOps: a.WriteOps - b.WriteOps, WriteBytes: a.WriteBytes - b.WriteBytes, WriteNs: a.WriteNs - b.WriteNs,
		WALBytes: a.WALBytes - b.WALBytes, SegmentBytes: a.SegmentBytes - b.SegmentBytes,
		Syncs: a.Syncs - b.Syncs, SyncNs: a.SyncNs - b.SyncNs,
	}
}

// timingFS is the fault.FS seam used the other way round: instead of
// injecting failures it times and counts every positional read, write and
// fsync the store and ingest layers issue, from outside those packages.
type timingFS struct {
	fault.FS
	rec *recorder

	readOps, readBytes, readNs    atomic.Int64
	writeOps, writeBytes, writeNs atomic.Int64
	walBytes, segBytes            atomic.Int64
	syncs, syncNs                 atomic.Int64
}

func newTimingFS(rec *recorder) *timingFS { return &timingFS{FS: fault.OS, rec: rec} }

func (t *timingFS) counters() fsCounters {
	return fsCounters{
		ReadOps: t.readOps.Load(), ReadBytes: t.readBytes.Load(), ReadNs: t.readNs.Load(),
		WriteOps: t.writeOps.Load(), WriteBytes: t.writeBytes.Load(), WriteNs: t.writeNs.Load(),
		WALBytes: t.walBytes.Load(), SegmentBytes: t.segBytes.Load(),
		Syncs: t.syncs.Load(), SyncNs: t.syncNs.Load(),
	}
}

// fileClass buckets written bytes by what ingest is writing: the WAL
// (including rows re-logged across a rotation) or a segment (its .tmp
// included).
type fileClass uint8

const (
	classOther fileClass = iota
	classWAL
	classSegment
)

func classify(name string) fileClass {
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "wal-"):
		return classWAL
	case strings.HasPrefix(base, "segment-"):
		return classSegment
	default:
		return classOther
	}
}

func (t *timingFS) wrap(f fault.File, err error, name string) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t, class: classify(name)}, nil
}

func (t *timingFS) Open(name string) (fault.File, error) {
	f, err := t.FS.Open(name)
	return t.wrap(f, err, name)
}

func (t *timingFS) Create(name string) (fault.File, error) {
	f, err := t.FS.Create(name)
	return t.wrap(f, err, name)
}

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	return t.wrap(f, err, name)
}

// timingFile times the calls that touch data; Seek, Stat and Close pass
// through the embedded file.
type timingFile struct {
	fault.File
	fs    *timingFS
	class fileClass
}

func (f *timingFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := f.fs.rec.now()
	n, err := f.File.ReadAt(p, off)
	t1 := f.fs.rec.now()
	f.fs.readOps.Add(1)
	f.fs.readBytes.Add(int64(n))
	f.fs.readNs.Add(t1 - t0)
	f.fs.rec.addShared(spanReadAt, t0, t1, int64(n))
	return n, err
}

func (f *timingFile) Read(p []byte) (int, error) {
	t0 := f.fs.rec.now()
	n, err := f.File.Read(p)
	t1 := f.fs.rec.now()
	f.fs.readOps.Add(1)
	f.fs.readBytes.Add(int64(n))
	f.fs.readNs.Add(t1 - t0)
	return n, err
}

func (f *timingFile) Write(p []byte) (int, error) {
	t0 := f.fs.rec.now()
	n, err := f.File.Write(p)
	t1 := f.fs.rec.now()
	f.fs.writeOps.Add(1)
	f.fs.writeBytes.Add(int64(n))
	f.fs.writeNs.Add(t1 - t0)
	switch f.class {
	case classWAL:
		f.fs.walBytes.Add(int64(n))
	case classSegment:
		f.fs.segBytes.Add(int64(n))
	}
	f.fs.rec.addShared(spanWrite, t0, t1, int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	t0 := f.fs.rec.now()
	err := f.File.Sync()
	t1 := f.fs.rec.now()
	f.fs.syncs.Add(1)
	f.fs.syncNs.Add(t1 - t0)
	f.fs.rec.addShared(spanSync, t0, t1, 0)
	return err
}

// reqSource is the table.PartitionSource seam for one replayed request: it
// times every partition fetch the scan issues. The scan fans reads out over
// exec workers, so appends are locked; one wrapper per request keeps the
// reads attributable without any identity in the Read signature.
type reqSource struct {
	table.PartitionSource
	rec *recorder

	mu    sync.Mutex
	reads []span
}

func (s *reqSource) Read(i int) (*table.Partition, error) {
	t0 := s.rec.now()
	p, err := s.PartitionSource.Read(i)
	t1 := s.rec.now()
	s.mu.Lock()
	s.reads = append(s.reads, span{Name: spanRead, Start: t0, End: t1, Arg: int64(i)})
	s.mu.Unlock()
	return p, err
}

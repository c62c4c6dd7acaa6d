package ingest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"ps3/internal/core"
	"ps3/internal/fault"
	"ps3/internal/stats"
	"ps3/internal/store"
	"ps3/internal/table"
)

// Config parameterizes an ingest pipeline.
type Config struct {
	// Dir is the ingest directory holding the write-ahead logs and flushed
	// segments; created if absent. One pipeline owns a directory.
	Dir string
	// RowsPerPart is the partition seal size. It should match the base
	// table's partitioning (ps3serve derives it as NumRows/NumParts);
	// defaults to 1024.
	RowsPerPart int
	// CommitWindow is the WAL group-commit window: appends arriving within
	// one window share a single fsync. <= 0 fsyncs on every append
	// (maximum durability, minimum throughput).
	CommitWindow time.Duration
	// PublishTail includes memtable rows (sealed-but-unflushed partitions
	// and the building tail) in published snapshots as a resident table,
	// at the cost of extending statistics over them at publish time. When
	// false, snapshots cover only the base and flushed segments.
	PublishTail bool
	// Parallelism bounds the sketch-building fan-out during stats
	// extension; <= 0 uses the base statistics' own setting.
	Parallelism int
	// CacheBytes is the per-segment block cache budget (store.Options).
	CacheBytes int64
	// ManualFlush disables the background flush loop; segments are cut
	// only by explicit Flush/Freeze calls. Tests use this to control
	// flush timing exactly.
	ManualFlush bool
	// OnPublish, when set, receives each published snapshot and its
	// version — typically serve.(*Server).Swap behind an adapter. Called
	// outside the pipeline's state lock, in flush order.
	OnPublish func(sys *core.System, version int)
	// FS is the filesystem seam every pipeline disk operation goes through
	// (WAL, segment temporaries, renames, directory fsyncs, recovery scans).
	// nil means fault.OS; chaos tests pass an *fault.Injector.
	FS fault.FS
}

// PipelineStats is a point-in-time counter snapshot.
type PipelineStats struct {
	// AppendBatches and RowsAppended count acknowledged appends since open
	// (recovered rows count as appended).
	AppendBatches int64
	RowsAppended  int64
	// Flushes counts segments cut since open; SegmentParts is the total
	// partitions across all live segments.
	Flushes      int64
	Segments     int
	SegmentParts int
	// PendingRows are rows in the memtable, not yet flushed to a segment
	// (durable in the WAL).
	PendingRows int
	// Version is the snapshot version, the number of segments ever
	// flushed: what OnPublish last announced and Snapshot returns.
	Version int
	// RecoveredRows is how many rows WAL replay restored at open.
	RecoveredRows int64
}

// Pipeline is the live ingest path: appends are framed into a write-ahead
// log (acknowledged after group commit), accumulated in a memtable, and
// flushed as immutable store-format segments; each flush extends the
// statistics incrementally and publishes a rebound snapshot through
// OnPublish.
//
// WAL rotation is keyed to segment flushes: wal-k holds exactly the rows
// appended since segment k-1 was cut. A flush writes segment k from the
// sealed partitions, re-logs any rows that arrived during the flush into
// wal-(k+1), renames the segment into place, and only then deletes wal-k —
// at every crash point the union of segments and surviving logs covers
// every acknowledged row exactly once after recovery.
//
// A pipeline is written to, never read from: whatever wants to see what it
// holds — serving, a test, an operator — takes a published snapshot
// (OnPublish, Snapshot), an immutable multiSource over base, segments and,
// under PublishTail, the memtable. Appends, flushes and freeze are safe to
// call concurrently.
type Pipeline struct {
	cfg    Config
	base   *core.System
	schema *table.Schema

	// mu guards everything below: the dictionary, the current WAL, the
	// memtable and the published state. Appends hold it only to enqueue
	// and code rows; fsync waits happen outside.
	mu      sync.Mutex
	dict    *table.Dict
	wal     *WAL
	walIdx  int
	mem     *memtable
	segs    []*store.Reader
	stats   *stats.TableStats
	version int
	frozen  bool
	closed  bool
	ingErr  error // sticky: a failed flush or diverged state poisons the pipeline

	appendBatches int64
	rowsAppended  int64
	flushes       int64
	recoveredRows int64

	// flushMu serializes flushes so segment indexes and stats extensions
	// advance one at a time.
	flushMu  sync.Mutex
	flushReq chan struct{} // nil under ManualFlush or after freeze
	loopDone chan struct{}
}

var (
	segmentRe = regexp.MustCompile(`^segment-(\d{6})\.ps3$`)
	walRe     = regexp.MustCompile(`^wal-(\d{6})\.log$`)
)

// Open recovers (or starts) an ingest pipeline in cfg.Dir on top of base,
// a system over the immutable base table whose trained picker each
// published snapshot inherits. Recovery deletes stray temporaries, opens
// the contiguous run of flushed segments, verifies and adopts their
// dictionary snapshots, extends the base statistics over their
// partitions, truncates the current WAL at the first torn record and
// replays it into the memtable. Acknowledged rows survive; torn tails do
// not.
func Open(cfg Config, base *core.System) (*Pipeline, error) {
	if base.Stats == nil {
		return nil, errors.New("ingest: base system has no statistics to extend")
	}
	if cfg.RowsPerPart <= 0 {
		cfg.RowsPerPart = 1024
	}
	if cfg.FS == nil {
		cfg.FS = fault.OS
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:    cfg,
		base:   base,
		schema: base.Source.TableSchema(),
	}

	segIdx, walIdx, err := scanDir(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, err
	}
	// Segments must be the contiguous prefix 0..K-1: flushes are serial
	// and recovery deletes nothing but temporaries and stale logs, so a
	// gap means the directory was tampered with or mixed across datasets.
	for i, idx := range segIdx {
		if idx != i {
			return nil, fmt.Errorf("ingest: segment run is not contiguous: found segment %d at position %d", idx, i)
		}
	}
	k := len(segIdx)
	// wal-K is the live log; logs for any other index are stale (their
	// rows are in flushed segments or were re-logged into wal-K).
	for _, idx := range walIdx {
		if idx != k {
			if err := cfg.FS.Remove(filepath.Join(cfg.Dir, walName(idx))); err != nil {
				return nil, fmt.Errorf("ingest: remove stale wal %d: %w", idx, err)
			}
		}
	}

	// Rebuild the dictionary: the live dictionary is append-only and each
	// segment embeds the snapshot taken when its flush began, so segment
	// dictionaries form a growing chain of prefix extensions over the base
	// dictionary. Verify the chain and adopt the newest snapshot.
	baseDict := base.Source.TableDict()
	vals := baseDict.Values()
	ts := base.Stats
	for _, idx := range segIdx {
		r, err := store.OpenFS(cfg.FS, filepath.Join(cfg.Dir, segmentName(idx)), store.Options{CacheBytes: cfg.CacheBytes})
		if err != nil {
			p.closeSegs()
			return nil, fmt.Errorf("ingest: open segment %d: %w", idx, err)
		}
		p.segs = append(p.segs, r)
		segVals := r.TableDict().Values()
		if len(segVals) < len(vals) {
			p.closeSegs()
			return nil, fmt.Errorf("ingest: segment %d dictionary has %d values, older state has %d", idx, len(segVals), len(vals))
		}
		for i := range vals {
			if segVals[i] != vals[i] {
				p.closeSegs()
				return nil, fmt.Errorf("ingest: segment %d dictionary diverges at code %d", idx, i)
			}
		}
		vals = segVals

		// Extend statistics over the segment's partitions at their global
		// positions. ReadUncached partitions carry segment-local IDs;
		// stats rows are indexed globally, so restamp.
		parts := make([]*table.Partition, r.NumParts())
		for i := range parts {
			q, err := r.ReadUncached(i)
			if err != nil {
				p.closeSegs()
				return nil, fmt.Errorf("ingest: read segment %d partition %d: %w", idx, i, err)
			}
			q.ID = len(ts.Parts) + i
			parts[i] = q
		}
		ts, err = ts.ExtendedWith(r.TableDict(), parts, cfg.Parallelism)
		if err != nil {
			p.closeSegs()
			return nil, fmt.Errorf("ingest: extend stats over segment %d: %w", idx, err)
		}
	}
	dict, err := table.DictFromValues(append([]string(nil), vals...))
	if err != nil {
		p.closeSegs()
		return nil, fmt.Errorf("ingest: rebuild dictionary: %w", err)
	}
	p.dict = dict
	p.stats = ts
	p.mem = newMemtable(p.schema, cfg.RowsPerPart, len(ts.Parts))

	// Replay the live log: truncate at the first torn record, then re-code
	// and re-append every surviving row in log order. Re-coding reproduces
	// the exact code assignment of the original appends because codes were
	// assigned in enqueue order under the same lock.
	walPath := filepath.Join(cfg.Dir, walName(k))
	if err := p.replay(walPath); err != nil {
		p.closeSegs()
		return nil, err
	}
	w, err := OpenWALFS(cfg.FS, walPath, cfg.CommitWindow)
	if err != nil {
		p.closeSegs()
		return nil, err
	}
	p.wal = w
	p.walIdx = k
	p.version = k

	if !cfg.ManualFlush {
		p.flushReq = make(chan struct{}, 1)
		p.loopDone = make(chan struct{})
		go p.flushLoop(p.flushReq)
		if len(p.mem.sealed) > 0 {
			p.flushReq <- struct{}{}
		}
	}
	return p, nil
}

// scanDir inventories the ingest directory: sorted segment indexes, sorted
// WAL indexes, temporaries deleted.
func scanDir(fsys fault.FS, dir string) (segIdx, walIdx []int, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".tmp" {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return nil, nil, fmt.Errorf("ingest: remove temporary %s: %w", name, err)
			}
			continue
		}
		if m := segmentRe.FindStringSubmatch(name); m != nil {
			n, _ := strconv.Atoi(m[1])
			segIdx = append(segIdx, n)
		} else if m := walRe.FindStringSubmatch(name); m != nil {
			n, _ := strconv.Atoi(m[1])
			walIdx = append(walIdx, n)
		}
	}
	sort.Ints(segIdx)
	sort.Ints(walIdx)
	return segIdx, walIdx, nil
}

// replay restores the memtable from the live WAL, truncating the file at
// the first torn record so the log on disk matches what was replayed.
func (p *Pipeline) replay(path string) error {
	f, err := p.cfg.FS.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	records, clean, err := ReadWAL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ingest: replay %s: %w", path, err)
	}
	if st, err := p.cfg.FS.Stat(path); err == nil && st.Size() > clean {
		if err := p.cfg.FS.Truncate(path, clean); err != nil {
			return fmt.Errorf("ingest: truncate torn wal tail: %w", err)
		}
	}
	catRow := make([]uint32, p.schema.NumCols())
	for _, rec := range records {
		num, cat, err := DecodeRows(rec, p.schema)
		if err != nil {
			return fmt.Errorf("ingest: replay %s: intact frame holds a bad record: %w", path, err)
		}
		for i := range num {
			p.codeRow(cat[i], catRow)
			if err := p.mem.append(num[i], catRow); err != nil {
				return err
			}
			p.recoveredRows++
			p.rowsAppended++
		}
		p.appendBatches++
	}
	return nil
}

// codeRow assigns dictionary codes for one row's categorical cells into
// dst. Must run under p.mu (or before the pipeline is shared): code
// assignment order is the replay contract.
func (p *Pipeline) codeRow(cat []string, dst []uint32) {
	for c, col := range p.schema.Cols {
		if !col.IsNumeric() {
			dst[c] = p.dict.Code(cat[c])
		}
	}
}

func (p *Pipeline) closeSegs() {
	for _, r := range p.segs {
		r.Close()
	}
}

func (p *Pipeline) usableLocked() error {
	switch {
	case p.ingErr != nil:
		return p.ingErr
	case p.closed:
		return errors.New("ingest: pipeline is closed")
	case p.frozen:
		return errors.New("ingest: pipeline is frozen")
	}
	return nil
}

// AppendRows ingests a batch as one durability unit: the batch is framed
// into a single WAL record, its rows enter the memtable, and the call
// returns after the record's commit group is fsynced. Rows become visible
// to published snapshots at the next flush (or immediately, under
// PublishTail). On error none of the batch is acknowledged — though rows
// of a batch that failed only at the durability step may still reappear
// after recovery, the usual write-ahead read-uncommitted caveat.
func (p *Pipeline) AppendRows(num [][]float64, cat [][]string) error {
	payload, err := EncodeRows(p.schema, num, cat)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if err := p.usableLocked(); err != nil {
		p.mu.Unlock()
		return err
	}
	// Enqueue before coding: the WAL sequence fixes the global append
	// order, and codes are assigned under the same critical section so
	// replay (which re-codes in log order) reproduces them exactly.
	w := p.wal
	seq, err := w.Enqueue(payload)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	catRow := make([]uint32, p.schema.NumCols())
	for i := range num {
		p.codeRow(cat[i], catRow)
		if err := p.mem.append(num[i], catRow); err != nil {
			// The WAL holds rows the memtable does not: state has
			// diverged, poison the pipeline.
			p.ingErr = err
			p.mu.Unlock()
			return err
		}
	}
	p.appendBatches++
	p.rowsAppended += int64(len(num))
	if len(p.mem.sealed) > 0 && p.flushReq != nil {
		select {
		case p.flushReq <- struct{}{}:
		default:
		}
	}
	p.mu.Unlock()
	// Wait on the WAL we enqueued to — p.wal may have rotated meanwhile;
	// rotation closes the old log only after committing it, so this
	// returns promptly either way.
	return w.WaitDurable(seq)
}

// flushLoop cuts a segment whenever appends seal partitions. Lifecycle
// goroutine, joined by Freeze/Close. The request channel is passed in
// rather than read off the struct: Freeze/Close nil the field under the
// mutex, which this goroutine does not hold.
func (p *Pipeline) flushLoop(req <-chan struct{}) {
	defer close(p.loopDone)
	for range req {
		if err := p.flush(false); err != nil && !errors.Is(err, errNothingToFlush) {
			return // pipeline is poisoned; appends now fail with ingErr
		}
	}
}

var errNothingToFlush = errors.New("ingest: nothing to flush")

// Flush cuts a segment from the sealed memtable partitions now and
// publishes a snapshot. Returns nil when there is nothing sealed.
func (p *Pipeline) Flush() error {
	err := p.flush(false)
	if errors.Is(err, errNothingToFlush) {
		return nil
	}
	return err
}

// flush is the segment-cut critical path; partial additionally seals the
// building tail (the freeze path). Serialized by flushMu. Any error
// poisons the pipeline: the flush protocol's crash-safety argument relies
// on its steps completing in order, so a half-applied flush must not be
// silently retried over.
func (p *Pipeline) flush(partial bool) error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()

	p.mu.Lock()
	switch {
	case p.ingErr != nil:
		err := p.ingErr
		p.mu.Unlock()
		return err
	case p.closed:
		p.mu.Unlock()
		return errors.New("ingest: pipeline is closed")
	case p.frozen && !partial:
		p.mu.Unlock()
		return errors.New("ingest: pipeline is frozen")
	}
	if partial {
		if err := p.mem.sealPartial(); err != nil {
			p.ingErr = err
			p.mu.Unlock()
			return err
		}
	}
	sealed := p.mem.takeSealed()
	if len(sealed) == 0 {
		p.mu.Unlock()
		return errNothingToFlush
	}
	segIdx := len(p.segs)
	// Dictionary snapshot at flush start: covers every code the sealed
	// partitions store (codes are assigned before rows are appended), and
	// is the prefix-chain link recovery verifies.
	dictSnap, err := table.DictFromValues(append([]string(nil), p.dict.Values()...))
	baseStats := p.stats
	p.mu.Unlock()
	if err != nil {
		return p.poison(fmt.Errorf("ingest: snapshot dictionary: %w", err))
	}

	// Heavy work outside the lock: sketch the new partitions and write the
	// segment to a temporary. Appends continue concurrently into wal-k and
	// the memtable.
	extended, err := baseStats.ExtendedWith(dictSnap, sealed, p.cfg.Parallelism)
	if err != nil {
		return p.poison(fmt.Errorf("ingest: extend stats: %w", err))
	}
	old := len(baseStats.Parts)
	hints := store.HintsFromStats(extended)
	tmp, err := writeSegmentTemp(p.cfg.FS, p.cfg.Dir, segIdx, p.schema, dictSnap, sealed, func(part, col int) (store.ColHint, bool) {
		return hints(old+part, col)
	})
	if err != nil {
		return p.poison(err)
	}
	final := filepath.Join(p.cfg.Dir, segmentName(segIdx))

	// Commit, under the state lock: rotate the WAL, rename the segment
	// into place, swap in the extended state and build the snapshot. The
	// ordering is load-bearing — see the type comment's crash argument.
	p.mu.Lock()
	oldWAL := p.wal
	if err := oldWAL.Close(); err != nil {
		return p.poisonLocked(fmt.Errorf("ingest: close wal %d: %w", p.walIdx, err))
	}
	newWAL, err := OpenWALFS(p.cfg.FS, filepath.Join(p.cfg.Dir, walName(segIdx+1)), p.cfg.CommitWindow)
	if err != nil {
		return p.poisonLocked(err)
	}
	// Rows that arrived while the segment was being written live only in
	// the old log; re-log them before it is deleted.
	if p.mem.pendingRows() > 0 {
		rn, rc := p.mem.unflushedRows(p.dict)
		payload, err := EncodeRows(p.schema, rn, rc)
		if err == nil {
			err = newWAL.Append(payload)
		}
		if err != nil {
			newWAL.Close()
			return p.poisonLocked(fmt.Errorf("ingest: re-log %d rows: %w", len(rn), err))
		}
	}
	if err := p.cfg.FS.Rename(tmp, final); err != nil {
		newWAL.Close()
		return p.poisonLocked(err)
	}
	if err := syncDir(p.cfg.FS, p.cfg.Dir); err != nil {
		newWAL.Close()
		return p.poisonLocked(err)
	}
	reader, err := store.OpenFS(p.cfg.FS, final, store.Options{CacheBytes: p.cfg.CacheBytes})
	if err != nil {
		newWAL.Close()
		return p.poisonLocked(fmt.Errorf("ingest: reopen segment %d: %w", segIdx, err))
	}
	if err := p.cfg.FS.Remove(filepath.Join(p.cfg.Dir, walName(p.walIdx))); err != nil {
		newWAL.Close()
		reader.Close()
		return p.poisonLocked(err)
	}
	p.wal = newWAL
	p.walIdx = segIdx + 1
	p.segs = append(p.segs, reader)
	p.stats = extended
	p.version++
	p.flushes++
	var sys *core.System
	version := p.version
	if p.cfg.OnPublish != nil {
		sys, err = p.snapshotLocked()
		if err != nil {
			return p.poisonLocked(fmt.Errorf("ingest: build snapshot %d: %w", version, err))
		}
	}
	p.mu.Unlock()

	if sys != nil {
		p.cfg.OnPublish(sys, version)
	}
	return nil
}

// Err reports the pipeline's sticky poison error: non-nil once a failed
// flush, WAL I/O error or diverged state has made further writes unsafe.
// A poisoned pipeline rejects appends and flushes but leaves every already
// published snapshot serving; serve's read-only mode is driven off this
// (see serve.AppendHealth).
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ingErr != nil {
		return p.ingErr
	}
	// A WAL whose commit loop hit an I/O error poisons appends before the
	// pipeline notices: surface it here so read-only mode flips as soon as
	// durability is gone, not on the next append attempt.
	if p.wal != nil {
		if err := p.wal.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (p *Pipeline) poison(err error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ingErr == nil {
		p.ingErr = err
	}
	return err
}

// poisonLocked is poison for callers already holding p.mu; it unlocks.
func (p *Pipeline) poisonLocked(err error) error {
	if p.ingErr == nil {
		p.ingErr = err
	}
	p.mu.Unlock()
	return err
}

// snapshotLocked assembles an immutable queryable snapshot: the base
// source plus every flushed segment (plus, under PublishTail, a resident
// table of memtable partitions), served by a system that inherits the
// base's trained picker over the extended statistics. Requires p.mu.
func (p *Pipeline) snapshotLocked() (*core.System, error) {
	subs := make([]table.PartitionSource, 0, len(p.segs)+2)
	subs = append(subs, p.base.Source)
	for _, r := range p.segs {
		subs = append(subs, r)
	}
	ts := p.stats
	if p.cfg.PublishTail {
		tail, err := p.mem.tailPartition()
		if err != nil {
			return nil, err
		}
		parts := append([]*table.Partition(nil), p.mem.sealed...)
		if tail != nil {
			parts = append(parts, tail)
		}
		if len(parts) > 0 {
			// Snapshots must not share the mutable live dictionary;
			// take an immutable copy covering the tail's codes.
			snap, err := table.DictFromValues(append([]string(nil), p.dict.Values()...))
			if err != nil {
				return nil, err
			}
			ts, err = ts.ExtendedWith(snap, parts, p.cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			subs = append(subs, &table.Table{Schema: p.schema, Dict: snap, Parts: parts})
		}
	}
	return p.base.Rebind(newMultiSource(p.schema, ts.Dict, subs...), ts)
}

// Snapshot builds the current published view on demand — what OnPublish
// would next receive — with its version.
func (p *Pipeline) Snapshot() (*core.System, int, error) {
	// Serialize against flushes: mid-flush, the sealed partitions have
	// left the memtable and are not yet in the stats or a segment, and a
	// snapshot cut in that window would silently omit them.
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ingErr != nil {
		return nil, 0, p.ingErr
	}
	sys, err := p.snapshotLocked()
	return sys, p.version, err
}

// FreezeSource flushes everything buffered — including a final short
// partition from the building tail — and seals the pipeline; further
// appends fail. The final segment publishes through OnPublish like any
// other flush.
func (p *Pipeline) FreezeSource() error {
	p.mu.Lock()
	if p.ingErr != nil {
		err := p.ingErr
		p.mu.Unlock()
		return err
	}
	if p.frozen || p.closed {
		p.mu.Unlock()
		return errors.New("ingest: pipeline already sealed")
	}
	p.frozen = true
	req := p.flushReq
	p.flushReq = nil
	p.mu.Unlock()
	if req != nil {
		close(req)
		<-p.loopDone
	}
	err := p.flush(true)
	if errors.Is(err, errNothingToFlush) {
		return nil
	}
	return err
}

// Close releases the pipeline without flushing: buffered rows stay in the
// WAL and are replayed on the next Open — the crash-consistent shutdown.
// Pending appends are committed (the WAL close fsyncs them).
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	req := p.flushReq
	p.flushReq = nil
	w := p.wal
	p.mu.Unlock()
	if req != nil {
		close(req)
		<-p.loopDone
	}
	// flushMu: a flush already past its entry check may be rotating the
	// WAL; let it finish before tearing the handles down.
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.Lock()
	w = p.wal
	segs := p.segs
	p.segs = nil
	p.mu.Unlock()
	var err error
	if w != nil {
		err = w.Close()
	}
	for _, r := range segs {
		if cerr := r.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats reports pipeline counters.
func (p *Pipeline) Stats() PipelineStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PipelineStats{
		AppendBatches: p.appendBatches,
		RowsAppended:  p.rowsAppended,
		Flushes:       p.flushes,
		Segments:      len(p.segs),
		PendingRows:   p.mem.pendingRows(),
		Version:       p.version,
		RecoveredRows: p.recoveredRows,
	}
	for _, r := range p.segs {
		st.SegmentParts += r.NumParts()
	}
	return st
}

// Version returns the current snapshot version (the number of segments
// ever flushed).
func (p *Pipeline) Version() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version
}

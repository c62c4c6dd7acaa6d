// Package ingest is PS3's live write path: a crash-safe write-ahead log
// feeding an in-memory memtable that flushes immutable segments in the
// paged store format, with each flush extending the statistics layer
// incrementally and publishing a new versioned snapshot for the serving
// layer to swap in.
//
// The moving parts, in row order:
//
//   - WAL: length+CRC32-C framed records, fsync-batched within a
//     configurable group-commit window; an append is acknowledged only
//     after its group reaches disk. Recovery truncates at the first torn
//     record.
//   - memtable: rows accumulate in columnar form and seal into an
//     immutable partition every RowsPerPart rows — the exact seal rule of
//     table.Builder, which is what makes a streamed dataset bit-identical
//     to the same rows ingested offline.
//   - segments: sealed partitions flush as ordinary store-format files
//     (the same per-column encoding chooser as offline writes), so a
//     segment is just more partitions behind the table.PartitionSource
//     seam.
//   - snapshots: each flush extends the statistics
//     (stats.TableStats.ExtendedWith), rebinds the trained picker
//     (core.System.Rebind) and hands the result to OnPublish — typically
//     serve.(*Server).Swap — so readers never block on writers.
//
// This package is on the nakedgo allowance: the WAL group-commit loop and
// the flush loop are lifecycle goroutines, joined on Close, not data-path
// fan-out (which still goes through internal/exec).
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ps3/internal/fault"
)

// WAL frame layout: [length u32 LE][crc u32 LE][payload], where crc is
// CRC32-C (Castagnoli) of the payload — the same polynomial the store's
// block checksums use. A frame is intact iff the full payload is present
// and matches its checksum; everything after the first violation is a torn
// tail.
const frameHeader = 8

// MaxRecordBytes caps one WAL record's payload. The bound protects
// recovery from a corrupt length field allocating gigabytes, and is far
// above any row batch the pipeline writes.
const MaxRecordBytes = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrWALClosed is returned by appends to a closed log.
var ErrWALClosed = errors.New("ingest: wal is closed")

// AppendFrame appends one framed record to dst and returns the extended
// slice.
func AppendFrame(dst, payload []byte) []byte {
	var h [frameHeader]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, h[:]...)
	return append(dst, payload...)
}

// ReadWAL scans a write-ahead log stream, returning every intact record
// payload in order and the byte offset just past the last intact frame. A
// torn tail — truncated header, truncated payload, zero or oversized
// length, or a checksum mismatch — ends the scan without error: that is
// the expected shape of a log cut by a crash, and recovery truncates the
// file at clean and replays the records. Only a real read error is
// returned.
func ReadWAL(r io.Reader) (records [][]byte, clean int64, err error) {
	br := bufio.NewReader(r)
	for {
		var h [frameHeader]byte
		if _, err := io.ReadFull(br, h[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return records, clean, nil
			}
			return records, clean, err
		}
		n := binary.LittleEndian.Uint32(h[0:4])
		want := binary.LittleEndian.Uint32(h[4:8])
		if n == 0 || n > MaxRecordBytes {
			return records, clean, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return records, clean, nil
			}
			return records, clean, err
		}
		if crc32.Checksum(payload, crcTable) != want {
			return records, clean, nil
		}
		records = append(records, payload)
		clean += int64(frameHeader) + int64(n)
	}
}

// WAL is a crash-safe framed log with group commit: Enqueue buffers a
// frame and assigns it a sequence number, a background loop (or the waiter
// itself, in synchronous mode) writes and fsyncs whole pending groups, and
// WaitDurable returns once the record's group reached disk. Batching
// amortizes fsync across concurrent appenders without ever acknowledging a
// record the disk has not seen.
type WAL struct {
	path   string
	window time.Duration
	f      fault.File

	// mu guards the pending group and the sequence counters; cond wakes
	// durability waiters after each group commit.
	mu      sync.Mutex
	cond    *sync.Cond
	pending []byte
	seq     uint64 // last enqueued record
	synced  uint64 // last durable record
	err     error  // sticky I/O error; poisons the log
	closed  bool

	// flushMu serializes group commits so frames reach the file in
	// sequence order.
	flushMu sync.Mutex

	wake chan struct{} // nil in synchronous mode
	done chan struct{}
	idle chan struct{} // closed when the commit loop exits
}

// OpenWALFS opens (creating if absent) a log for appending through the
// filesystem seam fsys (fault.OS, or an *fault.Injector scripting fsync and
// write failures). window > 0 starts a group-commit loop that fsyncs
// pending frames every window; window <= 0 commits synchronously on every
// WaitDurable. The parent directory is fsynced so a freshly created log
// survives a crash.
func OpenWALFS(fsys fault.FS, path string, window time.Duration) (*WAL, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(fsys, filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("ingest: wal %s: %w", path, err)
	}
	w := &WAL{path: path, window: window, f: f}
	w.cond = sync.NewCond(&w.mu)
	if window > 0 {
		w.wake = make(chan struct{}, 1)
		w.done = make(chan struct{})
		w.idle = make(chan struct{})
		go w.commitLoop()
	}
	return w, nil
}

// Enqueue frames payload into the pending group and returns its sequence
// number; the record is durable once WaitDurable(seq) returns. Callers
// needing ordering against other state (the pipeline orders WAL frames
// with dictionary code assignment) enqueue under their own lock and wait
// outside it.
func (w *WAL) Enqueue(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		return 0, errors.New("ingest: empty wal record")
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("ingest: wal record of %d bytes exceeds the %d cap", len(payload), MaxRecordBytes)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, ErrWALClosed
	}
	w.pending = AppendFrame(w.pending, payload)
	w.seq++
	if w.wake != nil {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	return w.seq, nil
}

// WaitDurable blocks until record seq is fsynced or the log fails.
func (w *WAL) WaitDurable(seq uint64) error {
	if w.wake == nil {
		w.commit() // synchronous mode: the waiter performs the commit
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.synced < seq && w.err == nil {
		w.cond.Wait()
	}
	return w.err
}

// Append writes one record and returns once it is durable.
func (w *WAL) Append(payload []byte) error {
	seq, err := w.Enqueue(payload)
	if err != nil {
		return err
	}
	return w.WaitDurable(seq)
}

// Err reports the log's sticky I/O error, if any. A failed write or fsync
// poisons the log permanently: acknowledged records stay durable, but no
// further record will be.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Sync forces any pending group to disk now.
func (w *WAL) Sync() error {
	w.commit()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// commit writes and fsyncs the pending buffer: one group commit. Frames
// buffered while the write is in flight land in the next group.
func (w *WAL) commit() {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	buf, mark := w.pending, w.seq
	w.pending = nil
	failed := w.err != nil
	w.mu.Unlock()
	if failed || len(buf) == 0 {
		return
	}
	_, err := w.f.Write(buf)
	if err == nil {
		err = w.f.Sync()
	}
	w.mu.Lock()
	if err != nil {
		w.err = fmt.Errorf("ingest: wal %s: %w", w.path, err)
	} else if mark > w.synced {
		w.synced = mark
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// commitLoop batches appends within the group-commit window: it wakes on
// the first enqueue, lets the group accumulate for one window, commits,
// and goes back to sleep.
func (w *WAL) commitLoop() {
	defer close(w.idle)
	for {
		select {
		case <-w.done:
			return
		case <-w.wake:
		}
		timer := time.NewTimer(w.window)
		select {
		case <-w.done:
			timer.Stop()
			w.commit()
			return
		case <-timer.C:
		}
		w.commit()
	}
}

// Close commits everything pending, stops the group-commit loop and closes
// the file. Records enqueued before Close are durable when it returns
// (absent I/O errors, which it reports).
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()
	if w.done != nil {
		close(w.done)
		<-w.idle
	}
	w.commit()
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("ingest: wal %s: %w", w.path, cerr)
	}
	return err
}

package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"ps3/internal/exec"
	"ps3/internal/fault"
	"ps3/internal/lru"
	"ps3/internal/table"
)

// DefaultCacheBytes is the partition cache budget when Options.CacheBytes
// is zero: 256 MiB, small enough to matter on a laptop, large enough to
// hold the working set of a typical picked-partition workload.
const DefaultCacheBytes int64 = 256 << 20

// Options configures a Reader.
type Options struct {
	// CacheBytes bounds the resident-encoded partition bytes held by the
	// cache (decoded width for raw columns, wire size for encoded ones —
	// see Partition.EncodedSizeBytes). 0 means DefaultCacheBytes; negative
	// means unbounded (the whole dataset may end up cached, which turns
	// the reader into a lazily-populated resident table).
	CacheBytes int64
}

func (o Options) budget() int64 {
	if o.CacheBytes == 0 {
		return DefaultCacheBytes
	}
	return max(o.CacheBytes, 0) // negative is unbounded, which lru.Cache spells 0
}

// Reader serves partitions from a store file on demand. It implements
// table.PartitionSource: opening costs one footer read, and partition data
// is fetched lazily through a byte-budgeted LRU cache, so memory tracks the
// cache budget plus in-flight scans rather than the dataset. All methods
// are safe for concurrent use.
type Reader struct {
	src    io.ReaderAt
	closer io.Closer // set when the reader owns the underlying file

	schema  *table.Schema
	dict    *table.Dict
	blocks  []blockWire
	version uint32
	rows    int
	// totalBytes is the decoded (logical) footprint; fileBytes the encoded
	// bytes actually stored in blocks. Equal for v1 files.
	totalBytes int64
	fileBytes  int64
	// perRow is the decoded bytes per row under the schema.
	perRow int64

	// cache holds decoded partitions by index, charged EncodedSizeBytes: a
	// compressed partition takes a proportionally smaller bite of the budget.
	// It counts each partition's holders (lru.NewHeld over Partition.Retain /
	// Release), so a partition's buffer comes back to bufs once the cache has
	// evicted it and the last scan reading it has released it.
	cache *lru.Cache[int, *table.Partition]
	// bufs recycles block buffers and the slices their columns decode into.
	bufs blockBufs
	// decStats counts lazy materializations of encoded columns across every
	// partition this reader has served.
	decStats table.DecodeStats

	// quarantine fences partitions whose blocks failed as corrupt twice;
	// corruptRetries counts the retry attempts (see loadBlockRetry).
	quarantine     quarantineSet
	corruptRetries atomic.Int64

	// Logical I/O accounting (see table.PartitionSource): every Read
	// charges here, cache hit or not; the cache's own stats track the
	// physical loads.
	readCount atomic.Int64
	readBytes atomic.Int64
}

// Open opens the store file at path. The returned Reader keeps the file
// handle until Close.
func Open(path string, o Options) (*Reader, error) {
	return OpenFS(fault.OS, path, o)
}

// OpenFS is Open over an explicit filesystem seam. Production callers use
// fault.OS (what Open passes); chaos tests hand in a fault.Injector so
// block reads can be failed or corrupted on schedule.
func OpenFS(fsys fault.FS, path string, o Options) (*Reader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReaderAt(f, st.Size(), o)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReaderAt opens a store held in any random-access source of the given
// size. The footer is read and validated eagerly — as untrusted input, like
// every other decode path — so a corrupted index fails here; block data is
// only validated when a partition is actually read.
func NewReaderAt(src io.ReaderAt, size int64, o Options) (*Reader, error) {
	if size < int64(headerSize+trailerSize) {
		return nil, fmt.Errorf("store: file of %d bytes is too small to be a store", size)
	}
	var header [headerSize]byte
	if _, err := src.ReadAt(header[:], 0); err != nil {
		return nil, fmt.Errorf("store: read header: %w", err)
	}
	if string(header[:len(headerMagic)]) != headerMagic {
		return nil, fmt.Errorf("store: not a store file (magic %q)", header[:len(headerMagic)])
	}
	version := binary.LittleEndian.Uint32(header[len(headerMagic):])
	if version != formatVersion && version != formatVersionEncoded {
		return nil, fmt.Errorf("store: format version %d, this build reads %d and %d",
			version, formatVersion, formatVersionEncoded)
	}

	var trailer [trailerSize]byte
	if _, err := src.ReadAt(trailer[:], size-int64(trailerSize)); err != nil {
		return nil, fmt.Errorf("store: read trailer: %w", err)
	}
	if string(trailer[12:]) != trailerMagic {
		return nil, fmt.Errorf("store: truncated or corrupt file (trailer magic %q)", trailer[12:])
	}
	footerLen := binary.LittleEndian.Uint64(trailer[:8])
	maxFooter := uint64(size) - uint64(headerSize) - uint64(trailerSize)
	if footerLen > maxFooter {
		return nil, fmt.Errorf("store: corrupt file: footer length %d exceeds the %d bytes between header and trailer", footerLen, maxFooter)
	}
	footerStart := size - int64(trailerSize) - int64(footerLen)
	fbuf := make([]byte, footerLen)
	if _, err := src.ReadAt(fbuf, footerStart); err != nil {
		return nil, fmt.Errorf("store: read footer: %w", err)
	}
	if got, want := crc32.Checksum(fbuf, crcTable), binary.LittleEndian.Uint32(trailer[8:12]); got != want {
		return nil, fmt.Errorf("store: corrupt file: footer checksum %08x, want %08x", got, want)
	}
	var footer footerWire
	if err := gob.NewDecoder(bytes.NewReader(fbuf)).Decode(&footer); err != nil {
		return nil, fmt.Errorf("store: decode footer: %w", err)
	}

	if len(footer.Cols) == 0 {
		return nil, fmt.Errorf("store: corrupt file: footer has no columns")
	}
	schema, err := table.NewSchema(footer.Cols...)
	if err != nil {
		return nil, err
	}
	dict, err := table.DictFromValues(footer.DictVals)
	if err != nil {
		return nil, err
	}

	r := &Reader{
		src:     src,
		schema:  schema,
		dict:    dict,
		blocks:  footer.Blocks,
		version: version,
		cache: lru.NewHeld[int](o.budget(),
			func(p *table.Partition) int64 { return int64(p.EncodedSizeBytes()) },
			(*table.Partition).Retain, (*table.Partition).Release),
		bufs: newBlockBufs(),
	}
	// perRow is hoisted out of the loop: a corrupt footer can declare
	// thousands of columns and thousands of blocks, and re-walking the
	// schema per block would make open quadratic in the footer size.
	r.perRow = bytesPerRow(schema)
	// v2 blocks carry a [tag][length] prefix per column; their payload
	// length varies with the data, so only a lower bound is checkable from
	// the footer (full structural validation happens at block decode).
	minV2 := int64(colHeaderSize * schema.NumCols())
	for i, b := range footer.Blocks {
		if b.Rows < 0 || b.Rows > math.MaxInt32 {
			return nil, fmt.Errorf("store: corrupt file: partition %d has row count %d", i, b.Rows)
		}
		if version == formatVersion {
			if want := r.perRow * b.Rows; b.Length != want {
				return nil, fmt.Errorf("store: corrupt file: partition %d block is %d bytes, %d rows require %d",
					i, b.Length, b.Rows, want)
			}
		} else if b.Length < minV2 {
			return nil, fmt.Errorf("store: corrupt file: partition %d block is %d bytes, %d column headers require %d",
				i, b.Length, schema.NumCols(), minV2)
		}
		if b.Offset < int64(headerSize) || b.Offset > footerStart || footerStart-b.Offset < b.Length {
			return nil, fmt.Errorf("store: corrupt file: partition %d block [%d, %d+%d) falls outside the data section [%d, %d)",
				i, b.Offset, b.Offset, b.Length, headerSize, footerStart)
		}
		r.rows += int(b.Rows)
		r.totalBytes += r.perRow * b.Rows
		r.fileBytes += b.Length
		r.bufs.blocks.size = max(r.bufs.blocks.size, int(b.Length)+table.PackPad)
		r.bufs.nums.size = max(r.bufs.nums.size, int(b.Rows))
	}
	r.bufs.cats.size = r.bufs.nums.size
	return r, nil
}

// maxFreeBufs bounds the block buffers a reader keeps for its next loads. A
// load takes one and an eviction returns one, so the stack's steady length is
// the number of loads in flight; what a burst returns beyond the bound (an
// Invalidate, a scan much wider than the cache) is left to the collector.
// maxFreeCols is the same bound for decoded side-cars, of which a partition
// that stayed resident long enough to be read twice returns a few.
const (
	maxFreeBufs = 16
	maxFreeCols = 4 * maxFreeBufs
)

// poison is set in every test binary: a slice is overwritten with 0xDB bytes
// on its way into a free list, so a view that outlived its partition's last
// holder reads garbage and fails whichever equivalence suite it runs under,
// instead of passing on the next block's plausible bytes.
var poison = testing.Testing()

const (
	poisonByte = 0xDB
	poisonCode = 0xDBDBDBDB
	poisonBits = 0xDBDBDBDBDBDBDBDB
)

// freeList is a stack of slices of one capacity, so any of them fits any
// request and there are no size classes to search.
type freeList[T any] struct {
	size   int // capacity of every slice
	max    int // slices kept
	poison T

	mu   sync.Mutex
	free [][]T

	reuses, allocs atomic.Int64
}

// take returns n elements of arbitrary content, n <= l.size. The slice keeps
// its full capacity, which is what put gets back.
func (l *freeList[T]) take(n int) []T {
	l.mu.Lock()
	if k := len(l.free); k > 0 {
		s := l.free[k-1]
		l.free = l.free[:k-1]
		l.mu.Unlock()
		l.reuses.Add(1)
		return s[:n]
	}
	l.mu.Unlock()
	l.allocs.Add(1)
	return make([]T, n, l.size)
}

// put gives s, which nothing may read any more, to a later take.
func (l *freeList[T]) put(s []T) {
	s = s[:cap(s)]
	if poison && len(s) > 0 {
		s[0] = l.poison
		for n := 1; n < len(s); n *= 2 { // doubling copies: memmove speed
			copy(s[n:], s[:n])
		}
	}
	l.mu.Lock()
	if len(l.free) < l.max {
		l.free = append(l.free, s)
	}
	l.mu.Unlock()
}

// blockBufs is a reader's recycled memory, the table.BlockPool of every
// partition it loads: block buffers of the file's largest block plus
// table.PackPad, and decoded columns of its longest block's rows, both known
// from the footer at open.
type blockBufs struct {
	blocks freeList[byte]
	nums   freeList[float64]
	cats   freeList[uint32]
}

func newBlockBufs() blockBufs {
	return blockBufs{
		blocks: freeList[byte]{max: maxFreeBufs, poison: poisonByte},
		nums:   freeList[float64]{max: maxFreeCols, poison: math.Float64frombits(poisonBits)},
		cats:   freeList[uint32]{max: maxFreeCols, poison: poisonCode},
	}
}

func (b *blockBufs) PutBlock(buf []byte)       { b.blocks.put(buf) }
func (b *blockBufs) NumBuf(rows int) []float64 { return b.nums.take(rows) }
func (b *blockBufs) PutNum(vals []float64)     { b.nums.put(vals) }
func (b *blockBufs) CatBuf(rows int) []uint32  { return b.cats.take(rows) }
func (b *blockBufs) PutCat(codes []uint32)     { b.cats.put(codes) }

// Close releases the underlying file when the Reader owns one.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// TableSchema returns the schema decoded from the footer.
func (r *Reader) TableSchema() *table.Schema { return r.schema }

// TableDict returns the dictionary decoded from the footer.
func (r *Reader) TableDict() *table.Dict { return r.dict }

// NumParts returns the number of partitions in the store.
func (r *Reader) NumParts() int { return len(r.blocks) }

// NumRows returns the total row count across partitions, from the footer
// index alone.
func (r *Reader) NumRows() int { return r.rows }

// TotalBytes returns the decoded footprint of the full dataset. Cell
// encodings are fixed-width, so this equals the resident table's
// TotalBytes.
func (r *Reader) TotalBytes() int { return int(r.totalBytes) }

// Read returns partition i, charging one logical partition read to the I/O
// accountant and faulting the block in through the cache if it is not
// resident. Concurrent reads of one absent partition share a single disk
// load.
func (r *Reader) Read(i int) (*table.Partition, error) {
	if i < 0 || i >= len(r.blocks) {
		return nil, fmt.Errorf("store: partition %d out of range [0, %d)", i, len(r.blocks))
	}
	if err := r.quarantine.check(i); err != nil {
		return nil, err
	}
	r.readCount.Add(1)
	r.readBytes.Add(r.perRow * r.blocks[i].Rows)
	p, _, err := r.cache.GetOrCompute(i, func() (*table.Partition, error) { return r.loadBlockRetry(i) })
	return p, err
}

// ReadUncached returns partition i without touching the partition cache,
// still charging the logical I/O accountant. Full-scan paths (core's
// RunExact) read through it so that one exact scan cannot evict the
// approximate-serving working set — the same reason Materialize bypasses
// the cache.
func (r *Reader) ReadUncached(i int) (*table.Partition, error) {
	if i < 0 || i >= len(r.blocks) {
		return nil, fmt.Errorf("store: partition %d out of range [0, %d)", i, len(r.blocks))
	}
	if err := r.quarantine.check(i); err != nil {
		return nil, err
	}
	r.readCount.Add(1)
	r.readBytes.Add(r.perRow * r.blocks[i].Rows)
	return r.loadBlockRetry(i)
}

// loadBlock reads, checksums and decodes partition i from disk, bypassing
// the cache. Failures on bad bytes — CRC mismatch, or a decode error on
// bytes that matched their checksum — are marked with errCorruptBlock;
// read errors are not, so transient I/O stays retryable.
//
// The buffer comes from r.bufs and is usually one an evicted partition gave
// back: the read overwrites all Length bytes of it and the checksum is taken
// over them on every load, whichever buffer that is, so the bytes scanned
// are the bytes checksummed. A v2 partition keeps the buffer (its columns
// are views into it, see decodeBlockV2) and returns it through its last
// holder's Release; a failed load, and a v1 load, which copies every value
// out, return it here. buf ends table.PackPad bytes past the block — the
// slack the last packed column's loads may run into, holding whatever the
// buffer held before — so nothing decoded from data reaches further.
func (r *Reader) loadBlock(i int) (*table.Partition, error) {
	b := r.blocks[i]
	buf := r.bufs.blocks.take(int(b.Length) + table.PackPad)
	data := buf[:b.Length:len(buf)]
	if _, err := r.src.ReadAt(data, b.Offset); err != nil {
		r.bufs.blocks.put(buf)
		return nil, fmt.Errorf("store: read partition %d: %w", i, err)
	}
	if got := crc32.Checksum(data, crcTable); got != b.CRC {
		r.bufs.blocks.put(buf)
		return nil, fmt.Errorf("store: partition %d failed checksum: block CRC %08x, footer says %08x: %w",
			i, got, b.CRC, errCorruptBlock)
	}
	var p *table.Partition
	var err error
	if r.version == formatVersionEncoded {
		if p, err = decodeBlockV2(data, r.schema, uint32(r.dict.Len()), i, int(b.Rows), &r.decStats); err == nil {
			p.Own(buf, &r.bufs)
			return p, nil
		}
	} else {
		p, err = decodeBlock(data, r.schema, uint32(r.dict.Len()), i, int(b.Rows))
	}
	r.bufs.blocks.put(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, errCorruptBlock)
	}
	return p, nil
}

// loadBlockRetry is loadBlock with the quarantine policy: a corrupt load
// is retried once (the corruption may have happened between the platter
// and the checksum, not on it); corrupt twice in a row quarantines the
// partition so every later read fails fast with a *QuarantineError
// instead of re-reading bytes that will never verify. Transient I/O
// errors pass through unmarked and unquarantined.
func (r *Reader) loadBlockRetry(i int) (*table.Partition, error) {
	p, err := r.loadBlock(i)
	if err == nil || !errors.Is(err, errCorruptBlock) {
		return p, err
	}
	r.corruptRetries.Add(1)
	p, err = r.loadBlock(i)
	if err == nil || !errors.Is(err, errCorruptBlock) {
		return p, err
	}
	r.quarantine.add(i, err)
	return nil, &QuarantineError{Part: i, Err: err}
}

// Health reports the reader's quarantine state.
func (r *Reader) Health() HealthStats {
	return HealthStats{
		QuarantinedParts: r.quarantine.list(),
		CorruptRetries:   r.corruptRetries.Load(),
	}
}

// ResetIO clears the logical I/O counters.
func (r *Reader) ResetIO() {
	r.readCount.Store(0)
	r.readBytes.Store(0)
}

// IOStats reports logical partition reads since the last ResetIO — what
// the query plan asked for, whether or not the cache absorbed it.
func (r *Reader) IOStats() (parts int64, bytes int64) {
	return r.readCount.Load(), r.readBytes.Load()
}

// CacheStats is a point-in-time snapshot of the partition cache counters.
type CacheStats struct {
	// Hits counts reads served from resident partitions, including reads
	// that coalesced onto another request's in-flight load (they waited,
	// but cost no extra disk I/O).
	Hits int64 `json:"hits"`
	// Misses counts reads that went to disk.
	Misses int64 `json:"misses"`
	// Evictions counts partitions dropped to stay inside the byte budget.
	Evictions int64 `json:"evictions"`
	// LoadedBytes is the cumulative admitted (resident-encoded) bytes
	// faulted in from disk — the physical footprint the cache paid for, as
	// opposed to the logical decoded-width reads the Reader's IOStats
	// accountant charges. For raw (v1) stores the two coincide; for encoded
	// stores LoadedBytes is smaller by the compression ratio. Lazily
	// decoded columns are tracked by the reader's EncodingStats, not here.
	LoadedBytes int64 `json:"loaded_bytes"`
	// ResidentBytes and ResidentParts describe what the cache holds now.
	ResidentBytes int64 `json:"resident_bytes"`
	ResidentParts int   `json:"resident_parts"`
	// BudgetBytes is the configured budget (0 = unbounded).
	BudgetBytes int64 `json:"budget_bytes"`
	// BufferReuses counts block loads that read into a buffer a released
	// partition gave back, BufferAllocs those that had to allocate one. A
	// cache that evicts steadily should show allocations stop growing once
	// it is full.
	BufferReuses int64 `json:"buffer_reuses"`
	BufferAllocs int64 `json:"buffer_allocs"`
}

// CacheStats snapshots the partition cache counters.
func (r *Reader) CacheStats() CacheStats {
	st := r.cache.Stats()
	return CacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		LoadedBytes:   st.AdmittedCost,
		ResidentBytes: st.ResidentCost,
		ResidentParts: st.Entries,
		BudgetBytes:   st.Budget,
		BufferReuses:  r.bufs.blocks.reuses.Load(),
		BufferAllocs:  r.bufs.blocks.allocs.Load(),
	}
}

// EncodingStats describes how much the store's block encodings compress the
// dataset and how often encoded columns had to be materialized anyway.
type EncodingStats struct {
	// FormatVersion is the file's format: 1 (raw) or 2 (encoded).
	FormatVersion int
	// FileBytes is the total encoded block bytes on disk; LogicalBytes the
	// decoded-width equivalent. Equal for v1 files.
	FileBytes    int64
	LogicalBytes int64
	// Ratio is LogicalBytes / FileBytes (1.0 for raw files).
	Ratio float64
	// LazyDecodeCols / LazyDecodeBytes count encoded columns materialized
	// after load — the decode work predicates could not avoid.
	LazyDecodeCols  int64
	LazyDecodeBytes int64
}

// EncodingStats reports the reader's compression and lazy-decode counters.
func (r *Reader) EncodingStats() EncodingStats {
	cols, bytes := r.decStats.Snapshot()
	es := EncodingStats{
		FormatVersion:   int(r.version),
		FileBytes:       r.fileBytes,
		LogicalBytes:    r.totalBytes,
		LazyDecodeCols:  cols,
		LazyDecodeBytes: bytes,
	}
	if es.FileBytes > 0 {
		es.Ratio = float64(es.LogicalBytes) / float64(es.FileBytes)
	}
	return es
}

// Materialize loads every partition into a fully resident *table.Table
// sharing the reader's schema and dictionary. It bypasses the cache — a
// full materialization must not evict a serving working set — and is the
// bridge for workflows that need resident data, like training. Blocks are
// independent, so they load and decode in parallel (ReadAt is
// concurrency-safe); the partition list stays in index order.
func (r *Reader) Materialize() (*table.Table, error) {
	parts, err := exec.MapErr(len(r.blocks), exec.Options{}, r.loadBlock)
	if err != nil {
		return nil, err
	}
	return &table.Table{Schema: r.schema, Dict: r.dict, Parts: parts}, nil
}

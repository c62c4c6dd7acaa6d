package table

import (
	"fmt"
	"sync/atomic"
)

// Partition holds a horizontal slice of a table in columnar form. All rows of
// a partition are read together; PS3 never inspects partition contents during
// planning, only during (sampled) execution.
type Partition struct {
	// ID is the partition's position in the table's partition list.
	ID int
	// Num holds per-column numeric data; Num[c] is nil for categorical
	// columns and for encoded columns (see enc). All non-nil slices have
	// equal length. Readers that need values must go through NumCol, which
	// materializes encoded columns on demand, or through FirstTouch.
	Num [][]float64
	// Cat holds per-column dictionary codes; Cat[c] is nil for numeric
	// columns and for encoded columns. Readers must go through CatCol.
	Cat [][]uint32
	// rows caches the row count.
	rows int

	// enc holds per-column encoded data for partitions built by
	// MakeEncodedPartition; enc[c] is nil for decoded columns. Num[c] and
	// Cat[c] stay permanently nil for encoded columns — the decoded slices
	// live only in lazy[c], so unsynchronized reads of the public fields
	// never race with materialization.
	enc []*EncodedCol
	// lazy memoizes per-column materialization (one sync.Once each) and
	// remembers whether the column's values have been read before.
	lazy []lazyCol
	// decStats, when non-nil, is charged for every lazy materialization.
	decStats *DecodeStats
	// own is the block buffer the encoded columns are views into and the
	// count of who still reads it (see Own); nil for a partition that owns
	// nothing.
	own *ownedBlock
}

// ownedBlock is a loaded partition's claim on its block buffer. It sits
// behind a pointer so that a Partition stays copyable by value.
type ownedBlock struct {
	buf     []byte
	pool    BlockPool
	holders atomic.Int32
}

// BlockPool is where the memory of an owned partition (Own) comes from and
// goes back to: its block buffer, at the last Release, and in between the
// slices its encoded columns are decoded into on their second touch, which
// return with the buffer. NumBuf and CatBuf return rows elements of
// arbitrary content; nothing reads what a Put was given again. The store's
// reader implements it; package table only calls it.
type BlockPool interface {
	PutBlock(buf []byte)
	NumBuf(rows int) []float64
	PutNum(vals []float64)
	CatBuf(rows int) []uint32
	PutCat(codes []uint32)
}

// Own makes p the owner of buf, the block buffer its encoded columns view,
// with one holder: the caller, which loaded it. Each further holder is
// announced with Retain before it can see p and leaves with Release; when the
// last one has left, buf and every decoded side-car go back to pool, which
// may hand them to the next load. A holder that never calls Release is safe —
// nothing is then recycled and the collector frees it all with the partition
// — whereas reading p after releasing it is not. A partition Own was never
// called on (a resident table's, a memtable tail, a raw-format block) owns
// nothing, and Retain and Release do nothing on it.
func (p *Partition) Own(buf []byte, pool BlockPool) {
	p.own = &ownedBlock{buf: buf, pool: pool}
	p.own.holders.Store(1)
}

// Retain adds n holders. The caller must itself be a holder, or otherwise
// know that one exists until Retain returns (the partition cache calls it
// under its lock, for a value it holds).
func (p *Partition) Retain(n int) {
	if p.own != nil {
		p.own.holders.Add(int32(n))
	}
}

// Release drops one holder; the caller must not touch p afterwards. The last
// holder's Release detaches the encoded columns — a stale reader then faults
// on a nil column instead of scanning whatever block the buffer holds next —
// and recycles the buffer and the side-cars decoded from it.
func (p *Partition) Release() {
	o := p.own
	if o == nil {
		return
	}
	switch n := o.holders.Add(-1); {
	case n < 0:
		panic("table: partition released more often than it was retained")
	case n == 0:
		buf, lazy := o.buf, p.lazy
		o.buf, p.enc, p.lazy = nil, nil, nil
		for c := range lazy {
			if lc := &lazy[c]; lc.num != nil {
				o.pool.PutNum(lc.num)
			} else if lc.cat != nil {
				o.pool.PutCat(lc.cat)
			}
		}
		o.pool.PutBlock(buf)
	}
}

// NewPartition allocates an empty partition for the given schema.
func NewPartition(s *Schema) *Partition {
	p := &Partition{
		Num: make([][]float64, s.NumCols()),
		Cat: make([][]uint32, s.NumCols()),
	}
	return p
}

// Rows returns the number of rows stored in the partition.
func (p *Partition) Rows() int { return p.rows }

// NumCol returns the numeric data of column c, or nil for categorical
// columns. Encoded columns are materialized on first call and memoized;
// materialization cannot fail because encoded payloads are validated at
// construction. The slice is the partition's backing store: callers (such as
// the query layer's vectorized kernels) must treat it as read-only. A scan
// kernel asks FirstTouch before it calls this.
func (p *Partition) NumCol(c int) []float64 {
	if v := p.Num[c]; v != nil {
		return v
	}
	if p.enc == nil {
		return nil
	}
	e := p.enc[c]
	if e == nil || !e.IsNumeric() {
		return nil
	}
	lc := &p.lazy[c]
	lc.once.Do(func() {
		lc.touched.Store(true)
		if p.own != nil {
			lc.num = e.DecodeNumInto(p.own.pool.NumBuf(e.Rows))
		} else {
			lc.num = e.DecodeNum()
		}
		if p.decStats != nil {
			p.decStats.Add(8 * len(lc.num))
		}
	})
	return lc.num
}

// CatCol returns the dictionary codes of column c, or nil for numeric
// columns, materializing encoded columns on demand like NumCol. The slice is
// the partition's backing store: callers must treat it as read-only.
func (p *Partition) CatCol(c int) []uint32 {
	if v := p.Cat[c]; v != nil {
		return v
	}
	if p.enc == nil {
		return nil
	}
	e := p.enc[c]
	if e == nil || e.IsNumeric() {
		return nil
	}
	lc := &p.lazy[c]
	lc.once.Do(func() {
		lc.touched.Store(true)
		if p.own != nil {
			lc.cat = e.DecodeCatInto(p.own.pool.CatBuf(e.Rows))
		} else {
			lc.cat = e.DecodeCat()
		}
		if p.decStats != nil {
			p.decStats.Add(4 * len(lc.cat))
		}
	})
	return lc.cat
}

// DecodedCols returns the partition's columns fully decoded, one slice per
// schema column with data on the matching side (the form MakePartition
// takes), for ingest's memtable and tests comparing logical contents. Encoded columns
// are materialized through the lazy accessors; decoded columns are returned
// as-is (the partition's backing store — treat as read-only).
func (p *Partition) DecodedCols() (num [][]float64, cat [][]uint32) {
	if p.enc == nil {
		return p.Num, p.Cat
	}
	num = make([][]float64, len(p.Num))
	cat = make([][]uint32, len(p.Cat))
	for c := range num {
		if e := p.enc[c]; e != nil {
			if e.IsNumeric() {
				num[c] = p.NumCol(c)
			} else {
				cat[c] = p.CatCol(c)
			}
			continue
		}
		num[c], cat[c] = p.Num[c], p.Cat[c]
	}
	return num, cat
}

// EncCol returns column c's encoded form, or nil if the column is held
// decoded. Kernels use it to evaluate predicates without materializing.
func (p *Partition) EncCol(c int) *EncodedCol {
	if p.enc == nil {
		return nil
	}
	return p.enc[c]
}

// FirstTouch returns column c's encoded form if nothing has read the
// column's values yet, and records that something now has; otherwise (a
// decoded column, or one already touched) it returns nil and the caller reads
// NumCol/CatCol. It is how a scan decides which form of a column to read:
// the first reader evaluates on the encoded column and allocates nothing,
// every later one takes the memoized decoded slice, which is therefore built
// only for a column that is read twice — the usual doorkeeper in front of a
// cache, here the decode memo. A partition evicted after one scan never pays
// for a side-car; a resident one is fully decoded after its second.
//
// Two scans racing on a column's first touch may both be handed the encoded
// form (load, then store): both answers are right, and the next reader
// decodes. The query layer asks once per partition evaluation, whichever of
// its aggregates, group keys and predicate clauses reads the column first,
// and hands later read sites of that evaluation the same encoded form; a
// clause settled without reading a row — from a frame-of-reference header,
// a bit-packed width, or run by run — does not ask at all.
func (p *Partition) FirstTouch(c int) *EncodedCol {
	if p.enc == nil {
		return nil
	}
	e := p.enc[c]
	if e == nil {
		return nil
	}
	lc := &p.lazy[c]
	if lc.touched.Load() {
		return nil
	}
	lc.touched.Store(true)
	return e
}

// SizeBytes estimates the decoded (logical) footprint of the partition:
// 8 bytes per numeric cell and 4 per categorical cell, whether or not a
// column is currently held encoded: a source's TotalBytes, which raw and
// encoded stores report alike.
func (p *Partition) SizeBytes() int {
	n := 0
	for _, col := range p.Num {
		n += 8 * len(col)
	}
	for _, col := range p.Cat {
		n += 4 * len(col)
	}
	for _, e := range p.enc {
		if e == nil {
			continue
		}
		if e.IsNumeric() {
			n += 8 * e.Rows
		} else {
			n += 4 * e.Rows
		}
	}
	return n
}

// EncodedSizeBytes is the resident footprint the partition cache charges:
// decoded columns at full width plus encoded columns at their wire size
// (for a raw numeric view the two are the same 8 bytes a row). Decoded
// side-car slices — built for a column on the second read of its values —
// are not re-charged; DecodeStats tracks them separately.
func (p *Partition) EncodedSizeBytes() int {
	n := 0
	for _, col := range p.Num {
		n += 8 * len(col)
	}
	for _, col := range p.Cat {
		n += 4 * len(col)
	}
	for _, e := range p.enc {
		if e != nil {
			n += e.EncodedBytes()
		}
	}
	return n
}

// MakePartition assembles a partition directly from decoded column data,
// validating it against the schema: the decode path for external storage
// formats (internal/store) that reconstruct partitions outside this
// package. num and cat must each have one entry per schema column, with
// data only on the matching side and every populated slice holding exactly
// rows values.
func MakePartition(s *Schema, id, rows int, num [][]float64, cat [][]uint32) (*Partition, error) {
	if rows < 0 {
		return nil, fmt.Errorf("table: partition %d has negative row count %d", id, rows)
	}
	if len(num) != s.NumCols() || len(cat) != s.NumCols() {
		return nil, fmt.Errorf("table: partition %d has %d numeric / %d categorical columns, schema has %d",
			id, len(num), len(cat), s.NumCols())
	}
	for c, col := range s.Cols {
		want, got := rows, len(num[c])
		other := len(cat[c])
		if !col.IsNumeric() {
			got, other = len(cat[c]), len(num[c])
		}
		if got != want || other != 0 {
			return nil, fmt.Errorf("table: partition %d column %q has %d values for %d rows",
				id, col.Name, got, want)
		}
	}
	return &Partition{ID: id, Num: num, Cat: cat, rows: rows}, nil
}

// Builder accumulates rows into partitions of a fixed target size and
// produces a Table. It is the ingest path: datasets append rows in arrival
// order, and a partition is sealed (and becomes immutable) when it reaches
// rowsPerPart rows.
type Builder struct {
	schema      *Schema
	dict        *Dict
	rowsPerPart int
	parts       []*Partition
	cur         *Partition
}

// NewBuilder returns a Builder producing partitions of rowsPerPart rows.
func NewBuilder(s *Schema, rowsPerPart int) (*Builder, error) {
	if rowsPerPart <= 0 {
		return nil, fmt.Errorf("table: rowsPerPart must be positive, got %d", rowsPerPart)
	}
	return &Builder{schema: s, dict: NewDict(), rowsPerPart: rowsPerPart}, nil
}

// Append adds one row. num[c] is consulted for numeric columns and cat[c]
// (a string) for categorical columns; the other entry is ignored.
func (b *Builder) Append(num []float64, cat []string) error {
	if len(num) != b.schema.NumCols() || len(cat) != b.schema.NumCols() {
		return fmt.Errorf("table: row width %d/%d does not match schema width %d",
			len(num), len(cat), b.schema.NumCols())
	}
	if b.cur == nil {
		b.cur = NewPartition(b.schema)
		b.cur.ID = len(b.parts)
	}
	p := b.cur
	for c, col := range b.schema.Cols {
		if col.IsNumeric() {
			p.Num[c] = append(p.Num[c], num[c])
		} else {
			p.Cat[c] = append(p.Cat[c], b.dict.Code(cat[c]))
		}
	}
	p.rows++
	if p.rows >= b.rowsPerPart {
		b.parts = append(b.parts, p)
		b.cur = nil
	}
	return nil
}

// Finish seals any pending partition and returns the completed Table. The
// builder must not be reused afterwards.
func (b *Builder) Finish() *Table {
	if b.cur != nil && b.cur.rows > 0 {
		b.parts = append(b.parts, b.cur)
		b.cur = nil
	}
	return &Table{Schema: b.schema, Dict: b.dict, Parts: b.parts}
}

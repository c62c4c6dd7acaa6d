package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"ps3/internal/fault"
	"ps3/internal/table"
)

// WriteOptions configures the store writer.
type WriteOptions struct {
	// Hints, when non-nil, supplies pre-computed per-partition column
	// statistics (from internal/stats) to the encoding chooser so it can
	// skip scans. Hints must be exact for the block; they prune work but
	// never change the chosen encoding. part is the partition's index in
	// t.Parts, col the schema column index.
	Hints func(part, col int) (ColHint, bool)
}

// WriteWith streams t to w in the paged store format (encoded column blocks)
// and returns the number of bytes written. The stream is written strictly
// forward — header, one block per partition, footer, trailer — so w needs
// no seeking.
func WriteWith(w io.Writer, t *table.Table, opts WriteOptions) (int64, error) {
	cw := &countingWriter{w: w}

	var header [headerSize]byte
	copy(header[:], headerMagic)
	binary.LittleEndian.PutUint32(header[len(headerMagic):], formatVersionEncoded)
	if _, err := cw.Write(header[:]); err != nil {
		return cw.n, fmt.Errorf("store: write header: %w", err)
	}

	footer := footerWire{
		Cols:     t.Schema.Cols,
		DictVals: t.Dict.Values(),
		Blocks:   make([]blockWire, 0, len(t.Parts)),
	}
	var buf []byte
	for pi, p := range t.Parts {
		var hint func(col int) (ColHint, bool)
		if opts.Hints != nil {
			hint = func(col int) (ColHint, bool) { return opts.Hints(pi, col) }
		}
		buf = encodeBlockV2(buf[:0], t.Schema, p, hint)
		footer.Blocks = append(footer.Blocks, blockWire{
			Offset: cw.n,
			Length: int64(len(buf)),
			Rows:   int64(p.Rows()),
			CRC:    crc32.Checksum(buf, crcTable),
		})
		if _, err := cw.Write(buf); err != nil {
			return cw.n, fmt.Errorf("store: write partition %d: %w", p.ID, err)
		}
	}

	var fbuf bytes.Buffer
	if err := gob.NewEncoder(&fbuf).Encode(&footer); err != nil {
		return cw.n, fmt.Errorf("store: encode footer: %w", err)
	}
	if _, err := cw.Write(fbuf.Bytes()); err != nil {
		return cw.n, fmt.Errorf("store: write footer: %w", err)
	}

	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(fbuf.Len()))
	binary.LittleEndian.PutUint32(trailer[8:12], crc32.Checksum(fbuf.Bytes(), crcTable))
	copy(trailer[12:], trailerMagic)
	if _, err := cw.Write(trailer[:]); err != nil {
		return cw.n, fmt.Errorf("store: write trailer: %w", err)
	}
	return cw.n, nil
}

// WriteFileFS writes t to path in the paged store format through the
// filesystem seam fsys (fault.OS, or an injector that fails or tears the
// writes).
func WriteFileFS(fsys fault.FS, path string, t *table.Table, opts WriteOptions) (int64, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := WriteWith(f, t, opts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// countingWriter tracks bytes written.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

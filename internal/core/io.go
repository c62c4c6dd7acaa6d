package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"ps3/internal/picker"
	"ps3/internal/stats"
	"ps3/internal/table"
)

// This file persists a trained System as one self-describing snapshot: the
// statistics store plus the trained picker (and optional LSS baseline) plus
// the options they were built with. Together with the separately-persisted
// table data (a store file, store.Write), a snapshot is everything a serving
// process needs to cold-start: OpenSnapshot restores a System that produces
// bit-identical Pick selections and Run answers to the in-process trained
// one, with zero retraining (the deployment model of Fig 1, §2.3.1).
//
// Layout: a single gob stream holding systemWire. The inner stores keep
// their own formats (stats/io.go, picker/io.go) and are nested as opaque
// byte blobs, so each layer versions and validates independently.

// snapshotMagic identifies a PS3 system snapshot.
const snapshotMagic = "PS3SNAPSHOT"

// snapshotVersion is bumped on incompatible changes to systemWire.
const snapshotVersion = 1

// systemWire is the serialized form of a trained System (minus the table
// data, which is persisted separately and re-bound at open).
type systemWire struct {
	Magic   string
	Version int
	Opts    Options
	Stats   []byte
	Picker  []byte // empty when the system was never trained
	LSS     []byte // empty when no LSS baseline was fitted
}

// WriteTo serializes the system — options, statistics store, trained picker
// and LSS baseline — to w. The table data is not included: it is persisted
// separately (and may be far larger, or live in a different store entirely).
func (s *System) WriteTo(w io.Writer) (int64, error) {
	wire := systemWire{Magic: snapshotMagic, Version: snapshotVersion, Opts: s.Opts}
	var buf bytes.Buffer
	if _, err := s.Stats.WriteTo(&buf); err != nil {
		return 0, fmt.Errorf("core: snapshot stats: %w", err)
	}
	wire.Stats = append([]byte(nil), buf.Bytes()...)
	if s.Picker != nil {
		buf.Reset()
		if _, err := s.Picker.WriteTo(&buf); err != nil {
			return 0, fmt.Errorf("core: snapshot picker: %w", err)
		}
		wire.Picker = append([]byte(nil), buf.Bytes()...)
	}
	if s.LSS != nil {
		buf.Reset()
		if _, err := s.LSS.WriteTo(&buf); err != nil {
			return 0, fmt.Errorf("core: snapshot lss: %w", err)
		}
		wire.LSS = append([]byte(nil), buf.Bytes()...)
	}
	cw := &countingWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(&wire); err != nil {
		return cw.n, fmt.Errorf("core: encode snapshot: %w", err)
	}
	return cw.n, nil
}

// OpenSnapshot restores a System from a snapshot written with WriteTo and
// binds it to src, the partition source holding the data the system was
// built on — a resident *table.Table, or a paged store reader for
// out-of-core serving where only picked partitions are ever loaded. The
// statistics store is validated against the source (as in NewFromStats) and
// the picker against the store's feature space, so a snapshot cannot
// silently open against the wrong data. A snapshot of a trained system
// opens trained: no call to Train is needed before Run.
func OpenSnapshot(r io.Reader, src table.PartitionSource) (*System, error) {
	var wire systemWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if wire.Magic != snapshotMagic {
		return nil, fmt.Errorf("core: not a PS3 system snapshot (magic %q)", wire.Magic)
	}
	if wire.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this build reads %d", wire.Version, snapshotVersion)
	}
	if len(wire.Stats) == 0 {
		return nil, fmt.Errorf("core: corrupt snapshot: missing statistics store")
	}
	ts, err := stats.ReadStats(bytes.NewReader(wire.Stats))
	if err != nil {
		return nil, err
	}
	sys, err := NewFromStats(src, ts, wire.Opts)
	if err != nil {
		return nil, err
	}
	if len(wire.Picker) != 0 {
		p, err := picker.ReadPicker(bytes.NewReader(wire.Picker), ts)
		if err != nil {
			return nil, err
		}
		sys.Picker = p
	}
	if len(wire.LSS) != 0 {
		l, err := picker.ReadLSS(bytes.NewReader(wire.LSS), ts)
		if err != nil {
			return nil, err
		}
		sys.LSS = l
	}
	return sys, nil
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

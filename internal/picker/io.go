package picker

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"ps3/internal/gbt"
	"ps3/internal/stats"
)

// This file persists trained pickers. The paper trains the picker once
// offline (§2.3.1) and serves approximate queries online; persisting the
// funnel regressors, feature-selection result and LSS strata alongside the
// statistics store means a serving process cold-starts without repaying the
// one-full-scan-per-training-query offline pass. The format is versioned,
// self-describing gob, like stats/io.go.
//
// A picker is bound to a statistics store (Picker.TS); the store is
// persisted separately (stats.TableStats.WriteTo), so restore takes the
// already-restored store and re-binds to it. core.System.WriteTo bundles
// both.

// pickerWireVersion is bumped on incompatible changes to pickerWire.
const pickerWireVersion = 1

// lssWireVersion is bumped on incompatible changes to lssWire.
const lssWireVersion = 1

// pickerWire is the serialized form of a trained Picker. Excluded kinds are
// stored as a sorted slice: gob decodes empty maps as nil, and a slice keeps
// the encoding deterministic.
type pickerWire struct {
	Version    int
	Cfg        Config
	Regs       []gbt.ModelSnapshot
	Thresholds []float64
	Excluded   []stats.Kind
}

// WriteTo serializes the trained picker (config, funnel regressors with
// thresholds, and the feature-selection exclusion set) to w.
func (p *Picker) WriteTo(w io.Writer) (int64, error) {
	wire := pickerWire{
		Version:    pickerWireVersion,
		Cfg:        p.Cfg,
		Thresholds: p.Thresholds,
	}
	for _, m := range p.Regs {
		wire.Regs = append(wire.Regs, m.Snapshot())
	}
	//lint:mapiter-ok collected keys are fully sorted below before encoding
	for k := range p.Excluded {
		if p.Excluded[k] {
			wire.Excluded = append(wire.Excluded, k)
		}
	}
	sort.Slice(wire.Excluded, func(a, b int) bool { return wire.Excluded[a] < wire.Excluded[b] })
	cw := &countingWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(&wire); err != nil {
		return cw.n, fmt.Errorf("picker: encode: %w", err)
	}
	return cw.n, nil
}

// ReadPicker deserializes a picker written with WriteTo and binds it to ts,
// the statistics store it was trained against. Funnel models are validated
// against the store's feature dimension, so a picker cannot be rebound to a
// store with a different feature space.
func ReadPicker(r io.Reader, ts *stats.TableStats) (*Picker, error) {
	if ts == nil || ts.Space == nil {
		return nil, fmt.Errorf("picker: cannot restore against a nil or spaceless statistics store")
	}
	var wire pickerWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("picker: decode: %w", err)
	}
	if wire.Version != pickerWireVersion {
		return nil, fmt.Errorf("picker: snapshot version %d, this build reads %d", wire.Version, pickerWireVersion)
	}
	if len(wire.Thresholds) != len(wire.Regs) {
		return nil, fmt.Errorf("picker: corrupt snapshot: %d thresholds for %d funnel stages",
			len(wire.Thresholds), len(wire.Regs))
	}
	p := &Picker{Cfg: wire.Cfg, TS: ts, Thresholds: wire.Thresholds, Excluded: map[stats.Kind]bool{}, tables: &funnelTables{}}
	for stage, ms := range wire.Regs {
		m, err := gbt.FromSnapshot(ms)
		if err != nil {
			return nil, fmt.Errorf("picker: funnel stage %d: %w", stage, err)
		}
		if m.Dim() != ts.Space.Dim() {
			return nil, fmt.Errorf("picker: funnel stage %d was trained on %d features, store has %d",
				stage, m.Dim(), ts.Space.Dim())
		}
		p.Regs = append(p.Regs, m)
	}
	for _, k := range wire.Excluded {
		if !k.Valid() {
			return nil, fmt.Errorf("picker: corrupt snapshot: unknown excluded feature kind %d", k)
		}
		p.Excluded[k] = true
	}
	return p, nil
}

// lssWire is the serialized form of a trained LSS baseline. The per-budget
// strata sizes are stored as sorted parallel slices for a deterministic
// encoding.
type lssWire struct {
	Version           int
	Model             gbt.ModelSnapshot
	BudgetKeys        []int
	StrataSizes       []int
	DefaultStrataSize int
	Seed              int64
}

// WriteTo serializes the trained LSS baseline (contribution regressor and
// swept per-budget strata sizes) to w.
func (l *LSS) WriteTo(w io.Writer) (int64, error) {
	wire := lssWire{
		Version:           lssWireVersion,
		Model:             l.Model.Snapshot(),
		DefaultStrataSize: l.DefaultStrataSize,
		Seed:              l.Seed,
	}
	for k := range l.StrataSize { //lint:mapiter-ok collected keys are fully sorted below before encoding
		wire.BudgetKeys = append(wire.BudgetKeys, k)
	}
	sort.Ints(wire.BudgetKeys)
	for _, k := range wire.BudgetKeys {
		wire.StrataSizes = append(wire.StrataSizes, l.StrataSize[k])
	}
	cw := &countingWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(&wire); err != nil {
		return cw.n, fmt.Errorf("picker: encode lss: %w", err)
	}
	return cw.n, nil
}

// ReadLSS deserializes an LSS baseline written with WriteTo and binds it to
// ts, the statistics store it was trained against.
func ReadLSS(r io.Reader, ts *stats.TableStats) (*LSS, error) {
	if ts == nil || ts.Space == nil {
		return nil, fmt.Errorf("picker: cannot restore lss against a nil or spaceless statistics store")
	}
	var wire lssWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("picker: decode lss: %w", err)
	}
	if wire.Version != lssWireVersion {
		return nil, fmt.Errorf("picker: lss snapshot version %d, this build reads %d", wire.Version, lssWireVersion)
	}
	if len(wire.BudgetKeys) != len(wire.StrataSizes) {
		return nil, fmt.Errorf("picker: corrupt lss snapshot: %d budget keys for %d strata sizes",
			len(wire.BudgetKeys), len(wire.StrataSizes))
	}
	m, err := gbt.FromSnapshot(wire.Model)
	if err != nil {
		return nil, fmt.Errorf("picker: lss regressor: %w", err)
	}
	if m.Dim() != ts.Space.Dim() {
		return nil, fmt.Errorf("picker: lss regressor was trained on %d features, store has %d",
			m.Dim(), ts.Space.Dim())
	}
	l := &LSS{
		TS:                ts,
		Model:             m,
		StrataSize:        make(map[int]int, len(wire.BudgetKeys)),
		DefaultStrataSize: wire.DefaultStrataSize,
		Seed:              wire.Seed,
	}
	for i, k := range wire.BudgetKeys {
		l.StrataSize[k] = wire.StrataSizes[i]
	}
	return l, nil
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

package stats

import (
	"reflect"
	"testing"

	"ps3/internal/dataset"
	"ps3/internal/table"
)

// extendFixture builds stats over the first split partitions of a dataset
// table and hands back the remaining partitions (whose IDs are already the
// global positions the extension requires).
func extendFixture(t *testing.T, split int) (*TableStats, []*table.Partition, *table.Table) {
	t.Helper()
	ds, err := dataset.Aria(dataset.Config{Rows: 6000, Parts: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := &table.Table{Schema: ds.Table.Schema, Dict: ds.Table.Dict, Parts: ds.Table.Parts[:split]}
	ts, err := Build(base, Options{GroupableCols: ds.Workload.GroupableCols})
	if err != nil {
		t.Fatal(err)
	}
	return ts, ds.Table.Parts[split:], ds.Table
}

// TestExtendedWithSharesBase pins the sharing contract: old partition
// sketches by pointer, the fitted feature space and frozen global heavy
// hitters by identity, and the base matrix extended without retouching the
// existing rows.
func TestExtendedWithSharesBase(t *testing.T) {
	ts, rest, _ := extendFixture(t, 8)
	ext, err := ts.ExtendedWith(nil, rest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Parts) != len(ts.Parts)+len(rest) {
		t.Fatalf("extension has %d partitions, want %d", len(ext.Parts), len(ts.Parts)+len(rest))
	}
	for i := range ts.Parts {
		if ext.Parts[i] != ts.Parts[i] {
			t.Fatalf("partition %d stats were copied, want shared pointer", i)
		}
	}
	if ext.Space != ts.Space {
		t.Fatal("feature space must be shared by identity (picker rebind depends on it)")
	}
	if !reflect.DeepEqual(ext.GlobalHH, ts.GlobalHH) {
		t.Fatal("global heavy hitters must stay frozen at the base build")
	}
	m := ts.Space.Dim()
	if !reflect.DeepEqual(ext.base[:len(ts.Parts)*m], ts.base) {
		t.Fatal("existing base-matrix rows changed during extension")
	}
	if len(ext.base) != len(ext.Parts)*m {
		t.Fatalf("base matrix has %d values, want %d", len(ext.base), len(ext.Parts)*m)
	}
	// ts itself untouched.
	if len(ts.Parts) != 8 || len(ts.base) != 8*m {
		t.Fatal("extension mutated the receiver")
	}
}

// TestExtendedWithIncrementalConsistency: extending one partition at a time
// must land bit-identically with extending all at once — the property that
// lets the ingest pipeline cut segments at arbitrary flush boundaries.
func TestExtendedWithIncrementalConsistency(t *testing.T) {
	ts, rest, _ := extendFixture(t, 8)
	all, err := ts.ExtendedWith(nil, rest, 0)
	if err != nil {
		t.Fatal(err)
	}
	step := ts
	for _, p := range rest {
		if step, err = step.ExtendedWith(nil, []*table.Partition{p}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(step.base, all.base) {
		t.Fatal("one-at-a-time extension diverges from all-at-once in the base matrix")
	}
	for i := range all.Parts {
		if !reflect.DeepEqual(step.Parts[i].Bitmap, all.Parts[i].Bitmap) {
			t.Fatalf("partition %d bitmap diverges between extension orders", i)
		}
	}
}

// TestExtendedWithDuplicatePartition: re-appending a copy of an existing
// partition must reproduce its feature row and bitmap exactly — sketches
// and features are functions of the rows and the frozen global state only.
func TestExtendedWithDuplicatePartition(t *testing.T) {
	ts, _, full := extendFixture(t, 8)
	dup := *full.Parts[3]
	dup.ID = len(ts.Parts)
	ext, err := ts.ExtendedWith(nil, []*table.Partition{&dup}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ts.Space.Dim()
	origRow := ts.base[3*m : 4*m]
	dupRow := ext.base[len(ts.Parts)*m : (len(ts.Parts)+1)*m]
	if !reflect.DeepEqual(origRow, dupRow) {
		t.Fatal("duplicated partition's feature row differs from the original")
	}
	if !reflect.DeepEqual(ext.Parts[len(ts.Parts)].Bitmap, ts.Parts[3].Bitmap) {
		t.Fatal("duplicated partition's heavy-hitter bitmap differs from the original")
	}
}

// TestExtendedWithParallelismInvariance: the extension must be bit-identical
// at any parallelism (determinism contract of the whole codebase).
func TestExtendedWithParallelismInvariance(t *testing.T) {
	ts, rest, _ := extendFixture(t, 8)
	seq, err := ts.ExtendedWith(nil, rest, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ts.ExtendedWith(nil, rest, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.base, par.base) {
		t.Fatal("base matrix depends on parallelism")
	}
	for i := range seq.Parts {
		if !reflect.DeepEqual(seq.Parts[i].Bitmap, par.Parts[i].Bitmap) {
			t.Fatalf("partition %d bitmap depends on parallelism", i)
		}
	}
}

func TestExtendedWithRejectsMisnumberedPartition(t *testing.T) {
	ts, rest, _ := extendFixture(t, 8)
	bad := *rest[0]
	bad.ID = 99
	if _, err := ts.ExtendedWith(nil, []*table.Partition{&bad}, 1); err == nil {
		t.Fatal("partition with non-positional ID must be rejected")
	}
}

// TestExtendedWithCarriesNormalized checks that a store extended from one
// whose normalized matrix is built starts with its own — published before
// any read, bit for bit the normalization of the extended base — that a
// store extended from one without it builds it on first use instead, and
// that a new scale replaces it.
func TestExtendedWithCarriesNormalized(t *testing.T) {
	ts, rest, _ := extendFixture(t, 8)
	plain, err := ts.ExtendedWith(nil, rest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.norm.Load() != nil {
		t.Fatal("extension of a store without a normalized matrix published one")
	}
	nv := ts.Normalized()
	ext, err := ts.ExtendedWith(nil, rest, 0)
	if err != nil {
		t.Fatal(err)
	}
	carried := ext.norm.Load()
	if carried == nil {
		t.Fatal("extension did not carry the normalized matrix")
	}
	if ext.Normalized() != carried {
		t.Fatal("the carried matrix was rebuilt on first read")
	}
	if fresh := plain.Normalized(); !reflect.DeepEqual(carried.Vals, fresh.Vals) {
		t.Fatal("carried normalized matrix differs from the one built from scratch")
	}
	if !reflect.DeepEqual(carried.Vals[:len(nv.Vals)], nv.Vals) {
		t.Fatal("carried rows differ from the base store's")
	}
	ts.Space.Scale = make([]float64, ts.Space.Dim())
	for j := range ts.Space.Scale {
		ts.Space.Scale[j] = 2
	}
	if ext.Normalized() == carried {
		t.Fatal("a new scale kept the matrix of the old one")
	}
}

package core

import (
	"reflect"
	"testing"

	"ps3/internal/dataset"
	"ps3/internal/query"
	"ps3/internal/stats"
	"ps3/internal/table"
)

// TestRebindCarriesTrainedPicker: the publish step must keep the trained
// picker and LSS working over the extended stats without retraining, and
// the rebound system must answer queries over the grown partition set.
func TestRebindCarriesTrainedPicker(t *testing.T) {
	ds, err := dataset.Aria(dataset.Config{Rows: 8000, Parts: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := &table.Table{Schema: ds.Table.Schema, Dict: ds.Table.Dict, Parts: ds.Table.Parts[:15]}
	sys, ts, queries := trainedOver(t, base, ds)

	ext, err := ts.ExtendedWith(nil, ds.Table.Parts[15:], 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := sys.Rebind(ds.Table, ext)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Picker == nil {
		t.Fatal("rebind dropped the trained picker")
	}
	if grown.Picker == sys.Picker {
		t.Fatal("rebind must copy the picker, not alias it (the original keeps its stats binding)")
	}
	if grown.Picker.TS != ext {
		t.Fatal("rebound picker still reads the old stats")
	}
	if sys.Picker.TS != ts {
		t.Fatal("rebind mutated the original system's picker")
	}
	for _, q := range queries {
		res, err := grown.Run(q, 0.25)
		if err != nil {
			t.Fatalf("Run over rebound system: %v", err)
		}
		if res.PartsRead == 0 && len(res.Values) > 0 {
			t.Fatal("rebound system answered without reading partitions")
		}
	}
	// Exact answers over the rebound system see all 20 partitions.
	if grown.Source.NumParts() != 20 {
		t.Fatalf("rebound source has %d partitions, want 20", grown.Source.NumParts())
	}
}

// TestRebindRejectsForeignStats: stats built independently have their own
// feature space; silently rebinding a picker to them would misread every
// slot, so Rebind must refuse.
func TestRebindRejectsForeignStats(t *testing.T) {
	ds, err := dataset.Aria(dataset.Config{Rows: 4000, Parts: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sys, _, _ := trainedOver(t, ds.Table, ds)
	foreign, err := stats.Build(ds.Table, stats.Options{GroupableCols: ds.Workload.GroupableCols})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Rebind(ds.Table, foreign); err == nil {
		t.Fatal("rebind to independently built stats must be rejected")
	}
}

// trainedOver builds and trains a system over tbl using ds's workload.
func trainedOver(t *testing.T, tbl *table.Table, ds *dataset.Dataset) (*System, *stats.TableStats, []*query.Query) {
	t.Helper()
	sys, err := New(tbl, Options{Workload: ds.Workload, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, tbl, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(gen.SampleN(15), nil); err != nil {
		t.Fatal(err)
	}
	return sys, sys.Stats, gen.SampleN(6)
}

// TestRebindFoldsItsOwnFunnelTables: the picker's fold tables belong to one
// (picker, statistics) binding. A system rebound to statistics extended by
// five partitions must fold tables over the extended base matrix — sharing
// the parent's holder would score partition 19 from 15 rows' worth of words
// — so its batched picks equal the reference over picks that select new
// partitions, its tables are the parent's scaled by 20/15, and the parent's
// tables and picks do not move. A snapshot round trip of the rebound system
// picks bit-identically.
func TestRebindFoldsItsOwnFunnelTables(t *testing.T) {
	ds, err := dataset.Aria(dataset.Config{Rows: 8000, Parts: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := &table.Table{Schema: ds.Table.Schema, Dict: ds.Table.Dict, Parts: ds.Table.Parts[:15]}
	sys, ts, queries := trainedOver(t, base, ds)
	pick := func(s *System, q *query.Query, n int) []query.WeightedPartition {
		t.Helper()
		sel, _, err := s.PickParts(q, n)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	var before [][]query.WeightedPartition
	for _, q := range queries {
		before = append(before, pick(sys, q, 4))
	}
	parentBytes := sys.Picker.TableBytes()
	if parentBytes == 0 {
		t.Fatal("the parent's first batched picks built no fold tables")
	}

	ext, err := ts.ExtendedWith(nil, ds.Table.Parts[15:], 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := sys.Rebind(ds.Table, ext)
	if err != nil {
		t.Fatal(err)
	}
	if got := grown.Picker.TableBytes(); got != 0 {
		t.Fatalf("a rebound picker starts with %d table bytes, want 0 (tables are built by the first pick, not at Rebind)", got)
	}
	back := restoreFresh(t, grown)
	picksNew := false
	for _, q := range queries {
		feats := ext.Features(q)
		for _, n := range []int{4, 9} {
			got := pick(grown, q, n)
			ref := grown.Picker.PickReference(q, feats, n, grown.pickRNG(q))
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("query %s budget %d: rebound PickBatch diverges from PickReference\nref: %v\ngot: %v", q, n, ref, got)
			}
			if restored := pick(back, q, n); !reflect.DeepEqual(got, restored) {
				t.Fatalf("query %s budget %d: snapshot round trip of the rebound system picks differently", q, n)
			}
			for _, wp := range got {
				picksNew = picksNew || wp.Part >= 15
			}
		}
	}
	if !picksNew {
		t.Fatal("no pick over the extended statistics selected a new partition; the fixture does not exercise the extension")
	}
	if got, want := grown.Picker.TableBytes(), parentBytes/15*20; got != want {
		t.Fatalf("rebound tables hold %d bytes, want the parent's %d scaled from 15 to 20 partitions = %d", got, parentBytes, want)
	}
	if got := sys.Picker.TableBytes(); got != parentBytes {
		t.Fatalf("rebinding changed the parent's tables: %d bytes, was %d", got, parentBytes)
	}
	for i, q := range queries {
		if after := pick(sys, q, 4); !reflect.DeepEqual(before[i], after) {
			t.Fatalf("query %s: the parent system's pick changed after a rebind", q)
		}
	}
}

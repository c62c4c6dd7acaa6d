package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ps3/internal/dataset"
	"ps3/internal/query"
	"ps3/internal/store"
	"ps3/internal/table"
)

// restoreFresh round-trips both the table and the system snapshot through
// bytes, simulating a cold start in a fresh process: nothing is shared with
// the original but the serialized artifacts.
func restoreFresh(t *testing.T, sys *System) *System {
	t.Helper()
	var snapBuf bytes.Buffer
	if _, err := sys.WriteTo(&snapBuf); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(&snapBuf, decodedCopy(t, sys.Table))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// decodedCopy round-trips tbl through store bytes and rebuilds every
// partition decoded, into slices of its own. The copy stays a resident
// table of decoded columns, like tbl: Reader.Materialize alone would hand
// back encoded partitions.
func decodedCopy(t testing.TB, tbl *table.Table) *table.Table {
	t.Helper()
	var buf bytes.Buffer
	if _, err := store.WriteWith(&buf, tbl, store.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := store.NewReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	out := &table.Table{Schema: enc.Schema, Dict: enc.Dict}
	for _, p := range enc.Parts {
		n, c := p.DecodedCols()
		num, cat := make([][]float64, len(n)), make([][]uint32, len(c))
		for i := range n {
			num[i], cat[i] = slices.Clone(n[i]), slices.Clone(c[i])
		}
		dp, err := table.MakePartition(enc.Schema, p.ID, p.Rows(), num, cat)
		if err != nil {
			t.Fatal(err)
		}
		out.Parts = append(out.Parts, dp)
	}
	return out
}

func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	sys, _, test := buildSystem(t, 25)
	back := restoreFresh(t, sys)
	if back.Picker == nil {
		t.Fatal("restored system is not trained")
	}

	for _, q := range test {
		for _, budget := range []float64{0.05, 0.2, 0.5} {
			selA, err := sys.Pick(q, budget)
			if err != nil {
				t.Fatal(err)
			}
			selB, err := back.Pick(q, budget)
			if err != nil {
				t.Fatal(err)
			}
			if len(selA) != len(selB) {
				t.Fatalf("query %s budget %v: %d vs %d partitions picked", q, budget, len(selA), len(selB))
			}
			for i := range selA {
				if selA[i] != selB[i] {
					t.Fatalf("query %s budget %v: selection %d differs: %+v vs %+v", q, budget, i, selA[i], selB[i])
				}
			}

			resA, err := sys.Run(q, budget)
			if err != nil {
				t.Fatal(err)
			}
			resB, err := back.Run(q, budget)
			if err != nil {
				t.Fatal(err)
			}
			if len(resA.Values) != len(resB.Values) {
				t.Fatalf("query %s budget %v: %d vs %d groups", q, budget, len(resA.Values), len(resB.Values))
			}
			for g, va := range resA.Values {
				vb, ok := resB.Values[g]
				if !ok {
					t.Fatalf("query %s budget %v: group %q missing after restore", q, budget, resA.Labels[g])
				}
				for j := range va {
					if va[j] != vb[j] {
						t.Fatalf("query %s budget %v group %q agg %d: %v vs %v (must be bit-identical)",
							q, budget, resA.Labels[g], j, va[j], vb[j])
					}
				}
			}
		}
	}
}

// TestSnapshotStoreBacked opens a snapshot over a paged store reader: Run
// must produce bit-identical answers to the resident restore, and the
// training entry points must refuse (training is a full-scan workload that
// belongs on materialized data).
func TestSnapshotStoreBacked(t *testing.T) {
	sys, _, test := buildSystem(t, 25)
	var storeBuf, snapBuf bytes.Buffer
	if _, err := store.WriteWith(&storeBuf, sys.Table, store.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WriteTo(&snapBuf); err != nil {
		t.Fatal(err)
	}
	r, err := store.NewReaderAt(bytes.NewReader(storeBuf.Bytes()), int64(storeBuf.Len()), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(&snapBuf, r)
	if err != nil {
		t.Fatal(err)
	}
	if back.Table != nil {
		t.Fatal("store-backed restore must not claim a resident table")
	}
	for _, q := range test[:4] {
		want, err := sys.Run(q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Run(q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Values) != len(got.Values) {
			t.Fatalf("query %s: %d vs %d groups", q, len(want.Values), len(got.Values))
		}
		for g, wv := range want.Values {
			gv, ok := got.Values[g]
			if !ok {
				t.Fatalf("query %s: group %q missing from store-backed run", q, want.Labels[g])
			}
			for j := range wv {
				if wv[j] != gv[j] {
					t.Fatalf("query %s group %q agg %d: %v vs %v", q, want.Labels[g], j, wv[j], gv[j])
				}
			}
		}
		exactWant, err := sys.RunExact(q)
		if err != nil {
			t.Fatal(err)
		}
		exactGot, err := back.RunExact(q)
		if err != nil {
			t.Fatal(err)
		}
		for g, wv := range exactWant.Values {
			gv := exactGot.Values[g]
			for j := range wv {
				if wv[j] != gv[j] {
					t.Fatalf("query %s exact group %q agg %d: %v vs %v", q, exactWant.Labels[g], j, wv[j], gv[j])
				}
			}
		}
	}
	// An exact scan reads around the partition cache: it must not evict
	// (or populate) the approximate-serving working set. Its loads do take
	// and return block buffers, which is all the buffer counters say.
	cacheOnly := func(cs store.CacheStats) store.CacheStats {
		cs.BufferReuses, cs.BufferAllocs = 0, 0
		return cs
	}
	before := cacheOnly(r.CacheStats())
	if _, err := back.RunExact(test[0]); err != nil {
		t.Fatal(err)
	}
	if after := cacheOnly(r.CacheStats()); after != before {
		t.Fatalf("RunExact disturbed the partition cache: %+v -> %+v", before, after)
	}
	if err := back.Train(test, nil); err == nil || !strings.Contains(err.Error(), "resident") {
		t.Fatalf("Train on a paged system: err = %v, want resident-table error", err)
	}
	if _, err := back.MakeExample(test[0]); err == nil {
		t.Fatal("MakeExample on a paged system should fail")
	}
}

func TestSnapshotRoundTripWithLSS(t *testing.T) {
	ds, err := dataset.Aria(dataset.Config{Rows: 8000, Parts: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(ds.Table, Options{Workload: ds.Workload, TrainLSS: true,
		LSSBudgets: []float64{0.2, 0.5}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, ds.Table, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(gen.SampleN(15), nil); err != nil {
		t.Fatal(err)
	}
	back := restoreFresh(t, sys)
	if back.LSS == nil {
		t.Fatal("LSS baseline lost in round trip")
	}
	if len(back.LSS.StrataSize) != len(sys.LSS.StrataSize) {
		t.Fatalf("LSS strata: %d entries, want %d", len(back.LSS.StrataSize), len(sys.LSS.StrataSize))
	}
}

func TestSnapshotUntrainedSystem(t *testing.T) {
	ds, err := dataset.Aria(dataset.Config{Rows: 4000, Parts: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(ds.Table, Options{Workload: ds.Workload, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	back := restoreFresh(t, sys)
	if back.Picker != nil || back.LSS != nil {
		t.Fatal("untrained snapshot came back trained")
	}
	// Still usable: train after restore.
	gen, err := query.NewGenerator(ds.Workload, back.Table, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Train(gen.SampleN(8), nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpenSnapshotRejectsGarbageAndMismatch(t *testing.T) {
	sys, ds, _ := buildSystem(t, 10)
	if _, err := OpenSnapshot(bytes.NewReader([]byte("not a snapshot")), ds.Table); err == nil {
		t.Fatal("want error decoding garbage")
	}
	var snap bytes.Buffer
	if _, err := sys.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	// Opening against a table with a different partition count must fail.
	other, err := ds.WithPartitions(25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(bytes.NewReader(snap.Bytes()), other.Table); err == nil {
		t.Fatal("want error for partition-count mismatch")
	}
	// ... and against a different schema entirely.
	kdd, err := dataset.KDD(dataset.Config{Rows: 5000, Parts: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(bytes.NewReader(snap.Bytes()), kdd.Table); err == nil {
		t.Fatal("want error for schema mismatch")
	}
}

// TestPickSeedDistinguishesEqualLengthQueries is the regression test for the
// seed-collision bug: the RNG used to be seeded with Seed ^ len(q.String()),
// so every equal-length query shared one randomness stream.
func TestPickSeedDistinguishesEqualLengthQueries(t *testing.T) {
	sys, _, _ := buildSystem(t, 20)
	// Two structurally different queries with identical text length.
	qa := &query.Query{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("olsize")}}}
	qb := &query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Expr: query.Col("olsize")}}}
	if len(qa.String()) != len(qb.String()) {
		t.Fatalf("test queries must have equal-length text: %q vs %q", qa, qb)
	}
	ra := sys.pickRNG(qa)
	rb := sys.pickRNG(qb)
	same := true
	for i := 0; i < 16; i++ {
		if ra.Int63() != rb.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("equal-length queries %q and %q share a randomness stream", qa, qb)
	}
}

// TestPickDeterministicPerQuery asserts the flip side: the same query always
// gets the same stream, so repeated picks are reproducible.
func TestPickDeterministicPerQuery(t *testing.T) {
	sys, _, test := buildSystem(t, 20)
	for _, q := range test[:4] {
		a, err := sys.Pick(q, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Pick(q, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %s: repeated picks differ in size: %d vs %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %s: repeated pick entry %d differs: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

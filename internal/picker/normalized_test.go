package picker

import (
	"math"
	"math/rand"
	"testing"

	"ps3/internal/exec"
	"ps3/internal/stats"
	"ps3/internal/table"
)

// TestRankIndexFollowsExtensionAndRefit checks the rank index's life cycle
// under picks that read it: a store extended after picks built part of the
// index starts with its normalized matrix — the base rows carried, the new
// rows normalized — and picks over it equal the sorting reference and pick
// a new partition; a refit scale replaces the matrix and its index, and
// picks over the refit scale equal the reference again.
func TestRankIndexFollowsExtensionAndRefit(t *testing.T) {
	// 60 partitions, so clusters grow past the few members that always sort
	// (cluster.MedianExemplars' bitmap rule) and the picks read the index.
	full := newTestEnv(t, 60, 20, Config{Seed: 3}).tbl
	base := &table.Table{Schema: full.Schema, Dict: full.Dict, Parts: full.Parts[:48]}
	env := newEnvOver(t, base, Config{Seed: 3})
	for _, ex := range env.exs {
		env.p.PickBatch(ex.Query, 4, rand.New(rand.NewSource(1)), exec.Options{Parallelism: 1})
	}
	ext, err := env.ts.ExtendedWith(nil, full.Parts[48:], 0)
	if err != nil {
		t.Fatal(err)
	}
	checkNormalized(t, ext)
	grown := env.p.Rebound(ext)

	picksMatch := func(stage string) (picksNew bool) {
		t.Helper()
		for qi, ex := range env.exs {
			feats := ext.Features(ex.Query)
			for _, n := range []int{3, 6} {
				got := grown.PickBatch(ex.Query, n, rand.New(rand.NewSource(int64(qi*10+n))), exec.Options{Parallelism: 1})
				ref := grown.pickReference(ex.Query, feats, n, rand.New(rand.NewSource(int64(qi*10+n))))
				if !selectionsEqual(ref, got) {
					t.Fatalf("%s, query %d budget %d: PickBatch diverges from the sorting reference\nref: %v\ngot: %v", stage, qi, n, ref, got)
				}
				for _, wp := range got {
					picksNew = picksNew || wp.Part >= 48
				}
			}
		}
		return picksNew
	}
	if !picksMatch("extended") {
		t.Fatal("no pick over the extended statistics selected a new partition")
	}

	before := ext.Normalized()
	rows := make([][]float64, 0, len(env.exs))
	for _, ex := range env.exs {
		rows = append(rows, ex.Features[len(ex.Features)/2])
	}
	ext.Space.Fit(rows)
	after := ext.Normalized()
	if after == before || after.Ranks == before.Ranks {
		t.Fatal("a refit scale kept the normalized matrix and rank index of the old one")
	}
	checkNormalized(t, ext)
	picksMatch("refit")
}

// checkNormalized checks that ts's normalized matrix is its base matrix
// normalized under the current scale, bit for bit, and that a second call
// returns the same published value.
func checkNormalized(t *testing.T, ts *stats.TableStats) {
	t.Helper()
	nv := ts.Normalized()
	if ts.Normalized() != nv {
		t.Fatal("two calls under one scale returned different matrices")
	}
	m := ts.Space.Dim()
	base := ts.Base()
	if len(nv.Vals) != len(base) {
		t.Fatalf("normalized matrix holds %d values, base %d", len(nv.Vals), len(base))
	}
	for i, x := range base {
		if want := ts.Space.NormalizeValue(i%m, x); math.Float64bits(nv.Vals[i]) != math.Float64bits(want) {
			t.Fatalf("normalized value %d (partition %d, slot %d) = %v, want %v", i, i/m, i%m, nv.Vals[i], want)
		}
	}
}

package sketch

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refAKMV is the frozen AKMV that rescanned its map for the next largest
// hash on every eviction. AKMV must keep exactly its retained set,
// multiplicities and cached maximum.
type refAKMV struct {
	k       int
	entries map[uint64]int64
	maxHash uint64
	rows    int64
}

func newRefAKMV(k int) *refAKMV { return &refAKMV{k: k, entries: map[uint64]int64{}} }

func (a *refAKMV) add(h uint64) {
	a.rows++
	if c, ok := a.entries[h]; ok {
		a.entries[h] = c + 1
		return
	}
	if len(a.entries) < a.k {
		a.entries[h] = 1
		if h > a.maxHash {
			a.maxHash = h
		}
		return
	}
	if h >= a.maxHash {
		return
	}
	delete(a.entries, a.maxHash)
	a.entries[h] = 1
	a.maxHash = 0
	for e := range a.entries { //lint:mapiter-ok max over the key set is order-free
		if e > a.maxHash {
			a.maxHash = e
		}
	}
}

// sketch is the reference state as an AKMV, for its estimators.
func (a *refAKMV) sketch() *AKMV {
	return &AKMV{K: a.k, entries: a.entries, maxHash: a.maxHash, rows: a.rows}
}

// checkAgainstRef fails unless got holds the reference's retained set,
// multiplicities, cached maximum and row count, answers its estimators to
// the bit, and (while it has one) keeps its eviction index in step.
func checkAgainstRef(t *testing.T, what string, got *AKMV, ref *refAKMV) {
	t.Helper()
	if got.rows != ref.rows || got.maxHash != ref.maxHash || len(got.entries) != len(ref.entries) {
		t.Fatalf("%s: rows %d maxHash %#x retained %d, want %d %#x %d",
			what, got.rows, got.maxHash, len(got.entries), ref.rows, ref.maxHash, len(ref.entries))
	}
	for h, c := range ref.entries { //lint:mapiter-ok membership check, order-free
		if got.entries[h] != c {
			t.Fatalf("%s: hash %#x count %d, want %d", what, h, got.entries[h], c)
		}
	}
	want := ref.sketch()
	if g, w := got.DistinctEstimate(), want.DistinctEstimate(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: DistinctEstimate %v, want %v", what, g, w)
	}
	ga, gx, gn, gs := got.FreqStats()
	wa, wx, wn, ws := want.FreqStats()
	for i, p := range [][2]float64{{ga, wa}, {gx, wx}, {gn, wn}, {gs, ws}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("%s: FreqStats[%d] %v, want %v", what, i, p[0], p[1])
		}
	}
	if got.sorted != nil && !slices.Equal(got.sorted, got.hashes()) {
		t.Fatalf("%s: eviction index out of step with the retained hashes", what)
	}
}

// akmvStreams are the hash streams the equivalence tests feed: every value
// distinct, heavy duplicates (Zipf over 300 values), and raw hashes in
// descending order (every arrival evicts) including 0 and the top hash.
func akmvStreams(rng *rand.Rand) map[string][]uint64 {
	distinct := make([]uint64, 3000)
	for i := range distinct {
		distinct[i] = Hash64(uint64(i))
	}
	zipf := rand.NewZipf(rng, 1.2, 1, 299)
	dups := make([]uint64, 5000)
	for i := range dups {
		dups[i] = Hash64(zipf.Uint64())
	}
	desc := []uint64{math.MaxUint64, math.MaxUint64}
	for i := 400; i >= 0; i-- {
		desc = append(desc, uint64(i)*(math.MaxUint64/512))
	}
	return map[string][]uint64{"distinct": distinct, "duplicates": dups, "descending": desc}
}

// TestAKMVMatchesReference: the indexed eviction keeps what the map rescan
// kept, for K from 1 to 128, after every Add, and when adds resume on a
// finalized or a restored sketch.
func TestAKMVMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	streams := akmvStreams(rng)
	for _, name := range []string{"distinct", "duplicates", "descending"} {
		stream := streams[name]
		for _, k := range []int{1, 2, 16, 128} {
			a, ref := NewAKMV(k), newRefAKMV(k)
			half := len(stream) / 2
			for i, h := range stream[:half] {
				a.Add(h)
				ref.add(h)
				if i%97 == 0 {
					checkAgainstRef(t, name+" add", a, ref)
				}
			}
			checkAgainstRef(t, name+" first half", a, ref)

			for _, h := range stream[half:] {
				a.Add(h)
				ref.add(h)
			}
			checkAgainstRef(t, name+" second half", a, ref)
			for _, h := range stream[:half/2] {
				a.Add(h ^ 0x5555)
				ref.add(h ^ 0x5555)
			}
			checkAgainstRef(t, name+" re-adds", a, ref)

			// Finalized, then restored from its snapshot: neither keeps an
			// index, and adds on either still match.
			a.Finalize()
			if a.sorted != nil {
				t.Fatalf("%s k=%d: Finalize kept the eviction index", name, k)
			}
			r := AKMVFromSnapshot(a.Snapshot())
			if r.sorted != nil {
				t.Fatalf("%s k=%d: a restored sketch allocated an eviction index", name, k)
			}
			checkAgainstRef(t, name+" restored", r, ref)
			refR := &refAKMV{k: k, entries: map[uint64]int64{}, maxHash: ref.maxHash, rows: ref.rows}
			for h, c := range ref.entries { //lint:mapiter-ok map copy, order-free
				refR.entries[h] = c
			}
			for _, h := range stream[half/2 : half] {
				h ^= 0xAAAA
				a.Add(h)
				ref.add(h)
				r.Add(h)
				refR.add(h)
			}
			checkAgainstRef(t, name+" add after finalize", a, ref)
			checkAgainstRef(t, name+" add after restore", r, refR)
		}
	}
}

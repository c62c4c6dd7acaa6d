package sketch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHistogramSnapshotRequiresFinalize(t *testing.T) {
	h := NewHistogram(8)
	h.Add(1)
	if _, err := h.Snapshot(); err == nil {
		t.Fatal("want error snapshotting unsealed histogram")
	}
}

func TestHistogramSnapshotRoundTrip(t *testing.T) {
	h := NewHistogram(8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		h.Add(rng.NormFloat64() * 10)
	}
	h.Finalize()
	snap, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	back := HistogramFromSnapshot(snap)
	for _, probe := range []struct{ lo, hi float64 }{{-5, 5}, {0, 100}, {-100, -20}} {
		if a, b := h.EstimateRange(probe.lo, probe.hi), back.EstimateRange(probe.lo, probe.hi); a != b {
			t.Fatalf("EstimateRange(%v,%v) differs: %v vs %v", probe.lo, probe.hi, a, b)
		}
	}
	if !reflect.DeepEqual(h.Buckets, back.Buckets) {
		t.Fatal("buckets differ after round trip")
	}
	if h.SizeBytes() != back.SizeBytes() {
		t.Fatal("size accounting differs after round trip")
	}
}

func TestAKMVSnapshotRoundTrip(t *testing.T) {
	a := NewAKMV(32)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a.Add(Hash64(uint64(rng.Intn(300))))
	}
	back := AKMVFromSnapshot(a.Snapshot())
	if a.DistinctEstimate() != back.DistinctEstimate() {
		t.Fatalf("distinct estimate differs: %v vs %v", a.DistinctEstimate(), back.DistinctEstimate())
	}
	av1, mx1, mn1, s1 := a.FreqStats()
	av2, mx2, mn2, s2 := back.FreqStats()
	if av1 != av2 || mx1 != mx2 || mn1 != mn2 || s1 != s2 {
		t.Fatal("freq stats differ after round trip")
	}
	if a.rows != back.rows || len(a.entries) != len(back.entries) {
		t.Fatal("rows/retained differ after round trip")
	}
	// The restored sketch must keep absorbing values consistently: adding
	// the same stream to both keeps them identical.
	for i := 0; i < 500; i++ {
		h := Hash64(uint64(rng.Intn(300) + 1000))
		a.Add(h)
		back.Add(h)
	}
	if a.DistinctEstimate() != back.DistinctEstimate() {
		t.Fatal("restored AKMV diverged on further adds (maxHash not rebuilt?)")
	}
}

func TestHeavyHitterSnapshotRoundTrip(t *testing.T) {
	hh := NewHeavyHitter(0.05)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		// Two dominant items + noise.
		switch {
		case rng.Float64() < 0.4:
			hh.Add(1)
		case rng.Float64() < 0.4:
			hh.Add(2)
		default:
			hh.Add(uint64(rng.Intn(10000) + 10))
		}
	}
	hh.Finalize()
	snap, err := hh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	back := HeavyHitterFromSnapshot(snap)
	if len(hh.Items()) != len(back.Items()) {
		t.Fatalf("item counts differ: %d vs %d", len(hh.Items()), len(back.Items()))
	}
	if !back.Contains(1) || !back.Contains(2) {
		t.Fatal("restored sketch lost the dominant items")
	}
	n1, a1, m1 := hh.Stats()
	n2, a2, m2 := back.Stats()
	if n1 != n2 || a1 != a2 || m1 != m2 {
		t.Fatal("stats differ after round trip")
	}
}

func TestHeavyHitterSnapshotRequiresFinalize(t *testing.T) {
	hh := NewHeavyHitter(0.01)
	hh.Add(1)
	if _, err := hh.Snapshot(); err == nil {
		t.Fatal("want error snapshotting unsealed sketch")
	}
}

func TestExactDictSnapshotRoundTrip(t *testing.T) {
	d := NewExactDict(100)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		d.Add(uint32(rng.Intn(30)))
	}
	back := ExactDictFromSnapshot(d.Snapshot())
	if d.rows != back.rows {
		t.Fatal("rows differ")
	}
	do, okO := d.Distinct()
	db, okB := back.Distinct()
	if do != db || okO != okB {
		t.Fatal("distinct differs")
	}
	for c := uint32(0); c < 30; c++ {
		fo, oko := d.Freq(c)
		fb, okb := back.Freq(c)
		if fo != fb || oko != okb {
			t.Fatalf("freq(%d) differs: %v/%v vs %v/%v", c, fo, oko, fb, okb)
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	// Mutating the original after Snapshot must not affect the snapshot.
	a := NewAKMV(16)
	for i := 0; i < 100; i++ {
		a.Add(Hash64(uint64(i)))
	}
	snap := a.Snapshot()
	before := AKMVFromSnapshot(snap).DistinctEstimate()
	for i := 100; i < 5000; i++ {
		a.Add(Hash64(uint64(i)))
	}
	if after := AKMVFromSnapshot(snap).DistinctEstimate(); after != before {
		t.Fatalf("snapshot mutated by later adds: %v vs %v", before, after)
	}
}

func TestAKMVSnapshotProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%64) + 1
		a := NewAKMV(k)
		n := int(nRaw) + 1
		for i := 0; i < n; i++ {
			a.Add(Hash64(uint64(rng.Intn(50))))
		}
		back := AKMVFromSnapshot(a.Snapshot())
		return a.DistinctEstimate() == back.DistinctEstimate() &&
			a.rows == back.rows && a.SizeBytes() == back.SizeBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

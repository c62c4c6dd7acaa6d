package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeasuresBasic(t *testing.T) {
	m := NewMeasures(true)
	for _, v := range []float64{1, 2, 3, 4} {
		m.Add(v)
	}
	if m.Count != 4 {
		t.Fatalf("Count = %d, want 4", m.Count)
	}
	if m.Mean() != 2.5 {
		t.Errorf("Mean = %g, want 2.5", m.Mean())
	}
	if m.Min != 1 || m.Max != 4 {
		t.Errorf("Min/Max = %g/%g, want 1/4", m.Min, m.Max)
	}
	if got, want := m.MeanSq(), (1.0+4+9+16)/4; got != want {
		t.Errorf("MeanSq = %g, want %g", got, want)
	}
	wantStd := math.Sqrt(m.MeanSq() - 2.5*2.5)
	if math.Abs(m.Std()-wantStd) > 1e-12 {
		t.Errorf("Std = %g, want %g", m.Std(), wantStd)
	}
	if !m.HasLog {
		t.Fatal("positive column should keep log stats")
	}
	if math.Abs(m.LogMean()-(math.Log(1)+math.Log(2)+math.Log(3)+math.Log(4))/4) > 1e-12 {
		t.Errorf("LogMean wrong: %g", m.LogMean())
	}
}

func TestMeasuresLogDisabledOnNonPositive(t *testing.T) {
	m := NewMeasures(true)
	m.Add(5)
	m.Add(-1)
	if m.HasLog {
		t.Error("observing a non-positive value must disable log stats")
	}
	if m.LogMean() != 0 {
		t.Error("LogMean must be 0 when log stats are disabled")
	}
}

func TestMeasuresEmpty(t *testing.T) {
	m := NewMeasures(false)
	if m.Mean() != 0 || m.Std() != 0 || m.MeanSq() != 0 {
		t.Error("empty measures must report zeros")
	}
}

func TestMeasuresMerge(t *testing.T) {
	a, b, all := NewMeasures(true), NewMeasures(true), NewMeasures(true)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		v := rng.Float64()*50 + 1
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.Count != all.Count {
		t.Fatalf("merged count %d, want %d", a.Count, all.Count)
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 || math.Abs(a.Std()-all.Std()) > 1e-9 {
		t.Error("merged moments differ from bulk")
	}
	if a.Min != all.Min || a.Max != all.Max || a.LogMax != all.LogMax {
		t.Error("merged extrema differ from bulk")
	}
}

// Property: Measures.Add order never matters and Std is non-negative.
func TestMeasuresProperty(t *testing.T) {
	f := func(vals []float64) bool {
		m := NewMeasures(false)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true // skip pathological inputs
			}
			m.Add(v)
		}
		return m.Std() >= 0 && m.Count == int64(len(vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramEqualDepth(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i))
	}
	h.Finalize()
	if len(h.Buckets) == 0 || len(h.Buckets) > 21 {
		t.Fatalf("bad histogram shape: %d buckets", len(h.Buckets))
	}
	for i, b := range h.Buckets {
		if b.Count < 50 || b.Count > 200 {
			t.Errorf("bucket %d count %d: equal-depth buckets on uniform data should be ~100", i, b.Count)
		}
	}
	if got := h.EstimateRange(0, 999); math.Abs(got-1) > 1e-9 {
		t.Errorf("full range estimate = %g, want 1", got)
	}
	if got := h.EstimateRange(0, 499); math.Abs(got-0.5) > 0.05 {
		t.Errorf("half range estimate = %g, want ~0.5", got)
	}
	if got := h.EstimateRange(2000, 3000); got != 0 {
		t.Errorf("out-of-range estimate = %g, want 0", got)
	}
	if got := h.EstimateRange(5, 3); got != 0 {
		t.Errorf("inverted range estimate = %g, want 0", got)
	}
}

func TestHistogramSkewedData(t *testing.T) {
	h := NewHistogram(10)
	// 90% of mass at 0, the rest spread out.
	for i := 0; i < 900; i++ {
		h.Add(0)
	}
	for i := 0; i < 100; i++ {
		h.Add(float64(i + 1))
	}
	h.Finalize()
	if got := h.EstimateEq(0); got < 0.5 {
		t.Errorf("EstimateEq(0) = %g on 90%%-zero data, want >= 0.5", got)
	}
	if got := h.EstimateRange(1, 100); got < 0.05 || got > 0.2 {
		t.Errorf("tail range estimate = %g, want ~0.1", got)
	}
}

// TestHistogramNaN: NaN cells (an appended JSON null) must not stall
// Finalize, and are kept apart from the real values' buckets.
func TestHistogramNaN(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
		if i%25 == 0 {
			h.Add(math.NaN())
		}
	}
	h.Finalize()
	if b := h.Buckets[0]; !math.IsNaN(b.Lo) || !math.IsNaN(b.Hi) || b.Count != 4 {
		t.Fatalf("first bucket %+v, want the 4 NaNs alone", b)
	}
	var rows int64
	for _, b := range h.Buckets[1:] {
		if math.IsNaN(b.Lo) || math.IsNaN(b.Hi) {
			t.Fatalf("bucket %+v mixes NaN with values", b)
		}
		rows += b.Count
	}
	if rows != 100 || h.Total != 104 {
		t.Fatalf("%d rows in value buckets of %d total, want 100 of 104", rows, h.Total)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < 50; i++ {
		h.Add(42)
	}
	h.Finalize()
	if got := h.EstimateEq(42); math.Abs(got-1) > 1e-9 {
		t.Errorf("EstimateEq(42) = %g, want 1", got)
	}
	if got := h.EstimateEq(41); got != 0 {
		t.Errorf("EstimateEq(41) = %g, want 0", got)
	}
	if h.Min() != 42 || h.Max() != 42 {
		t.Errorf("Min/Max = %g/%g, want 42/42", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(10)
	h.Finalize()
	if got := h.EstimateRange(math.Inf(-1), math.Inf(1)); got != 0 {
		t.Errorf("empty histogram estimate = %g, want 0", got)
	}
}

// Property: selectivity estimates are always within [0,1] and a value
// present in the data always has a non-zero equality estimate (the
// perfect-recall requirement of the selectivity filter).
func TestHistogramRecallProperty(t *testing.T) {
	f := func(raw []float64, probe uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		h := NewHistogram(10)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			vals = append(vals, v)
			h.Add(v)
		}
		if len(vals) == 0 {
			return true
		}
		h.Finalize()
		target := vals[int(probe)%len(vals)]
		eq := h.EstimateEq(target)
		if eq <= 0 || eq > 1 {
			return false
		}
		r := h.EstimateRange(target, math.Inf(1))
		return r > 0 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAKMVExactBelowK(t *testing.T) {
	a := NewAKMV(128)
	for i := 0; i < 50; i++ {
		a.Add(Hash64(uint64(i % 10)))
	}
	if got := a.DistinctEstimate(); got != 10 {
		t.Errorf("DistinctEstimate = %g, want exactly 10 (below k)", got)
	}
	avg, maxF, minF, sum := a.FreqStats()
	if avg != 5 || maxF != 5 || minF != 5 || sum != 50 {
		t.Errorf("FreqStats = %g/%g/%g/%g, want 5/5/5/50", avg, maxF, minF, sum)
	}
}

func TestAKMVEstimateAboveK(t *testing.T) {
	a := NewAKMV(128)
	const distinct = 10000
	for i := 0; i < distinct; i++ {
		a.Add(Hash64(uint64(i)))
	}
	got := a.DistinctEstimate()
	if got < distinct*0.7 || got > distinct*1.3 {
		t.Errorf("DistinctEstimate = %g, want within 30%% of %d", got, distinct)
	}
	if a.Retained() != 128 {
		t.Errorf("Retained = %d, want 128", a.Retained())
	}
}

func TestAKMVMerge(t *testing.T) {
	a, b := NewAKMV(64), NewAKMV(64)
	for i := 0; i < 2000; i++ {
		a.Add(Hash64(uint64(i)))
	}
	for i := 1000; i < 3000; i++ {
		b.Add(Hash64(uint64(i)))
	}
	a.Merge(b)
	if a.Retained() > 64 {
		t.Fatalf("merge kept %d hashes, cap is 64", a.Retained())
	}
	if a.Rows() != 4000 {
		t.Fatalf("merged rows = %d, want 4000", a.Rows())
	}
	got := a.DistinctEstimate()
	if got < 3000*0.6 || got > 3000*1.4 {
		t.Errorf("merged estimate = %g, want within 40%% of 3000", got)
	}
}

// Property: AKMV distinct estimate is exact when distinct count <= k.
func TestAKMVPropertyExactSmall(t *testing.T) {
	f := func(vals []uint16) bool {
		a := NewAKMV(0) // default k=128
		distinct := map[uint16]bool{}
		for _, v := range vals {
			v = v % 100 // at most 100 distinct < k
			distinct[v] = true
			a.Add(Hash64(uint64(v)))
		}
		return a.DistinctEstimate() == float64(len(distinct))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeavyHitterFindsFrequentItems(t *testing.T) {
	hh := NewHeavyHitter(0.01)
	// Item 1: 30%, item 2: 10%, 6000 unique fillers.
	for i := 0; i < 10000; i++ {
		switch {
		case i%10 < 3:
			hh.Add(1)
		case i%10 == 3:
			hh.Add(2)
		default:
			hh.Add(uint64(1000 + i))
		}
	}
	hh.Finalize()
	if !hh.Contains(1) || !hh.Contains(2) {
		t.Fatalf("heavy hitters 1,2 not found; items=%v", hh.Items())
	}
	items := hh.Items()
	if items[0].ID != 1 {
		t.Errorf("top item = %d, want 1", items[0].ID)
	}
	if math.Abs(items[0].Freq-0.3) > 0.02 {
		t.Errorf("item 1 freq = %g, want ~0.3", items[0].Freq)
	}
	num, avgF, maxF := hh.Stats()
	if num != len(items) || maxF < avgF {
		t.Errorf("Stats inconsistent: num=%d avg=%g max=%g", num, avgF, maxF)
	}
}

func TestHeavyHitterBounded(t *testing.T) {
	hh := NewHeavyHitter(0.01)
	for i := 0; i < 100000; i++ {
		hh.Add(uint64(i)) // all unique: no heavy hitters
	}
	hh.Finalize()
	if n := len(hh.Items()); n != 0 {
		t.Errorf("all-unique stream produced %d heavy hitters", n)
	}
}

// Property (lossy counting guarantee): every item with true frequency
// >= support is reported.
func TestHeavyHitterRecallProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hh := NewHeavyHitter(0.05)
		counts := map[uint64]int{}
		const n = 5000
		for i := 0; i < n; i++ {
			var id uint64
			if rng.Float64() < 0.5 {
				id = uint64(rng.Intn(5)) // frequent candidates
			} else {
				id = uint64(100 + rng.Intn(2000))
			}
			counts[id]++
			hh.Add(id)
		}
		hh.Finalize()
		for id, c := range counts {
			if float64(c) >= 0.05*n && !hh.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestExactDictExact(t *testing.T) {
	d := NewExactDict(10)
	for i := 0; i < 100; i++ {
		d.Add(uint32(i % 4))
	}
	f, ok := d.Freq(0)
	if !ok || f != 0.25 {
		t.Errorf("Freq(0) = %g/%v, want 0.25/true", f, ok)
	}
	n, ok := d.Distinct()
	if !ok || n != 4 {
		t.Errorf("Distinct = %d/%v, want 4/true", n, ok)
	}
	if got := len(d.Codes()); got != 4 {
		t.Errorf("Codes len = %d, want 4", got)
	}
}

func TestExactDictOverflow(t *testing.T) {
	d := NewExactDict(5)
	for i := 0; i < 100; i++ {
		d.Add(uint32(i))
	}
	if !d.Overflow {
		t.Fatal("dict should overflow past its capacity")
	}
	if _, ok := d.Freq(1); ok {
		t.Error("overflowed dict must not answer Freq")
	}
	if d.SizeBytes() != 0 {
		t.Error("overflowed dict should report zero storage")
	}
	if d.Rows() != 100 {
		t.Errorf("Rows = %d, want 100 (still counted after overflow)", d.Rows())
	}
}

func TestHashDeterminism(t *testing.T) {
	if Hash64(12345) != Hash64(12345) {
		t.Error("Hash64 must be deterministic")
	}
	if Hash64(1) == Hash64(2) {
		t.Error("Hash64(1) == Hash64(2): suspicious collision")
	}
	if HashString("abc") != HashString("abc") {
		t.Error("HashString must be deterministic")
	}
	if HashString("abc") == HashString("abd") {
		t.Error("HashString collision on near strings")
	}
}

func TestSizeBytesReported(t *testing.T) {
	m := NewMeasures(true)
	m.Add(1)
	if m.SizeBytes() != 80 {
		t.Errorf("Measures.SizeBytes = %d, want 80", m.SizeBytes())
	}
	h := NewHistogram(10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	h.Finalize()
	if h.SizeBytes() <= 0 {
		t.Error("Histogram.SizeBytes must be positive after finalize")
	}
	a := NewAKMV(16)
	a.Add(1)
	if a.SizeBytes() != 16 {
		t.Errorf("AKMV.SizeBytes = %d, want 16 for one entry", a.SizeBytes())
	}
}

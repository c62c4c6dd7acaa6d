package sketch

import (
	"math"
	"sort"
)

// DefaultHistogramBuckets matches the paper's default of 10 buckets.
const DefaultHistogramBuckets = 10

// Bucket is one histogram bucket. Lo == Hi denotes a singleton bucket that
// holds exactly the value Lo; otherwise the bucket covers [Lo, Hi] with its
// mass assumed uniform.
type Bucket struct {
	Lo, Hi float64
	Count  int64
}

// Histogram is an equal-depth (equi-height) histogram over a numeric column
// or over string hashes for categorical columns. Values whose frequency
// reaches a full bucket depth get their own singleton bucket, so heavily
// repeated values (zero-inflated columns, defaults) estimate accurately.
//
// The sketch buffers values during construction (partitions are bounded, so
// this stays within the one-pass budget of the ingest path) and seals into
// buckets on Finalize; only the sealed form is stored.
type Histogram struct {
	buckets int
	buf     []float64
	sealed  bool
	Buckets []Bucket
	Total   int64
}

// NewHistogram returns a histogram with the given bucket budget (0 means
// DefaultHistogramBuckets).
func NewHistogram(buckets int) *Histogram {
	if buckets <= 0 {
		buckets = DefaultHistogramBuckets
	}
	return &Histogram{buckets: buckets}
}

// Add observes one value. Must not be called after Finalize.
func (h *Histogram) Add(x float64) {
	h.buf = append(h.buf, x)
}

// Finalize seals the histogram. Calling it again is a no-op.
func (h *Histogram) Finalize() {
	if h.sealed {
		return
	}
	h.sealed = true
	n := len(h.buf)
	h.Total = int64(n)
	if n == 0 {
		h.buf = nil
		return
	}
	sort.Float64s(h.buf)
	depth := n / h.buckets
	if depth < 1 {
		depth = 1
	}
	var cur *Bucket
	i := 0
	for i < n {
		// Measure the run of equal values starting at i. NaNs (a null cell
		// appended over HTTP) sort first and compare unequal to themselves:
		// they count as one run, or the scan would never advance.
		j := i
		v := h.buf[i]
		nan := v != v
		for j < n && (h.buf[j] == v || nan && h.buf[j] != h.buf[j]) {
			j++
		}
		runLen := j - i
		if runLen >= depth || nan {
			// Heavy value, or the NaNs: its own singleton bucket.
			h.Buckets = append(h.Buckets, Bucket{Lo: v, Hi: v, Count: int64(runLen)})
			cur = nil
		} else {
			if cur == nil {
				h.Buckets = append(h.Buckets, Bucket{Lo: v, Hi: v})
				cur = &h.Buckets[len(h.Buckets)-1]
			}
			cur.Hi = v
			cur.Count += int64(runLen)
			if cur.Count >= int64(depth) {
				cur = nil // close the bucket at this value
			}
		}
		i = j
	}
	h.buf = nil
}

// EstimateRange estimates the fraction of rows with lo <= x <= hi, assuming
// uniformity within range buckets. Open-ended ranges use ±Inf. The histogram
// must be finalized.
func (h *Histogram) EstimateRange(lo, hi float64) float64 {
	if !h.sealed || h.Total == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if hi < lo {
		return 0
	}
	var rows float64
	for _, b := range h.Buckets {
		if hi < b.Lo {
			// Buckets are sorted ascending and non-overlapping (Finalize), so
			// no later bucket can intersect [lo, hi] either.
			break
		}
		if lo > b.Hi {
			continue
		}
		cnt := float64(b.Count)
		if b.Hi == b.Lo {
			rows += cnt
			continue
		}
		ovLo := math.Max(lo, b.Lo)
		ovHi := math.Min(hi, b.Hi)
		width := b.Hi - b.Lo
		frac := 1.0
		if !math.IsInf(width, 0) && width > 0 {
			frac = (ovHi - ovLo) / width
		}
		if frac < 0 || math.IsNaN(frac) {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		// A non-empty overlapping bucket always contributes at least a
		// trace of mass: the overlap may contain actual rows even when the
		// width ratio underflows, and the filter relies on non-zero
		// estimates for perfect recall.
		contribution := cnt * frac
		if contribution == 0 {
			contribution = math.SmallestNonzeroFloat64
		}
		rows += contribution
	}
	est := rows / float64(h.Total)
	if est > 1 {
		est = 1
	}
	if est == 0 && rows > 0 {
		// Guard denormal underflow: overlapping non-empty buckets must keep
		// the estimate strictly positive for filter recall.
		est = math.SmallestNonzeroFloat64
	}
	return est
}

// EstimateEq estimates the fraction of rows equal to x. Singleton buckets
// answer exactly; range buckets spread their mass across their width. The
// estimate is never zero for a value inside a non-empty bucket (recall
// safety for the selectivity filter).
func (h *Histogram) EstimateEq(x float64) float64 {
	if !h.sealed || h.Total == 0 || len(h.Buckets) == 0 {
		return 0
	}
	for _, b := range h.Buckets {
		if x < b.Lo || x > b.Hi {
			continue
		}
		cnt := float64(b.Count)
		if b.Hi == b.Lo {
			return cnt / float64(h.Total)
		}
		width := b.Hi - b.Lo
		est := cnt / float64(h.Total)
		if !math.IsInf(width, 0) && width > 1 {
			est = cnt / width / float64(h.Total)
		}
		if est <= 0 {
			est = math.SmallestNonzeroFloat64
		}
		if est > cnt/float64(h.Total) {
			est = cnt / float64(h.Total)
		}
		return est
	}
	return 0
}

// Min returns the smallest observed value (0 for empty histograms).
func (h *Histogram) Min() float64 {
	if len(h.Buckets) == 0 {
		return 0
	}
	return h.Buckets[0].Lo
}

// Max returns the largest observed value (0 for empty histograms).
func (h *Histogram) Max() float64 {
	if len(h.Buckets) == 0 {
		return 0
	}
	return h.Buckets[len(h.Buckets)-1].Hi
}

// SizeBytes returns the sealed storage footprint: two bounds and a counter
// per bucket.
func (h *Histogram) SizeBytes() int { return 24 * len(h.Buckets) }

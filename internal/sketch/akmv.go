package sketch

import (
	"math"
	"slices"
)

// DefaultAKMVK matches the paper's default of k = 128 minimum hashed values.
const DefaultAKMVK = 128

// AKMV is an Augmented K-Minimum-Values sketch (Beyer et al., SIGMOD'07): it
// retains the k smallest 64-bit hashes of the values observed, each with the
// number of times that hash appeared. From the retained set it estimates the
// number of distinct values in the column, and the frequency statistics of
// distinct values (avg / max / min / sum of the multiplicities) used as
// features in Table 2.
type AKMV struct {
	K int
	// entries maps hash -> multiplicity for retained hashes.
	entries map[uint64]int64
	// maxHash caches the current k-th smallest (i.e. largest retained) hash.
	maxHash uint64
	rows    int64
	// sorted indexes the retained hashes in ascending order while the sketch
	// is being built, so an eviction finds the next largest hash without a
	// pass over entries. It is made at the first eviction and dropped by
	// Finalize and Merge; a restored sketch has none.
	sorted []uint64
}

// NewAKMV returns an empty sketch with budget k (0 means DefaultAKMVK).
func NewAKMV(k int) *AKMV {
	if k <= 0 {
		k = DefaultAKMVK
	}
	return &AKMV{K: k, entries: make(map[uint64]int64, k)}
}

// Add observes one pre-hashed value.
func (a *AKMV) Add(h uint64) {
	a.rows++
	if c, ok := a.entries[h]; ok {
		a.entries[h] = c + 1
		return
	}
	if len(a.entries) < a.K {
		a.entries[h] = 1
		if h > a.maxHash {
			a.maxHash = h
		}
		return
	}
	if h >= a.maxHash {
		return
	}
	// Evict the current max (the index's last hash), insert h in order, and
	// take the new last hash as the max.
	if a.sorted == nil {
		a.sorted = a.hashes()
	}
	delete(a.entries, a.maxHash)
	a.entries[h] = 1
	kept := a.sorted[:len(a.sorted)-1]
	i, _ := slices.BinarySearch(kept, h)
	copy(a.sorted[i+1:], kept[i:])
	a.sorted[i] = h
	a.maxHash = a.sorted[len(a.sorted)-1]
}

// hashes returns the retained hashes in ascending order.
func (a *AKMV) hashes() []uint64 {
	hs := make([]uint64, 0, len(a.entries))
	for h := range a.entries { //lint:mapiter-ok the keys are sorted below
		hs = append(hs, h)
	}
	slices.Sort(hs)
	return hs
}

// Finalize ends the build: it drops the eviction index, so a sketch kept for
// serving holds its retained hashes and nothing else. Adding after Finalize
// still works; the next eviction rebuilds the index.
func (a *AKMV) Finalize() { a.sorted = nil }

// DistinctEstimate returns the estimated number of distinct values. When
// fewer than k hashes are retained the count is exact; otherwise the standard
// KMV estimator (k-1)/U_(k) normalized to the hash range is used.
func (a *AKMV) DistinctEstimate() float64 {
	n := len(a.entries)
	if n == 0 {
		return 0
	}
	if n < a.K {
		return float64(n)
	}
	u := float64(a.maxHash) / float64(math.MaxUint64)
	if u <= 0 {
		return float64(n)
	}
	return float64(a.K-1) / u
}

// FreqStats returns the average, max, min and sum of the multiplicities of
// the retained distinct values. These approximate the per-distinct-value
// frequency statistics of the whole partition (the retained hashes are a
// uniform sample of distinct values).
func (a *AKMV) FreqStats() (avg, maxF, minF, sum float64) {
	if len(a.entries) == 0 {
		return 0, 0, 0, 0
	}
	minF = math.Inf(1)
	//lint:mapiter-ok min/max are order-free and the sum adds integer-valued float64s below 2^53, which is exact in any order
	for _, c := range a.entries {
		f := float64(c)
		sum += f
		if f > maxF {
			maxF = f
		}
		if f < minF {
			minF = f
		}
	}
	avg = sum / float64(len(a.entries))
	// Scale the sum from the retained sample of distinct values up to the
	// estimated total number of distinct values.
	if d := a.DistinctEstimate(); d > float64(len(a.entries)) {
		sum *= d / float64(len(a.entries))
	}
	return avg, maxF, minF, sum
}

// SizeBytes returns the storage footprint: 8-byte hash + 8-byte count per
// retained entry. This is why AKMV dominates Table 4's per-partition budget.
func (a *AKMV) SizeBytes() int { return 16 * len(a.entries) }

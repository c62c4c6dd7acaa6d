package sketch

// DefaultExactDictCap bounds how many distinct values an ExactDict tracks
// before giving up. The paper stores all distinct values and frequencies
// exactly for string columns with few distinct values (§3.2, "Selectivity
// Estimates"); beyond the cap the sketch marks itself overflowed and
// selectivity estimation falls back to histograms over hashes.
const DefaultExactDictCap = 256

// ExactDict tracks exact frequencies of distinct categorical codes while the
// number of distinct values stays within cap.
type ExactDict struct {
	cap      int
	counts   map[uint32]int64
	rows     int64
	Overflow bool
}

// NewExactDict returns a dictionary sketch with the given capacity (0 means
// DefaultExactDictCap).
func NewExactDict(capacity int) *ExactDict {
	if capacity <= 0 {
		capacity = DefaultExactDictCap
	}
	return &ExactDict{cap: capacity, counts: make(map[uint32]int64)}
}

// Add observes one dictionary code.
func (d *ExactDict) Add(code uint32) {
	d.rows++
	if d.Overflow {
		return
	}
	if _, ok := d.counts[code]; !ok && len(d.counts) >= d.cap {
		d.Overflow = true
		d.counts = nil
		return
	}
	d.counts[code]++
}

// Freq returns the exact fraction of rows holding code, and ok=false when
// the sketch overflowed and cannot answer.
func (d *ExactDict) Freq(code uint32) (float64, bool) {
	if d.Overflow || d.rows == 0 {
		return 0, false
	}
	return float64(d.counts[code]) / float64(d.rows), true
}

// Distinct returns the exact distinct count, and ok=false on overflow.
func (d *ExactDict) Distinct() (int, bool) {
	if d.Overflow {
		return 0, false
	}
	return len(d.counts), true
}

// SizeBytes returns the storage footprint: 4-byte code + 8-byte count per
// tracked value (0 after overflow).
func (d *ExactDict) SizeBytes() int {
	if d.Overflow {
		return 0
	}
	return 12 * len(d.counts)
}

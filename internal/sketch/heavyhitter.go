package sketch

import "sort"

// DefaultHHSupport matches the paper's default: track items appearing in at
// least 1% of rows, so at most 100 dictionary entries.
const DefaultHHSupport = 0.01

// HeavyHitter finds frequent items with the lossy counting algorithm (Manku
// & Motwani, VLDB'02). Items are identified by their dictionary code (or any
// stable uint64 id). After Finalize, Items returns every value whose true
// frequency is at least support*N, possibly with a few false positives whose
// frequency is at least (support-ε)*N with ε = support/10.
type HeavyHitter struct {
	support float64
	// lossy counting state
	width   int64 // bucket width ceil(1/ε)
	n       int64 // items seen
	current int64 // current bucket id
	counts  map[uint64]*lcEntry
	sealed  bool
	items   []HHItem
}

type lcEntry struct {
	count int64
	delta int64
}

// HHItem is one heavy hitter: its id and observed frequency (count / N).
type HHItem struct {
	ID    uint64
	Count int64
	Freq  float64
}

// NewHeavyHitter returns a sketch tracking items with frequency >= support
// (0 means DefaultHHSupport).
func NewHeavyHitter(support float64) *HeavyHitter {
	if support <= 0 {
		support = DefaultHHSupport
	}
	eps := support / 10
	w := int64(1/eps) + 1
	return &HeavyHitter{
		support: support,
		width:   w,
		counts:  make(map[uint64]*lcEntry),
	}
}

// Add observes one item.
func (hh *HeavyHitter) Add(id uint64) {
	hh.n++
	if e, ok := hh.counts[id]; ok {
		e.count++
	} else {
		hh.counts[id] = &lcEntry{count: 1, delta: hh.current}
	}
	if hh.n%hh.width == 0 {
		hh.current++
		//lint:mapiter-ok each key is kept or evicted on its own count alone, independent of visit order
		for k, e := range hh.counts {
			if e.count+e.delta <= hh.current {
				delete(hh.counts, k)
			}
		}
	}
}

// Finalize prunes to items meeting the support threshold and caches the
// result sorted by descending count.
func (hh *HeavyHitter) Finalize() {
	if hh.sealed {
		return
	}
	hh.sealed = true
	if hh.n == 0 {
		return
	}
	thresh := int64(hh.support * float64(hh.n))
	//lint:mapiter-ok survivors are fully sorted by (count, id) immediately below
	for id, e := range hh.counts {
		if e.count >= thresh && e.count > 0 {
			hh.items = append(hh.items, HHItem{
				ID:    id,
				Count: e.count,
				Freq:  float64(e.count) / float64(hh.n),
			})
		}
	}
	sort.Slice(hh.items, func(i, j int) bool {
		if hh.items[i].Count != hh.items[j].Count {
			return hh.items[i].Count > hh.items[j].Count
		}
		return hh.items[i].ID < hh.items[j].ID
	})
	hh.counts = nil
}

// Items returns the heavy hitters (descending frequency). Finalize first.
func (hh *HeavyHitter) Items() []HHItem { return hh.items }

// Contains reports whether id is among the finalized heavy hitters.
func (hh *HeavyHitter) Contains(id uint64) bool {
	for _, it := range hh.items {
		if it.ID == id {
			return true
		}
	}
	return false
}

// Stats returns the count of heavy hitters and the average and max frequency
// among them (Table 2's "# hh, avg/max freq of hh").
func (hh *HeavyHitter) Stats() (num int, avgFreq, maxFreq float64) {
	num = len(hh.items)
	if num == 0 {
		return 0, 0, 0
	}
	var sum float64
	for _, it := range hh.items {
		sum += it.Freq
		if it.Freq > maxFreq {
			maxFreq = it.Freq
		}
	}
	return num, sum / float64(num), maxFreq
}

// SizeBytes returns the sealed storage footprint: id + count per item.
func (hh *HeavyHitter) SizeBytes() int { return 16 * len(hh.items) }

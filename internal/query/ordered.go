package query

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the rendering of a scan's flat total that a response is made
// from: groups under their labels, ascending by label, final aggregate values
// in one slab. answer (group.go) is the other rendering, the map form every
// arithmetic caller reads; both start from what fold returns.

// Group is one group of an ordered answer: its label as GroupLabel renders
// it and its d final aggregate values as FinalValues computes them. The
// Values of one answer alias one slab, and a Label may be shared with every
// other answer of the same compiled query: both are read-only.
type Group struct {
	Label  string
	Values []float64
}

// maxMemoLabels bounds a compiled query's label memo: three times the widest
// answer the serving benchmark's workloads produce (1 353 groups on
// adhoc-pick; 619–874 on the others, means 27–81), which holds one compiled
// entry to about 0.5 MB of labels, keys and map. A query that would pass it
// renders per request, as every query did before there was a memo.
const maxMemoLabels = 4096

// labelMemo remembers, for the packed group keys a compiled query has
// answered with, each key's label and its place among those labels. Both are
// pure functions of the query's schema and dictionary — nothing learned about
// the data — so the memo needs no invalidation: it lives and dies with its
// Compiled. It sits behind a pointer because a Compiled may be copied.
//
// Readers load cur and never lock. A request that meets an unknown key grows
// the memo under mu into a new table and publishes that; tables are immutable
// once published, and racing growers each find the other's keys present.
type labelMemo struct {
	mu  sync.Mutex
	cur atomic.Pointer[labelTable]
}

// labelTable is one published state of a memo: the known keys' labels in
// ascending strings.Compare order, equal labels in the order they were first
// rendered, and each key's position in that order.
type labelTable struct {
	rank   map[uint64]int32
	keys   []uint64
	labels []string
}

func newLabelMemo() *labelMemo {
	m := &labelMemo{}
	m.cur.Store(&labelTable{})
	return m
}

// place writes, for every position of t's label order, the index in keys of
// the key that belongs there, or -1: keys ordered by label in one pass over
// the table instead of a sort. It reports false at the first key t does not
// know.
func (t *labelTable) place(keys []uint64, sc *scratch) ([]int32, bool) {
	if len(keys) > len(t.labels) {
		return nil, false
	}
	at := sc.gidxBuf(len(t.labels))
	for i := range at {
		at[i] = -1
	}
	for g, k := range keys {
		r, ok := t.rank[k]
		if !ok {
			return nil, false
		}
		at[r] = int32(g)
	}
	return at, true
}

// grow returns a table that knows every one of keys, publishing a larger one
// if the current one does not, or nil when that would take the memo past
// maxMemoLabels. Labels are rendered by GroupLabel and ranked by
// strings.Compare over the rendered strings themselves, so the order is the
// one a per-request sort gives whatever the values contain.
func (m *labelMemo) grow(c *Compiled, keys []uint64) *labelTable {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.cur.Load()
	missing := make([]uint64, 0, len(keys))
	for _, k := range keys {
		if _, ok := t.rank[k]; !ok {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		return t
	}
	n := len(t.keys) + len(missing)
	if n > maxMemoLabels {
		return nil
	}
	allKeys := slices.Concat(t.keys, missing)
	allLabels := append(make([]string, 0, n), t.labels...)
	for _, k := range missing {
		allLabels = append(allLabels, c.GroupLabel(c.byteKey(k)))
	}
	grown := &labelTable{
		rank:   make(map[uint64]int32, n),
		keys:   make([]uint64, n),
		labels: make([]string, n),
	}
	for r, i := range sortedByLabel(make([]int32, n), allLabels) {
		grown.keys[r], grown.labels[r] = allKeys[i], allLabels[i]
		grown.rank[allKeys[i]] = int32(r)
	}
	m.cur.Store(grown)
	return grown
}

// sortedByLabel fills idx with the indices of labels in ascending
// strings.Compare order, equal labels in index order.
func sortedByLabel(idx []int32, labels []string) []int32 {
	idx = identity(idx, len(labels))
	slices.SortFunc(idx, func(a, b int32) int {
		if c := strings.Compare(labels[a], labels[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b) // what a stable sort would keep
	})
	return idx
}

// ordered renders a scan's total as label-ordered groups: final values
// written from the accumulator slab into one values slab, in output order,
// with no map and — when the query's memo knows every key — no string built
// or compared. Otherwise the labels are rendered and sorted for this answer
// alone: byte keys (a numeric or over-wide GROUP BY, or a fold a corrupted
// partition moved to byte keys) and answers the memo has no room for.
func (c *Compiled) ordered(total partial, sc *scratch) []Group {
	n, d := len(total.accs)/c.comps, len(c.slots)
	groups := make([]Group, 0, n)
	slab := make([]float64, n*d)
	add := func(label string, g int32) {
		vals := slab[:d:d]
		slab = slab[d:]
		c.finalInto(vals, total.accs[int(g)*c.comps:])
		groups = append(groups, Group{Label: label, Values: vals})
	}
	if total.bytes == nil && n <= maxMemoLabels {
		t := c.labels.cur.Load()
		at, ok := t.place(total.packed, sc)
		if !ok {
			if t = c.labels.grow(c, total.packed); t != nil {
				at, ok = t.place(total.packed, sc)
			}
		}
		if ok {
			for r, g := range at {
				if g >= 0 {
					add(t.labels[r], g)
				}
			}
			return groups
		}
	}
	labels := make([]string, n)
	for g := range labels {
		labels[g] = c.GroupLabel(c.keyOf(total, g))
	}
	for _, g := range sortedByLabel(sc.gidxBuf(n), labels) {
		add(labels[g], g)
	}
	return groups
}

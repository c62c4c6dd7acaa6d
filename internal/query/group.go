package query

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"ps3/internal/table"
)

// This file is the grouped half of the scan: how a partition's rows resolve
// to group slots, the flat partial answer a partition evaluates to, the
// weighted fold of partials into one flat total, and the map rendering of a
// total (the ordered rendering is in ordered.go). A GROUP BY whose columns
// are all categorical touches no map and builds no string until its total is
// rendered; the byte-key path remains for numeric and over-wide keys.

// directKeyBits bounds the key space that gets a direct-indexed group table
// (one entry per possible key, no hashing). A table is owned by a scratch,
// and scratches are pooled (scratchPool), so the bound is also what a pooled
// scratch may pin: 2^12 entries of 16 bytes.
//
// Which side a query falls on is a property of its table: the dictionary is
// table-wide, so every group-by column costs bits.Len(dict.Len()) bits. The
// bench fixtures have 356 (aria, 9 bits) and 72 (kdd, 7 bits) dictionary
// values: one group-by column is direct there, two or more (18 and 14 bits
// up) are hashed, and on a table with more than 4 095 dictionary values
// every GROUP BY is hashed. The direct mode is kept because it measures:
// with it disabled, BenchmarkEstimateGrouped's one-column cases run 10–15 %
// slower (aria raw 113 → 128 µs, kdd encoded 1.17 → 1.29 ms; the zero- and
// two-column cases do not move), and repeat-zipf serves 5 % fewer queries a
// second (six alternating pairs, direct ahead in all six).
const directKeyBits = 12

// maxPooledAccs bounds the accumulator arena (in float64s: 512 KiB) a
// scratch may carry back to the pool after a scan; see trim.
const maxPooledAccs = 1 << 16

// packWidth returns the per-column bit width of a packed group key over a
// dictionary of dictLen codes, and whether n such columns fit one uint64.
// Zero columns always fit (the only key is 0), which is how an ungrouped
// query shares the packed path's partials.
func packWidth(n, dictLen int) (w uint, ok bool) {
	w = uint(max(1, bits.Len(uint(dictLen))))
	return w, int(w)*n <= 64
}

// partial is one partition's answer in flat form: the groups its selected
// rows touched, in first-seen (row) order, and their accumulators as one
// [group][comps] slab. Exactly one of packed and bytes names the groups.
// Partials an evaluation returns live in the scratch's arenas: they are
// valid until that scratch is reset or goes back to the pool.
type partial struct {
	packed []uint64 // packed keys (the single key 0 when ungrouped)
	bytes  []string // byte keys as appendKey encodes them (generic path)
	accs   []float64
}

// ungroupedKey names the one group of an ungrouped query.
var ungroupedKey = []uint64{0}

// groupTable resolves packed group keys to dense slots numbered in
// first-seen order. Entries carry the epoch they were written in, so
// emptying the table is one increment, and no evaluation — finished,
// panicked or abandoned — can leave a slot behind for the next one.
type groupTable struct {
	ents []groupEnt
	// direct: ents is indexed by key, one entry per possible key; otherwise
	// it is open-addressed, small and doubling under load.
	direct bool
	epoch  uint32
	// live counts the current epoch's entries: the next slot id and, in an
	// open-addressed table, the load.
	live int
}

type groupEnt struct {
	key   uint64
	id    int32
	epoch uint32
}

// hashMul is the 64-bit golden-ratio multiplier of the multiply-shift hash.
const hashMul = 0x9E3779B97F4A7C15

// begin empties the table for keys of keyBits bits and shapes it for them.
// The table comes with a pooled scratch, so it may last have served a query
// with another key width: the mode is chosen anew every time, and the entries
// are kept when there are enough of them — they all went stale with the
// epoch, a direct table may be longer than its key space, and every length
// this function or grow produces is a power of two of at least 64 or a whole
// direct key space, which an open-addressed table can take over as it is.
func (t *groupTable) begin(keyBits uint) {
	t.live = 0
	t.epoch++
	if t.epoch == 0 { // wrapped: entries of epoch 0..n would pass for current
		clear(t.ents)
		t.epoch = 1
	}
	size := 64
	if t.direct = keyBits <= directKeyBits; t.direct {
		size = 1 << keyBits
	}
	if len(t.ents) < size {
		t.ents = make([]groupEnt, size)
	}
}

// geometry returns the probe mask and hash shift of an open-addressed table.
func (t *groupTable) geometry() (mask uint64, shift uint) {
	mask = uint64(len(t.ents) - 1)
	return mask, 64 - uint(bits.Len64(mask))
}

// resolve writes each key's slot to slots and returns order extended by the
// keys not seen since begin. Every key must fit the keyBits begin was given.
func (t *groupTable) resolve(keys []uint64, slots []int32, order []uint64) []uint64 {
	ents, ep := t.ents, t.epoch
	if t.direct {
		for i, k := range keys {
			e := &ents[k]
			if e.epoch != ep {
				e.epoch, e.id = ep, int32(t.live)
				t.live++
				order = append(order, k)
			}
			slots[i] = e.id
		}
		return order
	}
	mask, shift := t.geometry()
	for i := 0; i < len(keys); {
		k := keys[i]
		h := (k * hashMul) >> shift
		for ents[h].epoch == ep && ents[h].key != k {
			h = (h + 1) & mask
		}
		e := &ents[h]
		if e.epoch != ep {
			if 2*t.live >= len(ents) {
				t.grow()
				ents = t.ents
				mask, shift = t.geometry()
				continue // probe k again in the grown table
			}
			*e = groupEnt{key: k, id: int32(t.live), epoch: ep}
			t.live++
			order = append(order, k)
		}
		slots[i] = e.id
		i++
	}
	return order
}

// grow doubles an open-addressed table, re-seating the current epoch's
// entries under the slot ids they already have.
func (t *groupTable) grow() {
	old := t.ents
	t.ents = make([]groupEnt, 2*len(old))
	mask, shift := t.geometry()
	for _, e := range old {
		if e.epoch != t.epoch {
			continue
		}
		h := (e.key * hashMul) >> shift
		for t.ents[h].epoch == t.epoch {
			h = (h + 1) & mask
		}
		t.ents[h] = e
	}
}

// extendZero grows s by n zeroed elements.
func extendZero(s []float64, n int) []float64 {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// allocAccs carves a zeroed slab of n accumulators out of the scratch's
// arena. Growing the arena leaves earlier slabs valid in the old array.
func (sc *scratch) allocAccs(n int) []float64 {
	sc.paccs = extendZero(sc.paccs, n)
	return sc.paccs[len(sc.paccs)-n:]
}

// resetPartials drops every partial the scratch has produced, keeping the
// arenas' capacity for the next scan.
func (sc *scratch) resetPartials() {
	clear(sc.bkeys) // let the key strings go
	sc.pkeys, sc.bkeys, sc.paccs = sc.pkeys[:0], sc.bkeys[:0], sc.paccs[:0]
}

// trim releases what one large scan grew, so that a pooled scratch pins a
// bounded amount: arenas past maxPooledAccs (they hold a whole scan's
// partials, partitions × groups × comps) and a hashed group table past the
// size of a direct one.
func (sc *scratch) trim() {
	if cap(sc.paccs) > maxPooledAccs {
		sc.pkeys, sc.bkeys, sc.paccs = nil, nil, nil
	}
	if len(sc.groups.ents) > 1<<directKeyBits {
		sc.groups = groupTable{}
	}
}

// keyBits is the width of a whole packed key.
func (c *Compiled) keyBits() uint { return c.packBits * uint(len(c.groupIdx)) }

// evalPackedGroups is the GROUP BY path for categorical columns whose codes
// pack into one uint64: keys are built column-at-a-time over the selected
// rows and resolved to dense slots through the scratch's group table —
// direct-indexed when the key space is small (see directKeyBits), which
// keeps the one-column case a code-indexed loop on all but very wide
// dictionaries. A column nothing has read yet (table.Partition.FirstTouch)
// gives its codes in encoded form: bit-packed ones through At, run-length
// ones from a walk over the runs that only moves forward, the selection
// being ascending. They are the codes the decoded column would hold.
func (c *Compiled) evalPackedGroups(p *table.Partition, sel []int32, sc *scratch) partial {
	keys := sc.keyBuf(len(sel))
	clear(keys)
	var seen uint32
	for _, gi := range c.groupIdx {
		if e := p.FirstTouch(gi); e != nil {
			if e.Kind == table.EncRLE {
				run := 0
				for i, r := range sel {
					for e.RunEnds[run] <= r {
						run++
					}
					code := e.RunVals[run]
					seen |= code
					keys[i] = keys[i]<<c.packBits | uint64(code)
				}
			} else {
				for i, r := range sel {
					code := uint32(e.At(int(r)))
					seen |= code
					keys[i] = keys[i]<<c.packBits | uint64(code)
				}
			}
			continue
		}
		codes := p.CatCol(gi)
		for i, r := range sel {
			code := codes[r]
			seen |= code
			keys[i] = keys[i]<<c.packBits | uint64(code)
		}
	}
	if uint64(seen)>>c.packBits != 0 {
		// A code wider than the dictionary's packing slot (possible only on
		// a corrupted partition): byte keys group it as the reference does.
		return c.evalGenericGroups(p, sel, sc)
	}
	gidx := sc.gidxBuf(len(sel))
	at := len(sc.pkeys)
	sc.groups.begin(c.keyBits())
	sc.pkeys = sc.groups.resolve(keys, gidx, sc.pkeys)
	order := sc.pkeys[at:]
	accs := sc.allocAccs(len(order) * c.comps)
	c.accumulate(p, sel, gidx, accs, sc)
	return partial{packed: order, accs: accs}
}

// evalGenericGroups handles arbitrary GROUP BY lists: keys are encoded per
// selected row (only for rows that survived the predicate) and resolved to
// dense slots through a reusable map, then accumulation runs column-at-a-time
// like every other path.
func (c *Compiled) evalGenericGroups(p *table.Partition, sel []int32, sc *scratch) partial {
	lut := sc.groupLut()
	gidx := sc.gidxBuf(len(sel))
	at := len(sc.bkeys)
	kb := sc.keyBytes
	sc.gnum, sc.gcat = c.groupCols(p, sc.gnum[:0], sc.gcat[:0])
	for i, r := range sel {
		kb = appendKey(kb[:0], sc.gnum, sc.gcat, int(r))
		id, ok := lut[string(kb)]
		if !ok {
			id = int32(len(sc.bkeys) - at)
			key := string(kb)
			lut[key] = id
			sc.bkeys = append(sc.bkeys, key)
		}
		gidx[i] = id
	}
	sc.keyBytes = kb
	// A pooled scratch must not keep the partition's columns alive.
	clear(sc.gnum)
	clear(sc.gcat)
	order := sc.bkeys[at:]
	accs := sc.allocAccs(len(order) * c.comps)
	c.accumulate(p, sel, gidx, accs, sc)
	return partial{bytes: order, accs: accs}
}

// byteKey renders a packed key in appendKey's byte encoding — the form
// Answer.Groups, FinalValues and GroupLabel key on.
func (c *Compiled) byteKey(k uint64) string {
	var b [4 * 64]byte // packWidth admits at most 64 columns
	n := len(c.groupIdx)
	mask := uint64(1)<<c.packBits - 1
	for j := n - 1; j >= 0; j-- {
		binary.LittleEndian.PutUint32(b[4*j:], uint32(k&mask))
		k >>= c.packBits
	}
	return string(b[:4*n])
}

// keyOf returns the byte key of pt's g-th group.
func (c *Compiled) keyOf(pt partial, g int) string {
	if pt.bytes != nil {
		return pt.bytes[g]
	}
	return c.byteKey(pt.packed[g])
}

// answer builds the map form over a copy of pt's slab, one key string per
// group: the rendering every caller but the serving path reads (ordered is
// the other).
func (c *Compiled) answer(pt partial) *Answer {
	n := len(pt.accs) / c.comps
	accs := slices.Clone(pt.accs)
	ans := &Answer{comps: c.comps, Groups: make(map[string][]float64, n)}
	for g := 0; g < n; g++ {
		ans.Groups[c.keyOf(pt, g)] = accs[g*c.comps : (g+1)*c.comps : (g+1)*c.comps]
	}
	return ans
}

// fold combines a scan's partials by weight into one flat total, the only
// place partials are combined. Partial i is added with weight sel[i].Weight,
// in index order: every final accumulator receives acc += w*v from the
// partials holding its group, in that order, starting from zero — exactly
// the additions Answer.AddWeighted performs when folding per-partition
// Answers, so the result is bit-identical to that fold. What differs is the
// bookkeeping: groups resolve through one scan-level slot table, and no map
// or key string is made here at all — answer and ordered render the total.
//
// sc lends its group table and slot buffer, and the total is carved from the
// tails of its arenas like any partial: in first-seen order, valid until sc
// is reset. sc may be a scratch that produced some of parts (those stay
// valid) but no evaluation may run on it concurrently.
func (c *Compiled) fold(parts []partial, sel []WeightedPartition, sc *scratch) partial {
	// One byte-keyed partial (a packed query's corrupted partition) moves
	// the whole fold to byte keys, where a generic query's always is.
	packed := c.packBits > 0
	for _, pt := range parts {
		packed = packed && pt.bytes == nil
	}
	pkAt, bkAt, accAt := len(sc.pkeys), len(sc.bkeys), len(sc.paccs)
	var lut map[string]int32
	if packed {
		sc.groups.begin(c.keyBits())
	} else {
		lut = sc.groupLut()
	}
	comps := c.comps
	for i, pt := range parts {
		n := len(pt.accs) / comps
		slots := sc.gidxBuf(n)
		groups := 0
		if packed {
			sc.pkeys = sc.groups.resolve(pt.packed, slots, sc.pkeys)
			groups = len(sc.pkeys) - pkAt
		} else {
			for g := range slots {
				key := c.keyOf(pt, g)
				id, ok := lut[key]
				if !ok {
					id = int32(len(sc.bkeys) - bkAt)
					lut[key] = id
					sc.bkeys = append(sc.bkeys, key)
				}
				slots[g] = id
			}
			groups = len(sc.bkeys) - bkAt
		}
		// Growing the arena moves the total; the partials stay where they are.
		sc.paccs = extendZero(sc.paccs, accAt+groups*comps-len(sc.paccs))
		accs := sc.paccs[accAt:]
		w := sel[i].Weight
		for g, id := range slots {
			dst := accs[int(id)*comps:][:comps]
			for j, v := range pt.accs[g*comps:][:comps] {
				dst[j] += w * v
			}
		}
	}
	total := partial{accs: sc.paccs[accAt:]}
	if packed {
		total.packed = sc.pkeys[pkAt:]
	} else {
		total.bytes = sc.bkeys[bkAt:]
	}
	return total
}

package table

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Table is a partitioned dataset: an ordered list of immutable partitions
// sharing one schema and one categorical dictionary.
type Table struct {
	Schema *Schema
	Dict   *Dict
	Parts  []*Partition
}

// NumParts returns the number of partitions.
func (t *Table) NumParts() int { return len(t.Parts) }

// NumRows returns the total row count across partitions.
func (t *Table) NumRows() int {
	n := 0
	for _, p := range t.Parts {
		n += p.Rows()
	}
	return n
}

// TotalBytes returns the full storage footprint of the table.
func (t *Table) TotalBytes() int {
	n := 0
	for _, p := range t.Parts {
		n += p.SizeBytes()
	}
	return n
}

// rowRef addresses one row for re-layout operations.
type rowRef struct {
	part, row int
}

// rowRefs lists every row's coordinates in table order.
func (t *Table) rowRefs() []rowRef {
	refs := make([]rowRef, 0, t.NumRows())
	for pi, p := range t.Parts {
		for r := 0; r < p.Rows(); r++ {
			refs = append(refs, rowRef{pi, r})
		}
	}
	return refs
}

// Relayout produces a new table with the same rows — in table order, or in
// shuffle's random order when it is non-nil — re-partitioned into numParts
// near-equal partitions. With SortBy it is how the dataset generators realize
// the paper's "sorted by column X" and "random" layouts.
func (t *Table) Relayout(numParts int, shuffle *rand.Rand) (*Table, error) {
	if numParts <= 0 {
		return nil, fmt.Errorf("table: numParts must be positive, got %d", numParts)
	}
	refs := t.rowRefs()
	if shuffle != nil {
		shuffle.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	}
	return t.gather(refs, numParts), nil
}

// SortBy returns a copy of the table sorted by the named columns (ascending,
// ties broken by later columns, then by table order) and split into numParts
// partitions. Numeric columns order by value; categorical ones by the string
// Dict.Value gives each code.
func (t *Table) SortBy(numParts int, cols ...string) (*Table, error) {
	idx := make([]int, 0, len(cols))
	for _, name := range cols {
		ci := t.Schema.ColIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("table: sort column %q not in schema", name)
		}
		idx = append(idx, ci)
	}
	if numParts <= 0 {
		return nil, fmt.Errorf("table: numParts must be positive, got %d", numParts)
	}
	// One key column per sort column over all rows in table order: the value
	// of a numeric column, the rank of a categorical value's string.
	keys := make([][]float64, len(idx))
	for k, c := range idx {
		key := make([]float64, 0, t.NumRows())
		if t.Schema.Cols[c].IsNumeric() {
			for _, p := range t.Parts {
				key = append(key, p.NumCol(c)...)
			}
		} else {
			ranks, bad := t.valueRanks(c)
			for _, p := range t.Parts {
				for _, code := range p.CatCol(c) {
					if int(code) < len(ranks) {
						key = append(key, ranks[code])
					} else {
						key = append(key, bad[code])
					}
				}
			}
		}
		keys[k] = key
	}
	order := make([]int, t.NumRows())
	for i := range order {
		order[i] = i
	}
	// The stable sort only asks whether cmp < 0, so −1 for less and 0
	// otherwise makes the comparisons, and so the order, of sort.SliceStable
	// with the same less (both are built from one template), NaN keys
	// included.
	slices.SortStableFunc(order, func(a, b int) int {
		for _, key := range keys {
			if va, vb := key[a], key[b]; va != vb {
				if va < vb {
					return -1
				}
				return 0
			}
		}
		return 0
	})
	all := t.rowRefs()
	refs := make([]rowRef, len(order))
	for i, o := range order {
		refs[i] = all[o]
	}
	return t.gather(refs, numParts), nil
}

// valueRanks ranks the values of categorical column c by string order:
// ranks[code] for a dictionary code, bad[code] for a code outside it (only
// a corrupt partition holds one), which ranks by the diagnostic string
// Dict.Value gives it. Codes whose strings are equal share a rank.
func (t *Table) valueRanks(c int) (ranks []float64, bad map[uint32]float64) {
	n := t.Dict.Len()
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(i)
	}
	for _, p := range t.Parts {
		for _, code := range p.CatCol(c) {
			if int(code) >= n {
				if bad == nil {
					bad = map[uint32]float64{}
				}
				if _, seen := bad[code]; !seen {
					bad[code] = 0
					codes = append(codes, code)
				}
			}
		}
	}
	slices.SortFunc(codes, func(a, b uint32) int { return strings.Compare(t.Dict.Value(a), t.Dict.Value(b)) })
	ranks = make([]float64, n)
	rank := 0
	for i, code := range codes {
		if i > 0 && t.Dict.Value(code) != t.Dict.Value(codes[i-1]) {
			rank++
		}
		if int(code) < n {
			ranks[code] = float64(rank)
		} else {
			bad[code] = float64(rank)
		}
	}
	return ranks, bad
}

// Shuffled returns a randomly re-ordered copy of the table split into
// numParts partitions, using rng for reproducibility.
func (t *Table) Shuffled(numParts int, rng *rand.Rand) (*Table, error) {
	return t.Relayout(numParts, rng)
}

// Repartition keeps the current row order but re-chunks into numParts
// partitions.
func (t *Table) Repartition(numParts int) (*Table, error) {
	return t.Relayout(numParts, nil)
}

// gather materializes a new table from an ordered list of row references,
// cut into numParts near-equal partitions (the first len(refs)%numParts one
// row longer; empty ones dropped). It fills one column at a time.
func (t *Table) gather(refs []rowRef, numParts int) *Table {
	var chunks [][]rowRef
	base, extra := len(refs)/numParts, len(refs)%numParts
	for pi, start := 0, 0; pi < numParts && start < len(refs); pi++ {
		size := base
		if pi < extra {
			size++
		}
		if size > 0 {
			chunks = append(chunks, refs[start:start+size])
		}
		start += size
	}
	num := make([][][]float64, len(chunks))
	cat := make([][][]uint32, len(chunks))
	for i := range chunks {
		num[i] = make([][]float64, t.Schema.NumCols())
		cat[i] = make([][]uint32, t.Schema.NumCols())
	}
	srcNum := make([][]float64, len(t.Parts))
	srcCat := make([][]uint32, len(t.Parts))
	for c, col := range t.Schema.Cols {
		for pi, p := range t.Parts {
			srcNum[pi], srcCat[pi] = p.NumCol(c), p.CatCol(c)
		}
		for i, chunk := range chunks {
			if col.IsNumeric() {
				dst := make([]float64, len(chunk))
				for r, ref := range chunk {
					dst[r] = srcNum[ref.part][ref.row]
				}
				num[i][c] = dst
			} else {
				dst := make([]uint32, len(chunk))
				for r, ref := range chunk {
					dst[r] = srcCat[ref.part][ref.row]
				}
				cat[i][c] = dst
			}
		}
	}
	out := &Table{Schema: t.Schema, Dict: t.Dict, Parts: make([]*Partition, len(chunks))}
	for i, chunk := range chunks {
		np, err := MakePartition(t.Schema, i, len(chunk), num[i], cat[i])
		if err != nil {
			// Unreachable: the slices above are built to the schema's shape.
			panic(err)
		}
		out.Parts[i] = np
	}
	return out
}

package query

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ps3/internal/exec"
	"ps3/internal/table"
)

// Query is a single-table aggregation query within PS3's scope (§2.2):
// SELECT <GroupBy...>, <Aggs...> FROM t WHERE <Pred> GROUP BY <GroupBy...>.
type Query struct {
	Aggs    []Aggregate
	Pred    Pred
	GroupBy []string
}

// String renders the query in SQL-ish form for logs and docs.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, g := range q.GroupBy {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(g)
	}
	for i, a := range q.Aggs {
		if i > 0 || len(q.GroupBy) > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteString(" FROM t")
	if q.Pred != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(q.Pred.String())
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(q.GroupBy, ", "))
	}
	return sb.String()
}

// Columns returns all distinct columns the query references (aggregates,
// filters, predicate, group by) — the set used for query-dependent feature
// masking.
func (q *Query) Columns() []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, a := range q.Aggs {
		for _, c := range a.Expr.Columns() {
			add(c)
		}
		for _, c := range Columns(a.Filter) {
			add(c)
		}
	}
	for _, c := range Columns(q.Pred) {
		add(c)
	}
	for _, g := range q.GroupBy {
		add(g)
	}
	return out
}

// aggSlot maps an aggregate to its accumulator slots.
type aggSlot struct {
	kind AggKind
	expr *exprKernel
	// filter / filterKern are the row-at-a-time and vectorized compilations
	// of the aggregate's FILTER predicate (both nil when unfiltered).
	filter     rowFn
	filterKern kernel
	// first accumulator index; AVG uses two consecutive slots (sum, count).
	at int
}

// Compiled is a query bound to a schema and dictionary, ready to evaluate on
// partitions.
type Compiled struct {
	Q      *Query
	schema *table.Schema
	dict   *table.Dict
	// pred is the row-at-a-time predicate (reference path, textual order).
	// The vectorized hot path runs where, the predicate as a root
	// conjunction (nil = no predicate); see selectRows.
	pred  rowFn
	where *conj
	// textual is the initial child order of every And node of the query,
	// WHERE clause and FILTERs alike: what scratch.resetOrder copies.
	textual  []int32
	groupIdx []int
	// packBits > 0 selects the packed GROUP BY path: every group-by column
	// is categorical and their dictionary codes, packBits each, fit one
	// uint64 (so does the empty list of an ungrouped query). 0 selects the
	// generic byte-key path: a numeric column, or too many wide ones.
	packBits uint
	slots    []aggSlot
	comps    int
	// labels is the one thing a Compiled remembers from scan to scan: what
	// ordered has rendered (see labelMemo). Behind a pointer, so that a copy
	// of a Compiled copies no lock.
	labels *labelMemo

	// Exec configures the parallel scans (GroundTruth, EstimateCtx,
	// Selectivity). The zero value uses GOMAXPROCS workers; Parallelism 1
	// forces a sequential scan. Results are bit-identical at every worker
	// count: partitions are evaluated in parallel but always merged in
	// partition order.
	Exec exec.Options
}

// Compile binds q against the source's schema and dictionary, validating all
// column references. Any PartitionSource works — a resident *table.Table or
// a paged store reader — since compilation touches only metadata, never
// partition data.
func Compile(q *Query, src table.PartitionSource) (*Compiled, error) {
	schema, dict := src.TableSchema(), src.TableDict()
	c := &Compiled{Q: q, schema: schema, dict: dict, labels: newLabelMemo()}
	var err error
	c.pred, err = compilePred(q.Pred, schema, dict)
	if err != nil {
		return nil, err
	}
	cc := &compiler{schema: schema, dict: dict}
	c.where, err = cc.where(q.Pred)
	if err != nil {
		return nil, err
	}
	for _, g := range q.GroupBy {
		gi := schema.ColIndex(g)
		if gi < 0 {
			return nil, fmt.Errorf("query: unknown group-by column %q", g)
		}
		c.groupIdx = append(c.groupIdx, gi)
	}
	if !slices.ContainsFunc(c.groupIdx, func(gi int) bool { return schema.Col(gi).IsNumeric() }) {
		if w, ok := packWidth(len(c.groupIdx), dict.Len()); ok {
			c.packBits = w
		}
	}
	if len(q.Aggs) == 0 {
		return nil, fmt.Errorf("query: at least one aggregate is required")
	}
	at := 0
	for _, a := range q.Aggs {
		slot := aggSlot{kind: a.Kind, at: at}
		if a.Kind != Count {
			ek, err := a.Expr.compile(schema)
			if err != nil {
				return nil, err
			}
			slot.expr = ek
		}
		if a.Filter != nil {
			fn, err := compilePred(a.Filter, schema, dict)
			if err != nil {
				return nil, err
			}
			slot.filter = fn
			kern, err := cc.kernel(a.Filter)
			if err != nil {
				return nil, err
			}
			slot.filterKern = kern
		}
		c.slots = append(c.slots, slot)
		at += a.components()
	}
	c.comps = at
	c.textual = cc.textual
	return c, nil
}

// Answer holds per-group accumulator vectors. The accumulators are linear
// (sums and counts), so answers from different partitions combine by
// weighted addition (§2.4).
type Answer struct {
	comps  int
	Groups map[string][]float64
}

// NewAnswer returns an empty answer for the compiled query.
func (c *Compiled) NewAnswer() *Answer {
	return &Answer{comps: c.comps, Groups: make(map[string][]float64)}
}

// AddWeighted accumulates w * other into a.
func (a *Answer) AddWeighted(other *Answer, w float64) {
	//lint:mapiter-ok per-group accumulators are disjoint map keys: each group's float sum is unaffected by visit order
	for g, vals := range other.Groups {
		acc, ok := a.Groups[g]
		if !ok {
			acc = make([]float64, a.comps)
			a.Groups[g] = acc
		}
		for i, v := range vals {
			acc[i] += w * v
		}
	}
}

// Merge accumulates other into a with weight 1 — the exact-scan combine
// step (1*v == v in IEEE-754, so this is bit-identical to a plain sum).
func (a *Answer) Merge(other *Answer) { a.AddWeighted(other, 1) }

// EvalPartition computes the query's accumulators on one partition. It runs
// the vectorized kernel path: the predicate narrows a selection vector with
// one column loop per clause, then aggregates accumulate column-at-a-time
// over the surviving rows. Results are bit-identical to the retained
// row-at-a-time EvalPartitionReference (enforced by equivalence tests).
func (c *Compiled) EvalPartition(p *table.Partition) *Answer {
	sc := takeScratch(c)
	ans := c.evalAnswer(p, sc)
	sc.release()
	return ans
}

// evalAnswer evaluates one partition into the map form, the thin adapter
// over evalPartition that EvalPartition and GroundTruth share. It resets
// sc's partials.
func (c *Compiled) evalAnswer(p *table.Partition, sc *scratch) *Answer {
	sc.resetPartials()
	return c.answer(c.evalPartition(p, sc))
}

// evalPartition evaluates one partition with caller-supplied scratch into a
// flat partial carved from the scratch's arenas. There are three group-by
// paths: none, packed categorical keys, and generic byte keys.
func (c *Compiled) evalPartition(p *table.Partition, sc *scratch) partial {
	rows := p.Rows()
	if rows == 0 {
		return partial{}
	}
	sel := c.selectRows(p, sc)
	if len(sel) == 0 {
		return partial{}
	}
	switch {
	case len(c.groupIdx) == 0:
		// Single group: no keys to build, one accumulator vector.
		accs := sc.allocAccs(c.comps)
		c.accumulate(p, sel, nil, accs, sc)
		return partial{packed: ungroupedKey, accs: accs}
	case c.packBits > 0:
		return c.evalPackedGroups(p, sel, sc)
	default:
		return c.evalGenericGroups(p, sel, sc)
	}
}

// selectRows returns the rows of p that pass the predicate, ascending, in
// sc's primary selection buffer: the one place the predicate is run from, and
// so where an evaluation of p starts touching its columns afresh.
func (c *Compiled) selectRows(p *table.Partition, sc *scratch) []int32 {
	sc.touched = sc.touched[:0]
	sel := sc.fullSel(p.Rows())
	if c.where == nil {
		return sel
	}
	return c.where.narrow(p, sel, sc)
}

// accumulate adds each selected row's contribution to its group's
// accumulators. accs is a flat [group][comps] buffer; gidx maps selected
// rows to group slots (nil means one group at slot 0). Work is slot-major —
// one pass over the selection per aggregate: a SUM or AVG forms each row's
// value and adds it, with AVG's count, in the same loop (exprKernel.addInto)
// — but row-ordered within each aggregate, and distinct aggregates write
// distinct accumulator indices, so every accumulator sees the same additions
// in the same order as the row-at-a-time reference: results are
// bit-identical.
func (c *Compiled) accumulate(p *table.Partition, sel, gidx []int32, accs []float64, sc *scratch) {
	stride := c.comps
	for _, s := range c.slots {
		rows, idx := sel, gidx
		if s.filterKern != nil {
			rows, idx = filterSelection(s.filterKern, p, sel, gidx, sc)
			if len(rows) == 0 {
				continue
			}
		}
		at := s.at
		if s.kind != Count {
			s.expr.addInto(p, rows, &sink{accs: accs, idx: idx, stride: stride, at: at, count: s.kind == Avg}, sc)
			continue
		}
		if idx == nil {
			// One integral add equals len(rows) repeated ++s exactly
			// (counts stay far below 2^53).
			accs[at] += float64(len(rows))
		} else {
			for _, g := range idx {
				accs[int(g)*stride+at]++
			}
		}
	}
}

// filterSelection narrows (sel, gidx) to the rows passing a FILTER
// aggregate's predicate, keeping the two vectors aligned. The kernel runs on
// a scratch copy so the main selection survives for the remaining slots.
func filterSelection(k kernel, p *table.Partition, sel, gidx []int32, sc *scratch) ([]int32, []int32) {
	tmp := sc.getSel(len(sel))
	copy(tmp, sel)
	passed := k(p, tmp, sc)
	switch len(passed) {
	case len(sel):
		sc.putSel(tmp)
		return sel, gidx
	case 0:
		sc.putSel(tmp)
		return nil, nil
	}
	// passed is an ascending subset of sel (kernel contract), so a linear
	// merge re-aligns the group slots — no marks buffer needed. Unlike the
	// kernels it keeps its branch: its next comparison reads passed[j], so
	// in the b2i form every row waits on the previous row's outcome, which
	// costs more than the mispredictions it saves except near half passing.
	fsel, fidx := sc.filterBufs(len(passed))
	if gidx == nil {
		copy(fsel, passed)
		sc.putSel(tmp)
		return fsel, nil
	}
	j := 0
	for i, r := range sel {
		if j == len(passed) {
			break
		}
		if r == passed[j] {
			fsel[j] = r
			fidx[j] = gidx[i]
			j++
		}
	}
	sc.putSel(tmp)
	return fsel, fidx
}

// groupCols appends the partition's group-by columns to nums and cats, one
// entry each per column with data on the side matching its kind: looked up
// once per partition, so that appendKey only indexes.
func (c *Compiled) groupCols(p *table.Partition, nums [][]float64, cats [][]uint32) ([][]float64, [][]uint32) {
	for _, gi := range c.groupIdx {
		nums = append(nums, p.NumCol(gi))
		cats = append(cats, p.CatCol(gi))
	}
	return nums, cats
}

// appendKey encodes the group-by values of row r, from the columns groupCols
// resolved, into buf.
func appendKey(buf []byte, nums [][]float64, cats [][]uint32, r int) []byte {
	for j, col := range nums {
		if col != nil {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(col[r]))
		} else {
			buf = binary.LittleEndian.AppendUint32(buf, cats[j][r])
		}
	}
	return buf
}

// GroupLabel decodes a group key into human-readable column=value parts.
// Keys that don't match the query's group-by encoding (too short, trailing
// bytes, or a dictionary code the table never assigned) yield a diagnostic
// label instead of panicking, since labels are rendered in logs and error
// reports where the key may come from an untrusted or stale source.
func (c *Compiled) GroupLabel(key string) string {
	if len(c.groupIdx) == 0 {
		return "<all>"
	}
	var buf [96]byte // most labels fit: one allocation, the returned string
	label := buf[:0]
	b := key
	for i, gi := range c.groupIdx {
		col := c.schema.Col(gi)
		if i > 0 {
			label = append(label, ',')
		}
		label = append(append(label, col.Name...), '=')
		if col.IsNumeric() {
			if len(b) < 8 {
				return malformedKeyLabel(key, len(c.groupIdx))
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64([]byte(b[:8])))
			b = b[8:]
			label = strconv.AppendFloat(label, v, 'g', -1, 64)
		} else {
			if len(b) < 4 {
				return malformedKeyLabel(key, len(c.groupIdx))
			}
			code := binary.LittleEndian.Uint32([]byte(b[:4]))
			b = b[4:]
			if int(code) >= c.dict.Len() {
				label = append(label, "<bad code "...)
				label = append(strconv.AppendUint(label, uint64(code), 10), '>')
				continue
			}
			label = append(label, c.dict.Value(code)...)
		}
	}
	if len(b) != 0 {
		return malformedKeyLabel(key, len(c.groupIdx))
	}
	return string(label)
}

// malformedKeyLabel is the diagnostic label for group keys whose length does
// not match the query's group-by encoding.
func malformedKeyLabel(key string, groupCols int) string {
	return "<malformed key: " + strconv.Itoa(len(key)) + " bytes for " + strconv.Itoa(groupCols) + " group-by column(s)>"
}

// FinalValues converts an answer's accumulators into the d final aggregate
// values per group (AVG = sum/count; empty AVG groups yield 0).
func (c *Compiled) FinalValues(a *Answer) map[string][]float64 {
	out := make(map[string][]float64, len(a.Groups))
	d := len(c.slots)
	slab := make([]float64, d*len(a.Groups))
	//lint:mapiter-ok independent per-key map-to-map transform; no accumulation across keys
	for g, acc := range a.Groups {
		vals := slab[:d:d]
		slab = slab[d:]
		c.finalInto(vals, acc)
		out[g] = vals
	}
	return out
}

// finalInto writes one group's d final aggregate values from its
// accumulators.
func (c *Compiled) finalInto(vals, acc []float64) {
	for i, s := range c.slots {
		switch s.kind {
		case Sum, Count:
			vals[i] = acc[s.at]
		case Avg:
			if acc[s.at+1] != 0 {
				vals[i] = acc[s.at] / acc[s.at+1]
			}
		}
	}
}

// GroundTruth evaluates the query exactly over every partition of the
// resident table (the offline oracle used to score experiments) and also returns the per-partition answers, which
// both training-label generation and error evaluation reuse.
func (c *Compiled) GroundTruth(t *table.Table) (total *Answer, perPart []*Answer) {
	// Partitions are scanned in parallel with one scratch per worker (no
	// per-partition allocation); the fold over per-partition answers stays
	// sequential in partition order so the accumulator sums are
	// bit-identical to a single-threaded scan at any worker count.
	scs := scanScratches{c: c}
	perPart = exec.MapWith(len(t.Parts), c.Exec, scs.take,
		func(sc *scratch, i int) *Answer { return c.evalAnswer(t.Parts[i], sc) })
	scs.release()
	total = c.NewAnswer()
	for _, pa := range perPart {
		total.Merge(pa)
	}
	return total, perPart
}

// Selectivity returns the exact fraction of the table's rows that satisfy
// the query's predicate. The predicate runs as a selection kernel per
// partition; the passing count is the surviving selection's length.
func (c *Compiled) Selectivity(t *table.Table) float64 {
	// Integer counts merge exactly, so per-worker accumulators suffice; the
	// scratch rides in the accumulator, giving one per block.
	type counts struct {
		pass, rows int
		sc         *scratch
	}
	scs := scanScratches{c: c}
	total := exec.Reduce(len(t.Parts), c.Exec,
		//lint:scratchescape-ok counts is exec.Reduce's per-worker accumulator: each worker builds and exclusively owns one
		func() counts { return counts{sc: scs.take()} },
		func(acc counts, i int) counts {
			p := t.Parts[i]
			acc.rows += p.Rows()
			acc.pass += len(c.selectRows(p, acc.sc))
			return acc
		},
		func(a, b counts) counts {
			a.pass += b.pass
			a.rows += b.rows
			return a
		})
	scs.release()
	if total.rows == 0 {
		return 0
	}
	return float64(total.pass) / float64(total.rows)
}

// EstimateCtx evaluates the query on a weighted selection of partition ids,
// reading each selected partition from src, and returns the combined
// approximate answer. Selected partitions are scanned in parallel; the
// weighted combine runs in selection order, keeping the answer bit-identical
// to a sequential evaluation. With a paged source a read can fail (disk
// error, corrupted block); the error reported matches what a sequential loop
// would have hit first.
//
// The deadline contract: a request whose context is done when the scan
// joins never returns success. The scan pool stops claiming partitions once
// ctx is done, and ctx is checked once more after the pool joins, so a scan
// whose every partition was claimed before the deadline but finished after
// it (few partitions, several workers, slow reads) reports ctx.Err() exactly
// like one that was cut short — whether a blown deadline is reported does
// not depend on worker or partition count. A read error still wins over the
// context error.
func (c *Compiled) EstimateCtx(ctx context.Context, src table.PartitionSource, sel []WeightedPartition) (*Answer, error) {
	return scan(ctx, c, src, sel, func(total partial, _ *scratch) *Answer { return c.answer(total) })
}

// EstimateGroupsCtx is EstimateCtx rendered for a response instead of for
// arithmetic: the same scan and the same fold, its total finalized straight
// into label-ordered groups (see ordered) with no map in between. Group for
// group it holds the labels and value bits FinalValues and GroupLabel give
// for EstimateCtx's answer.
func (c *Compiled) EstimateGroupsCtx(ctx context.Context, src table.PartitionSource, sel []WeightedPartition) ([]Group, error) {
	return scan(ctx, c, src, sel, c.ordered)
}

// scan is the weighted scan behind both renderings: read and evaluate the
// selected partitions in parallel, fold the partials in selection order, and
// hand the flat total to render while the scratch holding it is still the
// scan's.
func scan[T any](ctx context.Context, c *Compiled, src table.PartitionSource, sel []WeightedPartition, render func(total partial, sc *scratch) T) (out T, err error) {
	// Worker scratches come from the pool, one per worker the scan actually
	// starts, and go back only after the total is rendered: the partials the
	// scan returns, and the total folded from them, live in their arenas
	// until then.
	scs := scanScratches{c: c}
	parts, err := exec.MapErrWithCtx(ctx, len(sel), c.Exec, scs.take,
		func(sc *scratch, i int) (partial, error) {
			p, err := src.Read(sel[i].Part)
			if err != nil {
				return partial{}, err
			}
			pt := c.evalPartition(p, sc)
			// The partial holds copied keys and accumulators, nothing of the
			// partition: the scan is this read's last use of it.
			p.Release()
			return pt, nil
		})
	if err == nil && ctx != nil {
		err = ctx.Err()
	}
	if err == nil {
		if len(scs.taken) == 0 { // exec starts a worker even over no items; fold must not depend on it
			scs.take()
		}
		sc := scs.taken[0]
		out = render(c.fold(parts, sel, sc), sc)
	}
	scs.release()
	return out, err
}

// scanScratches lends pooled scratches to the workers of one scan of c and
// gives them back together, once nothing the scan returned lives in them.
type scanScratches struct {
	c     *Compiled
	mu    sync.Mutex
	taken []*scratch
}

// take is the per-worker state factory of the exec primitives.
func (s *scanScratches) take() *scratch {
	sc := takeScratch(s.c)
	s.mu.Lock()
	s.taken = append(s.taken, sc)
	s.mu.Unlock()
	return sc
}

// release is not to be deferred: see scratch.release.
func (s *scanScratches) release() {
	for _, sc := range s.taken {
		sc.release()
	}
}

// WeightedPartition is one (partition, weight) choice in a sample (§2.4).
type WeightedPartition struct {
	Part   int
	Weight float64
}

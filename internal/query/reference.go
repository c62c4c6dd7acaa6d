package query

import "ps3/internal/table"

// This file retains the original row-at-a-time evaluator as the engine's
// reference implementation. It interprets the compiled rowFn closure tree
// one row at a time — slow, but trivially auditable against the paper's
// semantics — and serves as the oracle for the vectorized path: equivalence
// tests require EvalPartition to be bit-identical to it on randomized
// query/partition corpora, and benchmarks use it as the speedup baseline.

// EvalPartitionReference computes the query's accumulators on one partition
// row-at-a-time. Its answers are bit-identical to EvalPartition: the
// vectorized path preserves row-order accumulation per accumulator slot, so
// the float sums see the same additions in the same order.
func (c *Compiled) EvalPartitionReference(p *table.Partition) *Answer {
	ans := c.NewAnswer()
	var keyBuf []byte
	nums, cats := c.groupCols(p, nil, nil)
	rows := p.Rows()
	for r := 0; r < rows; r++ {
		if !c.pred(p, r) {
			continue
		}
		keyBuf = appendKey(keyBuf[:0], nums, cats, r)
		acc, ok := ans.Groups[string(keyBuf)]
		if !ok {
			acc = make([]float64, c.comps)
			ans.Groups[string(keyBuf)] = acc
		}
		for _, s := range c.slots {
			if s.filter != nil && !s.filter(p, r) {
				continue
			}
			switch s.kind {
			case Sum:
				acc[s.at] += s.expr.evalRow(p, r)
			case Count:
				acc[s.at]++
			case Avg:
				acc[s.at] += s.expr.evalRow(p, r)
				acc[s.at+1]++
			}
		}
	}
	return ans
}

// SelectivityReference is the row-at-a-time counterpart of Selectivity: a
// sequential scan evaluating the predicate closure per row. Counts are
// integers, so it returns exactly the same value as the kernel path.
func (c *Compiled) SelectivityReference(t *table.Table) float64 {
	pass, rows := 0, 0
	for _, p := range t.Parts {
		n := p.Rows()
		rows += n
		for r := 0; r < n; r++ {
			if c.pred(p, r) {
				pass++
			}
		}
	}
	if rows == 0 {
		return 0
	}
	return float64(pass) / float64(rows)
}

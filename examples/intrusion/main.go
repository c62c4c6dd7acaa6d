// Intrusion: security analytics over a KDD'99-style network log. Attack
// traffic is wildly skewed (smurf+neptune ≈ 80% of rows), so uniform
// partition samples either drown in flood traffic or miss rare attacks.
// This example contrasts PS3 with uniform partition sampling on an
// attack-breakdown query at the same budget.
//
//	go run ./examples/intrusion
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"

	"ps3/internal/core"
	"ps3/internal/dataset"
	"ps3/internal/picker"
	"ps3/internal/query"
)

func main() {
	ds, err := dataset.KDD(dataset.Config{Rows: 80_000, Parts: 160, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network log: %d rows, %d partitions, sorted by %v\n",
		ds.Table.NumRows(), ds.Table.NumParts(), ds.SortCols)

	sys, err := core.New(ds.Table, core.Options{Workload: ds.Workload, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, ds.Table, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training on 80 workload queries...")
	if err := sys.Train(gen.SampleN(80), nil); err != nil {
		log.Fatal(err)
	}

	// How much suspicious TCP traffic did each attack type move?
	q := &query.Query{
		GroupBy: []string{"label"},
		Pred: query.NewAnd(
			&query.Clause{Col: "protocol_type", Op: query.OpEq, Strs: []string{"tcp"}},
		),
		Aggs: []query.Aggregate{
			{Kind: query.Count, Name: "connections"},
			{Kind: query.Sum, Expr: query.Col("src_bytes"), Name: "bytes_out"},
		},
	}
	fmt.Printf("\nquery: %s\n", q)

	ex, err := sys.MakeExample(q)
	if err != nil {
		log.Fatal(err)
	}
	const budget = 0.08
	n := int(budget*float64(ds.Table.NumParts()) + 0.5)

	ps3Sel, err := sys.Pick(q, budget)
	if err != nil {
		log.Fatal(err)
	}
	ps3Est := picker.EstimateFromPerPart(ex.Compiled, ex.PerPart, ps3Sel)
	rng := rand.New(rand.NewSource(33))
	uniEst := picker.EstimateFromPerPart(ex.Compiled, ex.PerPart,
		picker.Uniform(ds.Table.NumParts(), n, rng))

	keys := make([]string, 0, len(ex.TruthVals))
	for g := range ex.TruthVals {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(a, b int) bool { // largest first, ties in label order
		if va, vb := ex.TruthVals[keys[a]][0], ex.TruthVals[keys[b]][0]; va != vb {
			return va > vb
		}
		return ex.Compiled.GroupLabel(keys[a]) < ex.Compiled.GroupLabel(keys[b])
	})
	fmt.Printf("\n%-28s%14s%14s%14s\n", "attack", "exact conns", "PS3(8%)", "uniform(8%)")
	missPS3, missUni := 0, 0
	for _, g := range keys {
		tv := ex.TruthVals[g][0]
		pv, uok := 0.0, false
		if v, ok := ps3Est[g]; ok {
			pv = v[0]
		} else {
			missPS3++
		}
		var uv float64
		if v, ok := uniEst[g]; ok {
			uv, uok = v[0], true
		}
		if !uok {
			missUni++
		}
		fmt.Printf("%-28s%14.0f%14.0f%14.0f\n", ex.Compiled.GroupLabel(g), tv, pv, uv)
	}
	fmt.Printf("\nattack types missed at 8%% budget: PS3 %d, uniform %d (of %d)\n",
		missPS3, missUni, len(keys))
	relErr := func(est map[string][]float64) float64 {
		var sum float64
		var cnt int
		for _, g := range keys {
			tv := ex.TruthVals[g]
			for j := range tv {
				var e float64
				if v, ok := est[g]; ok {
					e = v[j]
				}
				if tv[j] != 0 {
					sum += math.Min(math.Abs(e-tv[j])/math.Abs(tv[j]), 1)
					cnt++
				}
			}
		}
		return sum / float64(cnt) * 100
	}
	fmt.Printf("avg relative error: PS3 %.1f%%, uniform %.1f%%\n", relErr(ps3Est), relErr(uniEst))
}

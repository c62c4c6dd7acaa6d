// TPC-H: decision-support reporting on the denormalized, skew-heavy TPCH*
// table. PS3 is trained on the random workload of §5.1.2 and then asked
// unseen TPC-H template queries (Q1, Q6, ...) — the generalization setting
// of §5.5.4 — at several sampling budgets.
//
//	go run ./examples/tpch
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"ps3/internal/core"
	"ps3/internal/dataset"
	"ps3/internal/exec"
	"ps3/internal/picker"
	"ps3/internal/query"
)

func main() {
	ds, err := dataset.TPCHStar(dataset.Config{Rows: 90_000, Parts: 180, Seed: 31})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPCH*: %d rows, %d partitions, sorted by %v\n",
		ds.Table.NumRows(), ds.Table.NumParts(), ds.SortCols)

	sys, err := core.New(ds.Table, core.Options{Workload: ds.Workload, Seed: 13})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, ds.Table, 14)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training on 100 random workload queries (TPC-H templates unseen)...")
	if err := sys.Train(gen.SampleN(100), nil); err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	budgets := []float64{0.02, 0.05, 0.10, 0.20}
	fmt.Printf("\n%-6s%10s", "query", "groups")
	for _, b := range budgets {
		fmt.Printf("%14s", fmt.Sprintf("err@%.0f%%", b*100))
	}
	fmt.Println(" (avg rel err, PS3)")
	for _, tmpl := range dataset.TPCHTemplates() {
		q := tmpl.Instantiate(rng)
		ex, err := sys.MakeExample(q)
		if err != nil {
			log.Fatal(err)
		}
		if len(ex.TruthVals) == 0 {
			fmt.Printf("%-6s%10s  (no matching rows for these parameters)\n", tmpl.Name, "-")
			continue
		}
		fmt.Printf("%-6s%10d", tmpl.Name, len(ex.TruthVals))
		for _, b := range budgets {
			n := int(b*float64(ds.Table.NumParts()) + 0.5)
			sel := sys.Picker.PickBatch(q, n, rng, exec.Options{Parallelism: 1})
			est := picker.EstimateFromPerPart(ex.Compiled, ex.PerPart, sel)
			fmt.Printf("%13.1f%%", avgRelErr(ex.TruthVals, est)*100)
		}
		fmt.Println()
	}
	fmt.Println("\nsee `ps3bench -exp fig9` for the full generalization experiment.")
}

func avgRelErr(truth, est map[string][]float64) float64 {
	var sum float64
	var cnt int
	for g, tv := range truth {
		for j := range tv {
			var e float64
			if v, ok := est[g]; ok {
				e = v[j]
			}
			switch {
			case tv[j] == 0 && e == 0:
				// exact
			case tv[j] == 0:
				sum++
			default:
				sum += math.Min(math.Abs(e-tv[j])/math.Abs(tv[j]), 1)
			}
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

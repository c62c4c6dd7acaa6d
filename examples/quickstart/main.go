// Quickstart: build a partitioned table, train PS3 on a workload, persist
// the trained system, restore it in a server and answer a query
// approximately by reading a fraction of the partitions — the library flow
// of README's "Library use", on the public ps3 package alone.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"ps3"
)

func main() {
	// 1. Ingest: a sales table of (region, product, amount, day), appended
	// in time order and sealed into 500-row partitions — the layout big-data
	// clusters actually have (§2.1: data stays in ingest order).
	schema := ps3.MustSchema(
		ps3.Column{Name: "region", Kind: ps3.Categorical},
		ps3.Column{Name: "product", Kind: ps3.Categorical},
		ps3.Column{Name: "amount", Kind: ps3.Numeric, Positive: true},
		ps3.Column{Name: "day", Kind: ps3.Date},
	)
	b, err := ps3.NewBuilder(schema, 500)
	if err != nil {
		log.Fatal(err)
	}
	regions := []string{"emea", "amer", "apac"}
	products := []string{"anvil", "rocket", "tnt", "magnet"}
	rng := rand.New(rand.NewSource(7))
	for day := 0; day < 100; day++ {
		for i := 0; i < 500; i++ {
			region := regions[rng.Intn(len(regions))]
			product := products[rng.Intn(len(products))]
			// Sales grow over time and the rocket launches on day 60.
			amount := (10 + rng.Float64()*90) * (1 + float64(day)/50)
			if product == "rocket" && day < 60 {
				amount = 0
			}
			num := []float64{0, 0, amount, float64(day)}
			cat := []string{region, product, "", ""}
			if err := b.Append(num, cat); err != nil {
				log.Fatal(err)
			}
		}
	}
	tbl := b.Finish()
	fmt.Printf("table: %d rows in %d partitions\n", tbl.NumRows(), tbl.NumParts())

	// 2. Offline: build summary statistics and train the picker on the
	// workload specification (which columns get grouped, filtered,
	// aggregated), then persist the trained system.
	wl := ps3.Workload{
		GroupableCols: []string{"region", "product"},
		PredicateCols: []string{"region", "product", "amount", "day"},
		AggCols:       []string{"amount"},
	}
	sys, err := ps3.Open(tbl, ps3.Options{Workload: wl, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := ps3.NewGenerator(wl, tbl, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training on 60 workload queries...")
	if err := sys.Train(gen.SampleN(60), nil); err != nil {
		log.Fatal(err)
	}
	var snapshot bytes.Buffer
	if _, err := sys.WriteTo(&snapshot); err != nil {
		log.Fatal(err)
	}

	// 3. Online: a serving process restores the snapshot over the same data
	// and answers revenue by product for the last month, reading 10% of
	// partitions. The answer is the one sys.Run would give.
	served, err := ps3.OpenSnapshot(&snapshot, tbl)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := ps3.NewServer(served, ps3.ServeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	q := &ps3.Query{
		GroupBy: []string{"product"},
		Pred:    &ps3.Clause{Col: "day", Op: ps3.OpGe, Num: 70},
		Aggs: []ps3.Aggregate{
			{Kind: ps3.Sum, Expr: ps3.Col("amount"), Name: "revenue"},
			{Kind: ps3.Count, Name: "orders"},
		},
	}
	fmt.Printf("\nquery: %s\n\n", q)
	exact, err := sys.RunExact(q)
	if err != nil {
		log.Fatal(err)
	}
	approx, err := srv.Query(q, 0.10)
	if err != nil {
		log.Fatal(err)
	}
	approxByLabel := map[string][]float64{}
	for _, g := range approx.Groups {
		approxByLabel[g.Label] = g.Values
	}
	fmt.Printf("%-24s%14s%14s\n", "group", "exact", "approx(10%)")
	for _, g := range byLabel(exact.Values, exact.Labels) {
		ev, label := exact.Values[g], exact.Labels[g]
		av := approxByLabel[label]
		if av == nil {
			av = make([]float64, len(ev))
		}
		fmt.Printf("%-24s%14.0f%14.0f\n", label, ev[0], av[0])
	}
	fmt.Printf("\npartitions read: %d of %d\n", approx.PartsRead, tbl.NumParts())
}

// byLabel returns the group keys of values in the order of their labels.
func byLabel(values map[string][]float64, labels map[string]string) []string {
	keys := slices.Collect(maps.Keys(values))
	slices.SortFunc(keys, func(a, b string) int { return strings.Compare(labels[a], labels[b]) })
	return keys
}

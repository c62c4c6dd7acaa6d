// Offline statistics workflow: build the per-partition sketches once at
// ingest, persist them separately from the data (the paper's §2.3.1
// deployment model), then load the statistics store in a fresh "query
// optimizer" process and pick partitions without touching raw data. Also
// demonstrates the Appendix D.2 variance analysis: why partition-level
// sampling needs PS3-style selection where row-level sampling would not.
//
//	go run ./examples/offlinestats
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
	// --- Ingest process: build data + stats, persist both. ---
	schema := ps3.MustSchema(
		ps3.Column{Name: "tenant", Kind: ps3.Categorical},
		ps3.Column{Name: "latency_ms", Kind: ps3.Numeric, Positive: true},
		ps3.Column{Name: "bytes", Kind: ps3.Numeric, Positive: true},
	)
	b, err := ps3.NewBuilder(schema, 4_000)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// Tenants arrive in contiguous runs (ingest order ≈ tenant order), and
	// one tenant is an order of magnitude heavier than the rest.
	tenants := []string{"acme", "globex", "initech", "umbrella", "hooli"}
	for ti, tenant := range tenants {
		rows := 40_000
		if tenant == "hooli" {
			rows = 160_000
		}
		for i := 0; i < rows; i++ {
			lat := 5 + rng.ExpFloat64()*20*float64(ti+1)
			sz := 100 + rng.Float64()*1e4
			if err := b.Append([]float64{0, lat, sz}, []string{tenant, "", ""}); err != nil {
				log.Fatal(err)
			}
		}
	}
	tbl := b.Finish()

	wl := ps3.Workload{
		GroupableCols: []string{"tenant"},
		PredicateCols: []string{"tenant", "latency_ms", "bytes"},
		AggCols:       []string{"latency_ms", "bytes"},
	}
	ingest, err := ps3.Open(tbl, ps3.Options{Workload: wl, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	var statsBlob bytes.Buffer
	n, err := ingest.Stats.WriteTo(&statsBlob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingest: %d rows, %d partitions; stats store = %d KB (%.4f%% of data)\n",
		tbl.NumRows(), tbl.NumParts(), n/1024, 100*float64(n)/float64(tbl.TotalBytes()))

	// --- Query-optimizer process: load stats, bind, train, answer. ---
	restored, err := ps3.ReadStats(&statsBlob)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := ps3.OpenWithStats(tbl, restored, ps3.Options{Workload: wl, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := ps3.NewGenerator(wl, tbl, 3)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Train(gen.SampleN(60), nil); err != nil {
		log.Fatal(err)
	}

	q := &ps3.Query{
		GroupBy: []string{"tenant"},
		Aggs: []ps3.Aggregate{
			{Kind: ps3.Avg, Expr: ps3.Col("latency_ms"), Name: "avg_latency"},
			{Kind: ps3.Count, Name: "requests"},
		},
	}
	exact, err := sys.RunExact(q)
	if err != nil {
		log.Fatal(err)
	}
	approx, err := sys.Run(q, 0.15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s (reading %d of %d partitions)\n", q, approx.PartsRead, tbl.NumParts())
	fmt.Printf("%-12s%16s%16s\n", "tenant", "exact avg_lat", "approx avg_lat")
	for _, g := range byLabel(exact.Values, exact.Labels) {
		ev := exact.Values[g]
		av, ok := approx.Values[g]
		if !ok {
			av = make([]float64, len(ev))
		}
		fmt.Printf("%-12s%16.2f%16.2f\n", exact.Labels[g], ev[0], av[0])
	}

	// --- Appendix D.2: why partition-level sampling needs PS3. ---
	// For the total of bytes, compare the variance of uniform partition-
	// level vs row-level Poisson sampling at the same 15% fraction. Rows in
	// a partition share a tenant, so their contributions are correlated and
	// the partition-level variance is much larger — the gap PS3's non-
	// uniform selection exists to close.
	var partTotals []float64
	var rowVals [][]float64
	bi := 2 // "bytes" column
	for _, p := range tbl.Parts {
		var sum float64
		rows := make([]float64, p.Rows())
		for r := 0; r < p.Rows(); r++ {
			rows[r] = p.NumCol(bi)[r]
			sum += rows[r]
		}
		partTotals = append(partTotals, sum)
		rowVals = append(rowVals, rows)
	}
	pv, rv := ps3.PartitionVsRowVariance(partTotals, rowVals, 0.15)
	fmt.Printf("\nuniform-sampling variance for SUM(bytes) at 15%%:\n")
	fmt.Printf("  row-level:       %.3g\n", rv)
	fmt.Printf("  partition-level: %.3g  (%.0f× larger — Appendix D.2)\n", pv, pv/rv)
}

// byLabel returns the group keys of values in the order of their labels.
func byLabel(values map[string][]float64, labels map[string]string) []string {
	keys := slices.Collect(maps.Keys(values))
	slices.SortFunc(keys, func(a, b string) int { return strings.Compare(labels[a], labels[b]) })
	return keys
}

// Servicelog: the paper's motivating scenario (§1) — a production telemetry
// log (Aria-style) where one app version holds ~half the rows and rare
// versions hide in a few partitions. PS3's dashboards-style queries
// (volumes by version / network type) run at a 5% partition budget, and the
// outlier component keeps rare versions from vanishing.
//
//	go run ./examples/servicelog
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"ps3/internal/core"
	"ps3/internal/dataset"
	"ps3/internal/query"
)

func main() {
	ds, err := dataset.Aria(dataset.Config{Rows: 80_000, Parts: 160, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service log: %d rows, %d partitions, sorted by %v\n",
		ds.Table.NumRows(), ds.Table.NumParts(), ds.SortCols)

	sys, err := core.New(ds.Table, core.Options{Workload: ds.Workload, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, ds.Table, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training on 80 workload queries (one-time, offline)...")
	if err := sys.Train(gen.SampleN(80), nil); err != nil {
		log.Fatal(err)
	}

	dashboards := []*query.Query{
		{
			GroupBy: []string{"DeviceInfo_NetworkType"},
			Aggs: []query.Aggregate{
				{Kind: query.Sum, Expr: query.Col("records_received_count"), Name: "received"},
				{Kind: query.Avg, Expr: query.Col("olsize"), Name: "avg_payload"},
			},
		},
		{
			GroupBy: []string{"AppInfo_Version"},
			Pred:    &query.Clause{Col: "DeviceInfo_NetworkType", Op: query.OpEq, Strs: []string{"Cellular"}},
			Aggs: []query.Aggregate{
				{Kind: query.Count, Name: "events"},
			},
		},
		{
			Pred: &query.Clause{Col: "PipelineInfo_IngestionTime", Op: query.OpGe, Num: 20 * 24 * 60},
			Aggs: []query.Aggregate{
				{Kind: query.Sum, Expr: query.Col("records_sent_count"), Name: "sent_last10d"},
				{Kind: query.Sum, Expr: query.Col("records_tried_to_send_count").
					Sub(query.Col("records_sent_count")), Name: "dropped_last10d"},
			},
		},
	}

	const budget = 0.05
	for i, q := range dashboards {
		fmt.Printf("\n--- dashboard %d: %s\n", i+1, q)
		exact, err := sys.RunExact(q)
		if err != nil {
			log.Fatal(err)
		}
		approx, err := sys.Run(q, budget)
		if err != nil {
			log.Fatal(err)
		}
		// Show top groups and the relative error achieved.
		keys := make([]string, 0, len(exact.Values))
		for g := range exact.Values {
			keys = append(keys, g)
		}
		sort.Slice(keys, func(a, b int) bool { // largest first, ties in label order
			if va, vb := math.Abs(exact.Values[keys[a]][0]), math.Abs(exact.Values[keys[b]][0]); va != vb {
				return va > vb
			}
			return exact.Labels[keys[a]] < exact.Labels[keys[b]]
		})
		shown := keys
		if len(shown) > 8 {
			shown = shown[:8]
		}
		var errSum float64
		var errCnt int
		fmt.Printf("%-44s%16s%16s\n", "group", "exact", fmt.Sprintf("approx(%.0f%%)", budget*100))
		for _, g := range shown {
			ev, av := exact.Values[g], approx.Values[g]
			var a float64
			if av != nil {
				a = av[0]
			}
			if ev[0] != 0 {
				errSum += math.Min(math.Abs(a-ev[0])/math.Abs(ev[0]), 1)
				errCnt++
			}
			fmt.Printf("%-44s%16.0f%16.0f\n", exact.Labels[g], ev[0], a)
		}
		if len(keys) > len(shown) {
			fmt.Printf("(%d more groups)\n", len(keys)-len(shown))
		}
		if errCnt > 0 {
			fmt.Printf("top-group avg rel err %.1f%%, partitions read %d/%d\n",
				errSum/float64(errCnt)*100, approx.PartsRead, ds.Table.NumParts())
		}
	}
}

// Command ps3query runs one query both exactly and approximately at a
// sampling budget, showing the answers side by side with the achieved error
// and I/O savings — the online path of Fig 1 end to end:
//
//	ps3query -dataset aria -budget 0.05
//	ps3query -dataset tpch -budget 0.01 -train 150 -query 3
//	ps3query -dataset aria -sql "SELECT TenantId, COUNT(*) FROM t GROUP BY TenantId"
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"

	"ps3/internal/core"
	"ps3/internal/dataset"
	"ps3/internal/diagnose"
	"ps3/internal/query"
	"ps3/internal/sql"
)

func main() {
	var (
		name    = flag.String("dataset", "aria", "dataset: tpch|tpcds|aria|kdd")
		rows    = flag.Int("rows", 60000, "row count")
		parts   = flag.Int("parts", 150, "partition count")
		train   = flag.Int("train", 80, "training queries")
		qIdx    = flag.Int("query", 0, "which of the sampled demo queries to run")
		sqlText = flag.String("sql", "", "run this SQL query instead of a sampled demo query")
		seed    = flag.Int64("seed", 42, "random seed")
	)
	budget := 0.05
	flag.Func("budget", "fraction of partitions to read, in (0, 1] (default 0.05)", func(s string) (err error) {
		budget, err = parseBudget(s)
		return err
	})
	flag.Parse()

	ds, err := dataset.ByName(*name, dataset.Config{Rows: *rows, Parts: *parts, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	sys, err := core.New(ds.Table, core.Options{Workload: ds.Workload, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, ds.Table, *seed+1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("training PS3 on %d workload queries...\n", *train)
	if err := sys.Train(gen.SampleN(*train), nil); err != nil {
		fatal(err)
	}

	var q *query.Query
	if *sqlText != "" {
		q, _, err = sql.Parse(*sqlText)
		if err != nil {
			fatal(err)
		}
	} else {
		demo := gen.SampleN(*qIdx + 1)
		q = demo[*qIdx]
	}
	fmt.Printf("\nquery: %s\n\n", q)

	// Surface known failure modes before running (§7 diagnostics).
	for _, f := range diagnose.Query(q, sys.Stats, ds.Workload, diagnose.Options{}) {
		fmt.Println(f)
	}

	exact, err := sys.RunExact(q)
	if err != nil {
		fatal(err)
	}
	approx, err := sys.Run(q, budget)
	if err != nil {
		fatal(err)
	}

	if len(exact.Values) == 0 {
		fmt.Println("no rows match the predicate — the exact answer is empty.")
		fmt.Printf("PS3 read %d of %d partitions (the selectivity filter prunes partitions that cannot match).\n",
			approx.PartsRead, ds.Table.NumParts())
		fmt.Println("try another demo query with -query N")
		return
	}

	// Align groups, largest truth first.
	keys := make([]string, 0, len(exact.Values))
	for g := range exact.Values {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(a, b int) bool {
		return math.Abs(exact.Values[keys[a]][0]) > math.Abs(exact.Values[keys[b]][0])
	})
	if len(keys) > 15 {
		fmt.Printf("(showing top 15 of %d groups)\n", len(keys))
		keys = keys[:15]
	}
	fmt.Printf("%-40s%18s%18s%10s\n", "group", "exact", "approx", "rel err")
	var relSum float64
	relCnt := 0
	for _, g := range keys {
		ev := exact.Values[g]
		av, ok := approx.Values[g]
		for j := range ev {
			var a float64
			if ok {
				a = av[j]
			}
			rel := 1.0
			if ev[j] != 0 {
				rel = math.Abs(a-ev[j]) / math.Abs(ev[j])
			}
			relSum += math.Min(rel, 1)
			relCnt++
			label := exact.Labels[g]
			if j > 0 {
				label = ""
			}
			fmt.Printf("%-40s%18.2f%18.2f%9.1f%%\n", truncate(label, 40), ev[j], a, rel*100)
		}
	}
	if relCnt > 0 {
		fmt.Printf("\navg relative error (shown groups): %.2f%%\n", relSum/float64(relCnt)*100)
	}
	fmt.Printf("partitions read: %d of %d (%.1f%%), weights sum %.1f\n",
		approx.PartsRead, ds.Table.NumParts(), approx.FracRead*100, weightSum(approx.Selection))
}

// parseBudget parses -budget: a fraction of the partitions in (0, 1]. The
// system would run any other float — NaN, ±Inf, 0 or a negative one as one
// partition, one above 1 as all of them — and print the answer as if the
// budget were what was asked.
func parseBudget(s string) (float64, error) {
	b, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(b > 0 && b <= 1) {
		return 0, fmt.Errorf("budget must be a fraction in (0, 1], got %v", b)
	}
	return b, nil
}

func weightSum(sel []query.WeightedPartition) float64 {
	var s float64
	for _, wp := range sel {
		s += wp.Weight
	}
	return s
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ps3query:", err)
	os.Exit(1)
}

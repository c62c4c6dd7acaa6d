// Command ps3train runs the offline phase of Fig 1 end to end and persists
// the result: it builds summary statistics, trains the partition picker on
// sampled workload queries, and writes a system snapshot that ps3serve (or
// any embedder calling core.OpenSnapshot) cold-starts from without
// retraining:
//
//	ps3train -dataset aria -rows 100000 -parts 200 -out /tmp/aria.snap
//	ps3train -dataset tpch -table /tmp/tpch.ps3 -train 150 -out /tmp/tpch.snap
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ps3/internal/core"
	"ps3/internal/dataset"
	"ps3/internal/query"
	"ps3/internal/store"
)

func main() {
	var (
		name    = flag.String("dataset", "aria", "dataset defining schema+workload: tpch|tpcds|aria|kdd")
		rows    = flag.Int("rows", 0, "row count when generating (0 = default 100000)")
		parts   = flag.Int("parts", 0, "partition count when generating (0 = default 200)")
		tblPath = flag.String("table", "", "load the table from this store file (written by ps3gen -out) instead of generating")
		train   = flag.Int("train", 100, "training queries to sample from the workload")
		lss     = flag.Bool("lss", false, "also fit the LSS baseline")
		seed    = flag.Int64("seed", 42, "generation/training seed")
		out     = flag.String("out", "", "write the trained-system snapshot to this path (required)")
	)
	flag.Parse()
	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}

	cfg := dataset.Config{Rows: *rows, Parts: *parts, Seed: *seed}
	if *tblPath != "" {
		// Only the workload definition is needed when the table comes from a
		// file; generate the smallest possible dataset instead of the full
		// default 100k rows (-rows/-parts apply to generation only).
		cfg.Rows, cfg.Parts = 64, 2
	}
	ds, err := dataset.ByName(*name, cfg)
	if err != nil {
		fatal(err)
	}
	tbl := ds.Table
	if *tblPath != "" {
		// Training is a repeated-full-scan workload, so the store is
		// materialized into RAM: paging only pays off at serve time, when
		// the picker reads a few partitions per query.
		r, err := store.Open(*tblPath, store.Options{})
		if err != nil {
			fatal(err)
		}
		tbl, err = r.Materialize()
		if err != nil {
			fatal(err)
		}
		if err := r.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded table %s: %d rows, %d partitions\n", *tblPath, tbl.NumRows(), tbl.NumParts())
	}

	sys, err := core.New(tbl, core.Options{Workload: ds.Workload, TrainLSS: *lss, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, tbl, *seed+1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("training on %d workload queries (one full scan each)...\n", *train)
	t0 := time.Now()
	if err := sys.Train(gen.SampleN(*train), nil); err != nil {
		fatal(err)
	}
	fmt.Printf("trained in %v (%d funnel stages)\n", time.Since(t0).Round(time.Millisecond), len(sys.Picker.Regs))

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	n, err := sys.WriteTo(f)
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote snapshot to %s (%.1f KB: stats + picker%s)\n",
		*out, float64(n)/1024, lssSuffix(*lss))
}

func lssSuffix(lss bool) string {
	if lss {
		return " + lss"
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ps3train:", err)
	os.Exit(1)
}

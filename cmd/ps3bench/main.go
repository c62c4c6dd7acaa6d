// Command ps3bench is the §5 experiment driver over the simulated
// substrate: it regenerates the paper's tables and figures. It is not the
// serving benchmark — that is bench/ (`bash bench/run.sh`), which drives the
// real server and records the repo's performance numbers. Each experiment id
// maps to one artifact of the evaluation section (see DESIGN.md's
// per-experiment index):
//
//	ps3bench -exp fig3  -dataset aria          # error vs budget, one dataset
//	ps3bench -exp fig3                         # ... all four datasets
//	ps3bench -exp table4                       # sketch storage breakdown
//	ps3bench -exp all                          # everything
//
// Scale flags (-rows, -parts, -train, -test, -runs) trade fidelity for
// runtime; defaults complete in minutes on a laptop. All scans run on the
// shared internal/exec worker pool; -parallelism bounds its width without
// changing any reported number. Table 5 (picker overhead) measures the
// production batched pick path — pooled featurization plus flat-ensemble
// funnel evaluation at Parallelism=1; `make bench-pick` has the
// micro-benchmarks comparing it against the retained pointer-tree
// reference.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ps3/internal/dataset"
	"ps3/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: fig3|table3|table4|table5|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|table6|table7|table8|all")
		ds      = flag.String("dataset", "", "dataset for single-dataset experiments (tpch|tpcds|aria|kdd; empty = paper's choice or all)")
		rows    = flag.Int("rows", 0, "rows per dataset (0 = default 60000)")
		parts   = flag.Int("parts", 0, "partitions per dataset (0 = default 150)")
		train   = flag.Int("train", 0, "training queries (0 = default 100; paper: 400)")
		test    = flag.Int("test", 0, "test queries (0 = default 30; paper: 100)")
		runs    = flag.Int("runs", 0, "repetitions for randomized methods (0 = default 3; paper: 10)")
		budgets = flag.String("budgets", "", "comma-separated budget fractions (default 0.01,0.05,0.1,0.2,0.4,0.6,0.8)")
		noFS    = flag.Bool("no-feature-selection", false, "disable Algorithm 3 feature selection")
		seed    = flag.Int64("seed", 42, "master random seed")
		par     = flag.Int("parallelism", 0, "worker goroutines for partition scans and per-query evaluation (0 = GOMAXPROCS; results are identical at any setting)")
	)
	flag.Parse()

	cfg := experiments.Config{
		Rows: *rows, Parts: *parts,
		TrainQueries: *train, TestQueries: *test,
		Runs: *runs, Seed: *seed,
		NoFeatureSelection: *noFS,
		Parallelism:        *par,
	}
	if *ds != "" && !validDataset(*ds) {
		fatalf("unknown dataset %q (want one of %s)", *ds, strings.Join(dataset.Names(), "|"))
	}
	if *budgets != "" {
		for _, s := range strings.Split(*budgets, ",") {
			b, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || b <= 0 || b > 1 {
				fatalf("invalid budget %q", s)
			}
			cfg.Budgets = append(cfg.Budgets, b)
		}
	}

	w := os.Stdout
	start := time.Now()
	run := func(id string) error {
		switch id {
		case "fig3":
			if *ds != "" {
				_, err := experiments.RunFig3(w, *ds, cfg)
				return err
			}
			_, err := experiments.RunFig3All(w, cfg)
			return err
		case "table3":
			_, err := experiments.RunTable3(w, cfg)
			return err
		case "table4":
			_, err := experiments.RunTable4(w, cfg)
			return err
		case "table5":
			_, err := experiments.RunTable5(w, cfg)
			return err
		case "fig4":
			name := *ds
			if name == "" {
				name = "aria" // the paper's Fig 4 dataset
			}
			_, err := experiments.RunFig4(w, name, cfg)
			return err
		case "fig5":
			_, err := experiments.RunFig5(w, cfg)
			return err
		case "fig6":
			_, err := experiments.RunFig6(w, cfg)
			return err
		case "fig7":
			_, err := experiments.RunFig7(w, cfg)
			return err
		case "fig8":
			_, err := experiments.RunFig8(w, cfg)
			return err
		case "fig9", "fig11":
			_, err := experiments.RunFig9(w, cfg, 0)
			return err
		case "fig10":
			name := *ds
			if name == "" {
				name = "kdd" // the paper's Fig 10 dataset
			}
			_, err := experiments.RunFig10(w, name, cfg, nil)
			return err
		case "fig12":
			_, err := experiments.RunFig12(w, cfg)
			return err
		case "table6":
			_, err := experiments.RunTable6(w, cfg)
			return err
		case "table7":
			_, err := experiments.RunTable7(w, cfg)
			return err
		case "table8":
			_, err := experiments.RunTable8(w, cfg)
			return err
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table4", "table3", "fig3", "fig4", "fig5", "table5",
			"fig6", "fig7", "fig8", "fig9", "fig10", "fig12", "table6", "table7", "table8"}
	}
	for _, id := range ids {
		fmt.Fprintf(w, "\n===== %s =====\n", id)
		t0 := time.Now()
		if err := run(id); err != nil {
			fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(w, "[%s done in %s]\n", id, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "\nall experiments done in %s\n", time.Since(start).Round(time.Millisecond))
}

// validDataset reports whether name is a known dataset id.
func validDataset(name string) bool {
	for _, n := range dataset.Names() {
		if n == name {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ps3bench: "+format+"\n", args...)
	os.Exit(1)
}

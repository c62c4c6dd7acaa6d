// Command bench is the PS3 serving benchmark: it builds a trained, stored
// fixture, drives the real serve.Server in process from closed-loop clients
// under four traffic mixes, verifies the answers, and reports end-to-end
// metrics (tracing off) or per-layer metrics (a traced run). It is the
// ruler later performance claims are read off; it claims no gain itself.
//
// One run, as the benchmark driver invokes it (last stdout line is JSON):
//
//	bash bench/run.sh --workload adhoc-pick --seed 1 --seconds 10 --trace 0
//
// Everything, from one command (from the bench directory: go run .):
//
//	bash bench/run.sh                       # 4 workloads × (end-to-end + traced)
//	bash bench/run.sh -runs 10              # ten seeds, medians and spreads
//	bash bench/run.sh -aa                   # twice on one build, compared to the bounds
//	bash bench/run.sh -diff old.json new.json
//	bash bench/run.sh -manifest             # print BENCHMARK.json
//
// See README.md for the metric and workload tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the contract's JSON line (adhoc-pick, adhoc-scan, repeat-zipf, mixed-ingest); empty runs all four, end-to-end and traced")
		seed      = flag.Int64("seed", 1, "seed for query pools, Zipf draws and append batches (never for the fixtures)")
		seconds   = flag.Float64("seconds", runSeconds, "measured interval per run, in seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
		smoke     = flag.Bool("smoke", false, "test-size fixtures and pools; regime assertions off")
		dir       = flag.String("dir", ".bench_build", "scratch directory for fixtures and outputs (inside the checkout)")
		runs      = flag.Int("runs", 1, "full mode: repeat every run with seeds seed..seed+runs-1 and report medians, quartiles and spreads")
		aa        = flag.Bool("aa", false, "run the whole benchmark twice on this build and compare every end-to-end metric × workload against its bound")
		diff      = flag.Bool("diff", false, "compare two result files: -diff old.json new.json")
		printSpec = flag.Bool("manifest", false, "print BENCHMARK.json as derived from the metric and workload tables")
	)
	flag.Parse()

	switch {
	case *printSpec:
		out, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
	case *diff:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff takes two result files: old.json new.json"))
		}
		ok, err := diffFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		w, ok := workloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runOne(runOpts{
			workload: w, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
			dir: *dir, outDir: *dir + "/out", log: os.Stdout,
		})
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		f := fullOpts{seed: *seed, seconds: *seconds, runs: *runs, smoke: *smoke, dir: *dir}
		var ok bool
		var err error
		if *aa {
			ok, err = runAA(os.Stdout, f)
		} else {
			ok, err = runFull(os.Stdout, f, *dir+"/out/result.json")
		}
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

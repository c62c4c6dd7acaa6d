package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// fullOpts drives the one-command mode: every workload, end-to-end and
// traced, each as its own process so runs do not share a heap — exactly how
// the benchmark driver invokes them.
type fullOpts struct {
	seed    int64
	seconds float64
	runs    int
	smoke   bool
	dir     string
}

// row is one metric × workload of a result file. Rows are never combined
// into a score.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Kind     string  `json:"kind"` // "end_to_end" or "per_layer"
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound,omitempty"`
	// Value is the median over the runs; Q1/Q3 and Spread ((Q3−Q1)/median)
	// are present from two runs up, computed as the contract computes them.
	Value  float64   `json:"value"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	Spread float64   `json:"spread,omitempty"`
	Values []float64 `json:"values"`
}

// resultFile is what one full invocation writes. Claim is always null: the
// benchmark records a baseline, it never claims a gain.
type resultFile struct {
	Claim      *string  `json:"claim"`
	Hardware   hardware `json:"hardware"`
	Seed       int64    `json:"seed"`
	Runs       int      `json:"runs"`
	Seconds    float64  `json:"seconds"`
	Smoke      bool     `json:"smoke,omitempty"`
	FailedRuns []string `json:"failed_runs,omitempty"`
	Rows       []row    `json:"rows"`
}

// child runs one contract-mode run as a subprocess of this binary, passing
// its report through and returning the parsed last line.
func child(out io.Writer, f fullOpts, workload string, seed int64, trace int) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
		"-dir", f.dir,
	}
	if f.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to end
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(out, last)
		}
		last = sc.Text()
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Fprintln(out, last)
		if runErr != nil {
			return nil, fmt.Errorf("run failed without a result: %w", runErr)
		}
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

// collect runs everything f asks for and folds it into a result file.
func collect(out io.Writer, f fullOpts) (*resultFile, error) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	rf := &resultFile{Hardware: detectHardware(), Seed: f.seed, Runs: f.runs, Seconds: f.seconds, Smoke: f.smoke}
	values := map[[2]string][]float64{}
	for r := 0; r < f.runs; r++ {
		for _, name := range names {
			for trace := 0; trace <= 1; trace++ {
				seed := f.seed + int64(r)
				res, err := child(out, f, name, seed, trace)
				tag := fmt.Sprintf("%s seed %d trace %d", name, seed, trace)
				if err != nil {
					rf.FailedRuns = append(rf.FailedRuns, tag+": "+err.Error())
					fmt.Fprintf(out, "FAILED %s: %v\n", tag, err)
					continue
				}
				if !res.Correct {
					rf.FailedRuns = append(rf.FailedRuns, tag+": verification failed")
				}
				for m, v := range res.Metrics { //lint:mapiter-ok values are appended under their own key; order-free
					k := [2]string{name, m}
					values[k] = append(values[k], v.Value)
				}
				fmt.Fprintln(out)
			}
		}
	}
	for _, name := range names {
		// Rows come out in declaration order: per workload, end-to-end
		// metrics first, then per-layer ones.
		for _, kind := range []struct {
			name string
			list []metricDecl
		}{{"end_to_end", endToEndMetrics}, {"per_layer", perLayerMetrics}} {
			for _, m := range kind.list {
				vs := values[[2]string{name, m.Name}]
				if len(vs) == 0 {
					continue
				}
				rw := row{Workload: name, Metric: m.Name, Kind: kind.name, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Value: median(vs), Values: vs}
				if len(vs) >= 2 {
					rw.Q1, rw.Q3 = quartiles(vs)
					rw.Spread = spread(vs)
				}
				rf.Rows = append(rf.Rows, rw)
			}
		}
	}
	return rf, nil
}

func printRows(out io.Writer, rf *resultFile) {
	fmt.Fprintln(out, rf.Hardware.describe())
	fmt.Fprintf(out, "seed %d, %d run(s) of %gs; claim: none (baseline only)\n", rf.Seed, rf.Runs, rf.Seconds)
	fmt.Fprintf(out, "%-13s %-38s %16s %-6s %8s %7s %3s\n", "workload", "metric", "median", "unit", "spread", "bound", "n")
	for _, r := range rf.Rows {
		sp, bd := "-", "-"
		if len(r.Values) >= 2 {
			sp = fmt.Sprintf("%.4f", r.Spread)
		}
		if r.Kind == "end_to_end" {
			bd = fmt.Sprintf("%.2f", r.Bound)
		}
		fmt.Fprintf(out, "%-13s %-38s %16.4f %-6s %8s %7s %3d\n", r.Workload, r.Metric, r.Value, r.Unit, sp, bd, len(r.Values))
	}
	for _, f := range rf.FailedRuns {
		fmt.Fprintln(out, "FAILED RUN:", f)
	}
}

func writeResult(path string, rf *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// runFull is the one-command mode: run, print every metric by name, write
// the result file. ok is false when any run failed its verification.
func runFull(out io.Writer, f fullOpts, resultPath string) (bool, error) {
	rf, err := collect(out, f)
	if err != nil {
		return false, err
	}
	printRows(out, rf)
	if err := writeResult(resultPath, rf); err != nil {
		return false, err
	}
	fmt.Fprintf(out, "result written to %s; traces under %s\n", resultPath, filepath.Dir(resultPath))
	return len(rf.FailedRuns) == 0, nil
}

// worsening returns by what share of base the new value is worse (negative
// = better), given the metric's direction.
func worsening(better string, base, now float64) float64 {
	if base == 0 {
		return 0
	}
	d := (now - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

// runAA runs the whole benchmark twice on the same build and checks that
// the two sets agree on every end-to-end metric × workload within the
// metric's bound — the check the bounds are derived from and re-checked by.
func runAA(out io.Writer, f fullOpts) (bool, error) {
	var sets [2]*resultFile
	for i := range sets {
		fmt.Fprintf(out, "=== A/A set %d of 2 ===\n", i+1)
		rf, err := collect(out, f)
		if err != nil {
			return false, err
		}
		sets[i] = rf
		if err := writeResult(filepath.Join(f.dir, "out", fmt.Sprintf("aa-%d.json", i+1)), rf); err != nil {
			return false, err
		}
	}
	ok := len(sets[0].FailedRuns) == 0 && len(sets[1].FailedRuns) == 0
	second := indexRows(sets[1].Rows)
	fmt.Fprintln(out, sets[0].Hardware.describe())
	fmt.Fprintf(out, "%-13s %-28s %14s %14s %-6s %9s %7s  %s\n", "workload", "metric", "first", "second", "unit", "rel.diff", "bound", "verdict")
	for _, a := range sets[0].Rows {
		b, found := second[[2]string{a.Workload, a.Metric}]
		if !found || a.Kind != "end_to_end" {
			continue
		}
		rel := math.Abs(worsening(a.Better, a.Value, b.Value))
		verdict := "agree"
		if rel > a.Bound {
			verdict = "DISAGREE"
			ok = false
		}
		fmt.Fprintf(out, "%-13s %-28s %14.4f %14.4f %-6s %8.2f%% %6.0f%%  %s (base: first = %.4f)\n",
			a.Workload, a.Metric, a.Value, b.Value, a.Unit, 100*rel, 100*a.Bound, verdict, a.Value)
	}
	return ok, nil
}

func indexRows(rows []row) map[[2]string]row {
	m := make(map[[2]string]row, len(rows))
	for _, r := range rows {
		m[[2]string{r.Workload, r.Metric}] = r
	}
	return m
}

// diffFiles compares two result files row by row. An end-to-end row is
// "unresolved" when either side's run-to-run spread is wider than the
// bound (the data cannot tell a regression from noise), "regressed" when
// the new median is worse than the old by more than the bound, else "ok".
// Per-layer rows are listed without a verdict: they have no bound. ok is
// false when any row regressed.
func diffFiles(out io.Writer, oldPath, newPath string) (bool, error) {
	oldF, err := readResult(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readResult(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "old: %s (%d runs)\n     %s\n", oldPath, oldF.Runs, oldF.Hardware.describe())
	fmt.Fprintf(out, "new: %s (%d runs)\n     %s\n", newPath, newF.Runs, newF.Hardware.describe())
	fresh := indexRows(newF.Rows)
	ok := true
	fmt.Fprintf(out, "%-13s %-38s %14s %14s %-6s %9s %7s  %s\n", "workload", "metric", "old", "new", "unit", "worse by", "bound", "verdict")
	for _, o := range oldF.Rows {
		n, found := fresh[[2]string{o.Workload, o.Metric}]
		if !found {
			fmt.Fprintf(out, "%-13s %-38s %14.4f %14s %-6s %9s %7s  missing in new\n", o.Workload, o.Metric, o.Value, "-", o.Unit, "-", "-")
			continue
		}
		worse := worsening(o.Better, o.Value, n.Value)
		verdict, bound := "", "-"
		if o.Kind == "end_to_end" {
			bound = fmt.Sprintf("%.0f%%", 100*o.Bound)
			switch {
			case math.Max(o.Spread, n.Spread) > o.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% wider than bound)", 100*math.Max(o.Spread, n.Spread))
			case worse > o.Bound:
				verdict = "regressed"
				ok = false
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(out, "%-13s %-38s %14.4f %14.4f %-6s %+8.2f%% %7s  %s (base: old = %.4f)\n",
			o.Workload, o.Metric, o.Value, n.Value, o.Unit, 100*worse, bound, verdict, o.Value)
	}
	return ok, nil
}

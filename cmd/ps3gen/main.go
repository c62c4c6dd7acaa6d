// Command ps3gen generates one of the synthetic evaluation datasets, prints
// its schema, layout and summary-statistics profile, and optionally exports
// the rows as CSV or the table in PS3's paged store format:
//
//	ps3gen -dataset aria -rows 100000 -parts 200
//	ps3gen -dataset tpch -csv /tmp/tpch.csv
//	ps3gen -dataset kdd -out /tmp/kdd.ps3
//
// With -in it instead re-encodes an existing store file, so a v1 (raw)
// store migrates to the current encoded format with one command:
//
//	ps3gen -in /tmp/old.ps3 -out /tmp/new.ps3
//
// With -stream it replays the table (generated or loaded) as an append
// workload against a live ps3serve -ingest process, batch by batch:
//
//	ps3gen -dataset aria -rows 20000 -stream http://localhost:8080
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"ps3/internal/dataset"
	"ps3/internal/fault"
	"ps3/internal/stats"
	"ps3/internal/store"
	"ps3/internal/table"
)

func main() {
	var (
		name   = flag.String("dataset", "aria", "dataset: tpch|tpcds|aria|kdd")
		rows   = flag.Int("rows", 0, "row count (0 = default 100000)")
		parts  = flag.Int("parts", 0, "partition count (0 = default 200)")
		seed   = flag.Int64("seed", 42, "generation seed")
		layout = flag.String("layout", "", "comma-separated sort columns overriding the default layout ('random' shuffles)")
		csvOut = flag.String("csv", "", "write rows as CSV to this path")
		binOut = flag.String("out", "", "write the table to this path in the paged store format")
		in     = flag.String("in", "", "convert: load this store file (v1 or v2) instead of generating a dataset")

		stream      = flag.String("stream", "", "replay the table as POST /append batches against this ps3serve base URL (e.g. http://localhost:8080)")
		streamBatch = flag.Int("streambatch", 256, "rows per append batch for -stream")
	)
	flag.Parse()

	var t *table.Table
	// encodingHints feeds ingest-time sketches to the store's encoding
	// chooser when the generate path builds them anyway; conversion writes
	// without hints (same encodings, chooser scans the blocks itself).
	var encodingHints func(part, col int) (store.ColHint, bool)
	if *in != "" {
		// Conversion keeps the input's rows and layout verbatim: generation
		// flags would be silently ignored, so reject them instead of letting
		// the user believe a re-sort or re-size happened.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "dataset", "rows", "parts", "seed", "layout":
				fatal(fmt.Errorf("-%s applies to dataset generation and has no effect with -in; re-layout the table before exporting", f.Name))
			}
		})
		r, err := store.Open(*in, store.Options{})
		if err != nil {
			fatal(err)
		}
		t, err = r.Materialize()
		if err != nil {
			fatal(err)
		}
		if err := r.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s (store v%d): %d rows, %d partitions, %.1f MB\n",
			*in, r.EncodingStats().FormatVersion, t.NumRows(), t.NumParts(), float64(t.TotalBytes())/(1<<20))
	} else {
		ds, err := dataset.ByName(*name, dataset.Config{Rows: *rows, Parts: *parts, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		if *layout != "" {
			var cols []string
			if *layout != "random" {
				cols = strings.Split(*layout, ",")
			}
			ds, err = ds.WithLayout(cols)
			if err != nil {
				fatal(err)
			}
		}
		t = ds.Table

		fmt.Printf("dataset %s: %d rows, %d partitions, layout %v\n", ds.Name, t.NumRows(), t.NumParts(), ds.SortCols)
		fmt.Printf("storage: %.1f MB (%.1f KB/partition)\n",
			float64(t.TotalBytes())/(1<<20), float64(t.TotalBytes())/float64(t.NumParts())/1024)
		fmt.Println("\nschema:")
		for _, c := range t.Schema.Cols {
			pos := ""
			if c.Positive {
				pos = " (positive)"
			}
			fmt.Printf("  %-32s %s%s\n", c.Name, c.Kind, pos)
		}

		ts, err := stats.Build(t, stats.Options{GroupableCols: ds.Workload.GroupableCols})
		if err != nil {
			fatal(err)
		}
		encodingHints = store.HintsFromStats(ts)
		sz := ts.Sizes()
		fmt.Printf("\nsummary statistics: %.1f KB/partition (hist %.1f, hh %.1f, akmv %.1f, measures %.1f)\n",
			sz.Total/1024, sz.Histogram/1024, sz.HH/1024, sz.AKMV/1024, sz.Measure/1024)
		fmt.Printf("feature dimension: %d\n", ts.Space.Dim())
		fmt.Printf("workload: %d groupable, %d predicate, %d aggregate columns\n",
			len(ds.Workload.GroupableCols), len(ds.Workload.PredicateCols), len(ds.Workload.AggCols))
	}

	if *stream != "" {
		if err := streamTable(*stream, t, *streamBatch); err != nil {
			fatal(err)
		}
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriter(f)
		if err := t.WriteCSV(bw); err != nil {
			fatal(err)
		}
		if err := bw.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote CSV to %s\n", *csvOut)
	}
	if *binOut != "" {
		n, err := store.WriteFileFS(fault.OS, *binOut, t, store.WriteOptions{Hints: encodingHints})
		if err != nil {
			fatal(err)
		}
		r, err := store.Open(*binOut, store.Options{})
		if err != nil {
			fatal(err)
		}
		es := r.EncodingStats()
		if err := r.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote paged store to %s (%.1f MB, %d partition blocks, %.2fx block compression)\n",
			*binOut, float64(n)/(1<<20), t.NumParts(), es.Ratio)
	}
}

// streamTable replays t's rows in partition order as POST /append batches.
// Cells go out positionally in schema order: numbers for numeric columns
// (NaN as null — JSON has no NaN literal; the server decodes null back to
// NaN), strings for categorical ones. Each batch is acknowledged only
// after the server has it durably logged, so a completed stream survives a
// server crash. ±Inf has no JSON form at all, so a table holding one is
// refused before anything is sent rather than mid-stream, after earlier
// batches were acknowledged.
func streamTable(baseURL string, t *table.Table, batch int) error {
	if batch <= 0 {
		batch = 256
	}
	first := 0 // global index of the partition's first row
	for _, p := range t.Parts {
		for c, col := range t.Schema.Cols {
			if !col.IsNumeric() {
				continue
			}
			for r, v := range p.NumCol(c) {
				if math.IsInf(v, 0) {
					return fmt.Errorf("row %d column %q is %v, which JSON cannot carry; nothing was streamed", first+r, col.Name, v)
				}
			}
		}
		first += p.Rows()
	}
	url := strings.TrimRight(baseURL, "/") + "/append"
	client := &http.Client{Timeout: 30 * time.Second}
	var (
		rows    [][]any
		sent    int
		batches int
	)
	start := time.Now()
	flush := func() error {
		if len(rows) == 0 {
			return nil
		}
		body, err := json.Marshal(map[string]any{"rows": rows})
		if err != nil {
			return err
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("append batch %d: server returned %s: %s", batches, resp.Status, strings.TrimSpace(string(msg)))
		}
		// Read the acknowledgement to its end: net/http reuses a connection
		// only once its response body is drained.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		sent += len(rows)
		batches++
		rows = rows[:0]
		return nil
	}
	for _, p := range t.Parts {
		for r := 0; r < p.Rows(); r++ {
			row := make([]any, len(t.Schema.Cols))
			for c, col := range t.Schema.Cols {
				if col.IsNumeric() {
					v := p.NumCol(c)[r]
					if math.IsNaN(v) {
						row[c] = nil
					} else {
						row[c] = v
					}
				} else {
					row[c] = t.Dict.Value(p.CatCol(c)[r])
				}
			}
			rows = append(rows, row)
			if len(rows) >= batch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	rate := float64(sent) / elapsed.Seconds()
	fmt.Printf("streamed %d rows in %d batches to %s in %v (%.0f rows/s)\n", sent, batches, url, elapsed.Round(time.Millisecond), rate)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ps3gen:", err)
	os.Exit(1)
}

// Command ps3lint is the repo's invariant multichecker: it runs the custom
// static analyzers under internal/analyzers — mapiter, decodebypass,
// scratchescape, releasesite, panicfree, nakedgo, ctxflow — over the module
// and exits nonzero on any unsuppressed finding. `make lint` (and through it
// `make verify` and CI) runs it over ./... so the determinism, decode-seam,
// scratch-ownership, block-buffer holder-count, error-not-panic,
// bounded-fan-out, and deadline-propagation contracts are checked on every
// build, not re-argued in review.
//
// Usage:
//
//	ps3lint [-tests=false] [-only mapiter,nakedgo] [-list] [packages...]
//
// Packages default to ./... relative to the current directory. Suppressions
// are //lint:<analyzer>-ok <justification> on or directly above the flagged
// line; a directive without a justification suppresses nothing and is itself
// a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ps3/internal/analyzers/analysis"
	"ps3/internal/analyzers/ctxflow"
	"ps3/internal/analyzers/decodebypass"
	"ps3/internal/analyzers/load"
	"ps3/internal/analyzers/mapiter"
	"ps3/internal/analyzers/nakedgo"
	"ps3/internal/analyzers/panicfree"
	"ps3/internal/analyzers/releasesite"
	"ps3/internal/analyzers/scratchescape"
)

// analyzers is the registry, in reporting order.
var analyzers = []*analysis.Analyzer{
	mapiter.Analyzer,
	decodebypass.Analyzer,
	scratchescape.Analyzer,
	releasesite.Analyzer,
	panicfree.Analyzer,
	nakedgo.Analyzer,
	ctxflow.Analyzer,
}

func main() {
	tests := flag.Bool("tests", true, "also analyze _test.go files with the analyzers that cover them")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "ps3lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Analyze test variants only if some selected analyzer wants them.
	wantTests := false
	for _, a := range selected {
		wantTests = wantTests || a.IncludeTests
	}
	pkgs, err := load.Load(".", patterns, *tests && wantTests)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ps3lint: %v\n", err)
		os.Exit(2)
	}

	findings := 0
	for _, pkg := range pkgs {
		for _, a := range selected {
			if pkg.TestFiles != nil && !a.IncludeTests {
				continue
			}
			pass := &analysis.Pass{
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				Info:      pkg.Info,
				TestFiles: pkg.TestFiles,
			}
			diags, err := analysis.Run(a, pass)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ps3lint: %s on %s: %v\n", a.Name, pkg.ImportPath, err)
				os.Exit(2)
			}
			for _, d := range diags {
				fmt.Printf("%s: %s: %s\n", d.Pos, a.Name, d.Message)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "ps3lint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

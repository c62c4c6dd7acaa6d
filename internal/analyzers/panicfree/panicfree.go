// Package panicfree guards the untrusted-decode contract from PRs 3–4.
//
// Snapshot and store bytes come from disk or the network and are hostile
// until validated: every decode path (store readers, the table
// constructors they call, stats.ReadStats, gbt snapshot restore, picker
// restore, WAL recovery) must fail with an
// error, never a panic — a panic in a decode goroutine kills a serving
// process. The fuzzers enforce this dynamically for inputs they reach; this
// analyzer enforces the coding discipline statically for all of it.
//
// Within each configured region — a whole package, or the transitive
// same-package closure of named root functions — the analyzer flags:
//
//   - panic(...) calls;
//   - type assertions without the comma-ok form (x.(T) panics on mismatch;
//     switch x := y.(type) is fine);
//   - calls to Must*-named functions (their documented contract is to panic
//     on bad input, which is exactly what decode paths must not do).
//
// Out-of-range indexing is the other panic source on these paths; it is
// covered dynamically by the fuzzers (FuzzOpenStore, FuzzReadStats,
// FuzzReadWAL, FuzzDecodeRows) since static bounds proofs are out of scope
// here.
// Escape hatch: //lint:panicfree-ok <reason>.
package panicfree

import (
	"go/ast"
	"go/types"
	"strings"

	"ps3/internal/analyzers/analysis"
)

// Config maps package import paths to decode-region roots. A nil/empty root
// list marks the whole package as a decode region; otherwise the region is
// the named functions plus everything in the package reachable from them.
type Config struct {
	Regions map[string][]string
}

// DefaultConfig covers the repo's untrusted decode surfaces.
func DefaultConfig() Config {
	return Config{Regions: map[string][]string{
		// The paged store exists to parse untrusted files; all of it.
		"ps3/internal/store": nil,
		"ps3/internal/table": {"MakePartition", "MakeEncodedPartition", "DictFromValues"},
		"ps3/internal/stats": {"ReadStats"},
		"ps3/internal/gbt":   {"FromSnapshot"},
		// ReadPicker/ReadLSS restore the learned stack from snapshot bytes.
		"ps3/internal/picker": {"ReadPicker", "ReadLSS"},
		// WAL recovery parses logs cut mid-write by a crash: framed scans
		// and row decoding must error on torn bytes, never panic.
		"ps3/internal/ingest": {"ReadWAL", "DecodeRows"},
	}}
}

// Analyzer is the repo-configured instance.
var Analyzer = New(DefaultConfig())

// New builds a panicfree analyzer for the given regions.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "panicfree",
		Doc:  "flags panic, non-comma-ok type asserts, and Must* calls in untrusted-decode regions (PR-3/4 error-not-panic contract)",
		Run:  func(pass *analysis.Pass) error { return run(cfg, pass) },
	}
}

func run(cfg Config, pass *analysis.Pass) error {
	roots, inScope := cfg.Regions[pass.Pkg.Path()]
	if !inScope {
		return nil
	}
	var inRegion func(fd *ast.FuncDecl) bool
	if len(roots) == 0 {
		inRegion = func(*ast.FuncDecl) bool { return true }
	} else {
		rootSet := map[string]bool{}
		for _, r := range roots {
			rootSet[r] = true
		}
		graph := analysis.BuildFuncGraph(pass)
		reached := graph.Reachable(func(fd *ast.FuncDecl) bool {
			return fd.Recv == nil && rootSet[fd.Name.Name]
		})
		inRegion = func(fd *ast.FuncDecl) bool { return fd != nil && reached[fd] }
	}
	for _, f := range pass.Files {
		f := f
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			fd := analysis.FuncFor(f, n)
			if fd == nil || !inRegion(fd) {
				return true
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, fd, n)
			case *ast.TypeAssertExpr:
				checkAssert(pass, fd, f, n)
			}
			return true
		})
	}
	return nil
}

// checkCall flags panic() and Must* calls.
func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := pass.Info.Uses[fun]; ok {
			if b, ok := obj.(*types.Builtin); ok && b.Name() == "panic" {
				pass.Reportf(call.Pos(),
					"panic in untrusted-decode function %s: decode paths must return errors; justify with //lint:panicfree-ok", fd.Name.Name)
				return
			}
		}
		flagMust(pass, fd, call, fun.Name)
	case *ast.SelectorExpr:
		flagMust(pass, fd, call, fun.Sel.Name)
	}
}

func flagMust(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, name string) {
	if strings.HasPrefix(name, "Must") {
		pass.Reportf(call.Pos(),
			"%s calls %s in an untrusted-decode region: Must* panics on bad input; use the error-returning form or justify with //lint:panicfree-ok", fd.Name.Name, name)
	}
}

// checkAssert flags x.(T) without the comma-ok form. A TypeAssertExpr inside
// a type switch has a nil Type and is exempt; the comma-ok form is detected
// by the parent assignment expecting two values.
func checkAssert(pass *analysis.Pass, fd *ast.FuncDecl, f *ast.File, ta *ast.TypeAssertExpr) {
	if ta.Type == nil {
		return // type switch
	}
	if tv, ok := pass.Info.Types[ta]; ok {
		// In `v, ok := x.(T)` the assert expression has a 2-tuple type.
		if t, ok := tv.Type.(*types.Tuple); ok && t.Len() == 2 {
			return
		}
	}
	pass.Reportf(ta.Pos(),
		"type assertion without comma-ok in untrusted-decode function %s panics on unexpected wire data; use the two-value form or justify with //lint:panicfree-ok", fd.Name.Name)
}

// Package scratchescape guards the pooled-scratch ownership contract from
// PRs 5–6.
//
// The hot paths recycle large working sets through sync.Pool — cluster's
// kmScratch, picker's pickScratch, query's kernel scratch (which owns the
// selection vectors). The contract: a scratch is owned by exactly one
// goroutine between pool Get and Put, and nothing derived from it outlives
// the Put. A scratch that leaks — stored in a longer-lived struct, captured
// by a spawned goroutine, or returned to a caller who doesn't know about the
// deferred Put — resurfaces later as cross-request data corruption that no
// unit test reproduces deterministically.
//
// Flagged shapes, for each configured scratch type:
//
//   - a scratch value assigned into a field of any non-scratch struct, or
//     supplied as a field in a non-scratch composite literal;
//   - a scratch value assigned to a package-level variable;
//   - a `go` statement whose function literal captures a scratch variable,
//     or that passes a scratch as an argument;
//   - a declared function returning a scratch, unless it is a sanctioned
//     pool accessor listed in Config.AllowedReturns;
//   - a function literal returning a scratch it captured from an enclosing
//     scope (returning a locally constructed scratch is the per-worker
//     constructor idiom used with exec.MapWith and stays legal).
//
// Escape hatch: //lint:scratchescape-ok <reason>.
package scratchescape

import (
	"go/ast"
	"go/types"

	"ps3/internal/analyzers/analysis"
)

// TypeRef names a scratch type by defining-package name and type name (the
// types are unexported, so import-path matching is unavailable to testdata).
type TypeRef struct {
	PkgName  string
	TypeName string
}

// Config lists the pooled types and the sanctioned pool accessors.
type Config struct {
	Types []TypeRef
	// AllowedReturns holds types.Func.FullName() strings of the pool
	// get/new helpers that legitimately hand a scratch to their caller.
	AllowedReturns map[string]bool
}

// DefaultConfig covers the repo's pooled scratch types.
func DefaultConfig() Config {
	return Config{
		Types: []TypeRef{
			{PkgName: "cluster", TypeName: "kmScratch"},
			{PkgName: "picker", TypeName: "pickScratch"},
			{PkgName: "query", TypeName: "scratch"},
		},
		AllowedReturns: map[string]bool{
			"ps3/internal/cluster.getKMScratch":        true,
			"ps3/internal/picker.getPickScratch":       true,
			"ps3/internal/query.takeScratch":           true,
			"(*ps3/internal/query.scanScratches).take": true,
		},
	}
}

// Analyzer is the repo-configured instance.
var Analyzer = New(DefaultConfig())

// New builds a scratchescape analyzer for the given scratch types.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "scratchescape",
		Doc:  "flags pooled scratch values escaping their owner: struct-field stores, goroutine captures, returns outside the pool accessors (PR-5/6 scratch-ownership contract)",
		Run:  func(pass *analysis.Pass) error { return run(cfg, pass) },
	}
}

func run(cfg Config, pass *analysis.Pass) error {
	for _, f := range pass.Files {
		f := f
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkAssign(cfg, pass, n)
			case *ast.CompositeLit:
				checkCompositeLit(cfg, pass, n)
			case *ast.GoStmt:
				checkGo(cfg, pass, n)
			case *ast.FuncDecl:
				checkFuncDeclReturns(cfg, pass, n)
			case *ast.FuncLit:
				checkFuncLitReturns(cfg, pass, f, n)
			}
			return true
		})
	}
	return nil
}

// isScratch reports whether t is (a pointer to) a configured scratch type.
func isScratch(cfg Config, t types.Type) bool {
	if t == nil {
		return false
	}
	for {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	for _, ref := range cfg.Types {
		if obj.Name() == ref.TypeName && obj.Pkg().Name() == ref.PkgName {
			return true
		}
	}
	return false
}

// checkAssign flags scratch values stored into struct fields of non-scratch
// types or into package-level variables.
func checkAssign(cfg Config, pass *analysis.Pass, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break // x, y = f() — multi-value RHS never yields scratch here
		}
		if !isScratch(cfg, pass.TypeOf(as.Rhs[i])) {
			continue
		}
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			sel, ok := pass.Info.Selections[l]
			if !ok || sel.Kind() != types.FieldVal {
				continue
			}
			// Wiring one scratch into another (sc.sub = subScratch) keeps
			// ownership inside the pooled unit and stays legal.
			if isScratch(cfg, sel.Recv()) {
				continue
			}
			pass.Reportf(as.Pos(),
				"pooled scratch stored into struct field %s outlives its pool Put; pass it as a parameter or justify with //lint:scratchescape-ok", sel.Obj().Name())
		case *ast.Ident:
			obj := pass.Info.Uses[l]
			if obj == nil {
				continue
			}
			if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
				pass.Reportf(as.Pos(),
					"pooled scratch stored into package-level variable %s escapes its owner; justify with //lint:scratchescape-ok", v.Name())
			}
		}
	}
}

// checkCompositeLit flags scratch values placed in fields of non-scratch
// composite literals.
func checkCompositeLit(cfg Config, pass *analysis.Pass, cl *ast.CompositeLit) {
	t := pass.TypeOf(cl)
	if t == nil || isScratch(cfg, t) {
		return
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if isScratch(cfg, pass.TypeOf(kv.Value)) {
			pass.Reportf(kv.Pos(),
				"pooled scratch embedded in a struct literal outlives its pool Put; justify with //lint:scratchescape-ok")
		}
	}
}

// checkGo flags goroutines that receive a scratch by argument or capture.
func checkGo(cfg Config, pass *analysis.Pass, g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if isScratch(cfg, pass.TypeOf(arg)) {
			pass.Reportf(arg.Pos(),
				"pooled scratch passed to a goroutine leaves its owning goroutine; use exec's per-worker state or justify with //lint:scratchescape-ok")
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	//lint:mapiter-ok diagnostics are sorted by position before the pass reports them
	for id, obj := range capturedScratch(cfg, pass, lit) {
		pass.Reportf(id.Pos(),
			"goroutine captures pooled scratch %s from its owner; use exec's per-worker state or justify with //lint:scratchescape-ok", obj.Name())
	}
}

// capturedScratch returns scratch-typed identifiers used inside lit but
// declared outside it.
func capturedScratch(cfg Config, pass *analysis.Pass, lit *ast.FuncLit) map[*ast.Ident]types.Object {
	out := map[*ast.Ident]types.Object{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || !isScratch(cfg, obj.Type()) {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			out[id] = obj
		}
		return true
	})
	return out
}

// checkFuncDeclReturns flags declared functions that hand scratch to their
// callers, except the sanctioned pool accessors.
func checkFuncDeclReturns(cfg Config, pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Results == nil {
		return
	}
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if ok && cfg.AllowedReturns[obj.FullName()] {
		return
	}
	for _, field := range fd.Type.Results.List {
		if isScratch(cfg, pass.TypeOf(field.Type)) {
			pass.Reportf(field.Type.Pos(),
				"%s returns a pooled scratch: only the pool accessors may hand scratch to callers; justify with //lint:scratchescape-ok", fd.Name.Name)
		}
	}
}

// checkFuncLitReturns flags function literals returning a scratch captured
// from an enclosing scope. Returning a locally built scratch is the
// per-worker constructor idiom (exec.MapWith's newW) and stays legal.
func checkFuncLitReturns(cfg Config, pass *analysis.Pass, f *ast.File, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested literal gets its own visit
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			id, ok := res.(*ast.Ident)
			if !ok {
				continue
			}
			obj, ok := pass.Info.Uses[id].(*types.Var)
			if !ok || !isScratch(cfg, obj.Type()) {
				continue
			}
			if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
				pass.Reportf(res.Pos(),
					"function literal returns captured pooled scratch %s past its owner; justify with //lint:scratchescape-ok", obj.Name())
			}
		}
		return true
	})
}

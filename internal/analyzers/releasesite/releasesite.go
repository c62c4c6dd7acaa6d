// Package releasesite guards the holder count on a loaded partition.
//
// A partition a store reader loads owns its block buffer and counts who
// still reads it (table.Partition.Own / Retain / Release). The last Release
// hands the buffer to the next load, so the two ways to get the count wrong
// are the two ways to scan another block's bytes: releasing a hold one does
// not have, and reading a partition after letting it go. Forgetting to
// release is harmless — the collector takes the buffer — which is why the
// contract can afford to have almost no release sites: the partition cache's
// hooks, for the cache's own hold, and the one scan loop, for each read's.
//
// The analyzer enforces that shape in non-test code:
//
//   - any mention of the Release method of the configured type — a call, a
//     deferred call, a method value or a method expression — outside the
//     functions listed in Config.Allowed is flagged;
//   - inside any function, a use of a partition variable positioned after
//     that variable's Release call is flagged, up to the variable's next
//     plain reassignment. The check is lexical: a deferred Release runs at
//     return and is not a release point, and a use that only a loop's back
//     edge puts after the release is beyond it.
//
// Tests release partitions to exercise the contract itself and are not
// analyzed. Escape hatch: //lint:releasesite-ok <reason>.
package releasesite

import (
	"go/ast"
	"go/token"
	"go/types"

	"ps3/internal/analyzers/analysis"
)

// Config names the counted type and the functions that may release it.
type Config struct {
	// PkgName and TypeName name the type by its defining package's name and
	// its own (fixtures cannot reproduce import paths).
	PkgName  string
	TypeName string
	// Method is the releasing method's name.
	Method string
	// Allowed holds types.Func.FullName() strings of the functions whose
	// bodies may mention the method.
	Allowed map[string]bool
}

// DefaultConfig allows the scan loop, which releases each partition it read,
// and the reader's constructor, which hands Retain and Release to the cache.
func DefaultConfig() Config {
	return Config{
		PkgName:  "table",
		TypeName: "Partition",
		Method:   "Release",
		Allowed: map[string]bool{
			"ps3/internal/query.scan":        true,
			"ps3/internal/store.NewReaderAt": true,
		},
	}
}

// Analyzer is the repo-configured instance.
var Analyzer = New(DefaultConfig())

// New builds a releasesite analyzer for the given counted type.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "releasesite",
		Doc:  "flags table.Partition.Release outside the scan loop and the reader's cache hooks, and any use of a partition variable after its Release (block-buffer holder count)",
		Run:  func(pass *analysis.Pass) error { return run(cfg, pass) },
	}
}

func run(cfg Config, pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			allowed := fn != nil && cfg.Allowed[fn.FullName()]
			checkBody(cfg, pass, fd.Body, allowed)
		}
	}
	return nil
}

// isRelease reports whether sel mentions the configured method on the
// configured type, as a call target, method value or method expression.
func isRelease(cfg Config, pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != cfg.Method {
		return false
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || (s.Kind() != types.MethodVal && s.Kind() != types.MethodExpr) {
		return false
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == cfg.TypeName && named.Obj().Pkg().Name() == cfg.PkgName
}

// checkBody reports release sites in body when its function is not allowed,
// and uses after a release whether it is or not.
func checkBody(cfg Config, pass *analysis.Pass, body *ast.BlockStmt, allowed bool) {
	deferred := map[*ast.CallExpr]bool{}
	// released maps a partition variable to where its Release call ends.
	released := map[*types.Var]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.SelectorExpr:
			if isRelease(cfg, pass, n) && !allowed {
				pass.Reportf(n.Sel.Pos(),
					"%s.%s.%s outside the sanctioned release sites: a scan's reads are released by the scan loop and the cache's hold by its hooks, anything else leaves the buffer to the collector; justify with //lint:releasesite-ok",
					cfg.PkgName, cfg.TypeName, cfg.Method)
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || deferred[n] || !isRelease(cfg, pass, sel) {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if v, ok := pass.Info.Uses[id].(*types.Var); ok {
					if _, seen := released[v]; !seen {
						released[v] = n.End()
					}
				}
			}
		}
		return true
	})
	if len(released) == 0 {
		return
	}
	// A plain reassignment gives the variable a new partition: uses from
	// there on are that one's.
	rebound := map[*types.Var]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			v, _ := pass.Info.Uses[id].(*types.Var)
			at, wasReleased := released[v]
			if !wasReleased || id.Pos() < at {
				continue
			}
			if old, ok := rebound[v]; !ok || id.Pos() < old {
				rebound[v] = id.Pos()
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := pass.Info.Uses[id].(*types.Var)
		at, wasReleased := released[v]
		if !wasReleased || id.Pos() < at {
			return true
		}
		if until, ok := rebound[v]; ok && id.Pos() >= until {
			return true
		}
		pass.Reportf(id.Pos(),
			"%s is used after its %s: the buffer behind it may already hold another block; release after the last read or justify with //lint:releasesite-ok",
			id.Name, cfg.Method)
		return true
	})
}

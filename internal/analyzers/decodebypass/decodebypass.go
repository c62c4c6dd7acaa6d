// Package decodebypass guards the lazy-decode seam introduced in PR 7.
//
// table.Partition keeps encoded columns in a private side store; the public
// Num/Cat fields stay nil for those columns so that nothing can observe a
// half-materialized slice without synchronization. The contract is that all
// reads go through the accessors (NumCol, CatCol, EncCol, FirstTouch,
// Decoded, DecodedCols), which materialize lazily under a sync.Once and
// charge DecodeStats. Any direct touch of the raw fields — read, write, or
// composite-literal key — outside the whitelisted decode/materialize sites
// bypasses that seam: on an encoded partition it sees nil where data exists,
// and on a shared partition it races with materialization.
//
// The analyzer flags every selector of the protected fields and every keyed
// use in a Partition composite literal, in ordinary and _test.go files alike
// (tests poke representations more than anyone), except inside the functions
// named in Config.Allowed. Escape hatch: //lint:decodebypass-ok <reason>,
// for tests that assert the physical representation itself.
//
// A second check guards what sits behind the seam. The columns of a partition
// loaded from a store block are views into one shared buffer — the bytes the
// reader checksummed — so table.EncodedCol.Packed (and the run lists beside
// it) may be read anywhere and written nowhere: a write through one column
// would corrupt its neighbours and un-verify the block. Outside the defining
// package the analyzer flags every write whose target is rooted at one of
// Config.ViewFields: an element or slice assignment (plain, compound or
// ++/--), reassigning the field, and the field as the destination of copy,
// append or clear. A write through a local alias of the slice is beyond a
// syntactic check; the fields' documentation carries that part.
package decodebypass

import (
	"go/ast"
	"go/types"

	"ps3/internal/analyzers/analysis"
)

// Config identifies the protected struct and the sanctioned access sites.
type Config struct {
	// PkgName and TypeName name the protected struct by its defining
	// package's name and the type's name (the type may be unexported in
	// testdata fixtures, so matching is by name, not import path).
	PkgName  string
	TypeName string
	// Fields are the protected field names.
	Fields []string
	// Allowed holds types.Func.FullName() strings of the functions that
	// legitimately touch the raw fields: the accessors themselves, the
	// validated constructors, and the representation-size accounting.
	Allowed map[string]bool
	// ViewType names a second struct of the same package whose ViewFields
	// are slices aliasing a shared immutable buffer: readable everywhere,
	// written only inside the defining package.
	ViewType   string
	ViewFields []string
}

// DefaultConfig protects table.Partition.Num/Cat, whitelisting only the
// decode path: the lazy accessors, the validated constructors, the builder's
// ingest append, and the two size accountants that price the representation.
func DefaultConfig() Config {
	return Config{
		PkgName:  "table",
		TypeName: "Partition",
		Fields:   []string{"Num", "Cat"},
		Allowed: map[string]bool{
			"(*ps3/internal/table.Partition).NumCol":           true,
			"(*ps3/internal/table.Partition).CatCol":           true,
			"(*ps3/internal/table.Partition).DecodedCols":      true,
			"(*ps3/internal/table.Partition).SizeBytes":        true,
			"(*ps3/internal/table.Partition).EncodedSizeBytes": true,
			"(*ps3/internal/table.Builder).Append":             true,
			"ps3/internal/table.NewPartition":                  true,
			"ps3/internal/table.MakePartition":                 true,
			"ps3/internal/table.MakeEncodedPartition":          true,
		},
		ViewType:   "EncodedCol",
		ViewFields: []string{"Packed", "RunVals", "RunEnds"},
	}
}

// Analyzer is the repo-configured instance.
var Analyzer = New(DefaultConfig())

// New builds a decodebypass analyzer for the given protected struct.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:         "decodebypass",
		Doc:          "flags direct access to table.Partition.Num/Cat outside the whitelisted decode sites (PR-7 lazy-decode seam), and writes through table.EncodedCol's shared-buffer slices outside package table",
		IncludeTests: true,
		Run:          func(pass *analysis.Pass) error { return run(cfg, pass) },
	}
}

func run(cfg Config, pass *analysis.Pass) error {
	protected := map[string]bool{}
	for _, f := range cfg.Fields {
		protected[f] = true
	}
	views := map[string]bool{}
	for _, f := range cfg.ViewFields {
		views[f] = true
	}
	// checkViewWrite reports target when it is a view field, or an element
	// or sub-slice of one, outside the package that defines the view type.
	checkViewWrite := func(target ast.Expr, how string) {
		sel := viewRoot(target)
		if sel == nil {
			return
		}
		s, ok := pass.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal || !views[s.Obj().Name()] || !isNamedStruct(cfg.PkgName, cfg.ViewType, s.Recv()) {
			return
		}
		if s.Obj().Pkg() != nil && s.Obj().Pkg().Path() == pass.Pkg.Path() {
			return
		}
		pass.Reportf(sel.Sel.Pos(),
			"%s %s.%s.%s: the slice is a view into a buffer the partition's other columns share and nothing may write after its checksum; copy it first or justify with //lint:decodebypass-ok",
			how, cfg.PkgName, cfg.ViewType, s.Obj().Name())
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkViewWrite(lhs, "assignment through")
				}
			case *ast.IncDecStmt:
				checkViewWrite(n.X, "assignment through")
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 {
					if _, builtin := pass.Info.Uses[id].(*types.Builtin); builtin && (id.Name == "copy" || id.Name == "append" || id.Name == "clear") {
						checkViewWrite(n.Args[0], id.Name+" into")
					}
				}
			case *ast.SelectorExpr:
				sel, ok := pass.Info.Selections[n]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				field, ok := sel.Obj().(*types.Var)
				if !ok || !protected[field.Name()] || !isNamedStruct(cfg.PkgName, cfg.TypeName, sel.Recv()) {
					return true
				}
				if allowedSite(cfg, pass, f, n) {
					return true
				}
				pass.Reportf(n.Sel.Pos(),
					"direct access to %s.%s.%s bypasses the lazy-decode seam; use the accessors (NumCol/CatCol/EncCol/DecodedCols) or justify with //lint:decodebypass-ok",
					cfg.PkgName, cfg.TypeName, field.Name())
			case *ast.CompositeLit:
				t := pass.TypeOf(n)
				if t == nil || !isNamedStruct(cfg.PkgName, cfg.TypeName, t) {
					return true
				}
				if allowedSite(cfg, pass, f, n) {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || !protected[key.Name] {
						continue
					}
					pass.Reportf(key.Pos(),
						"composite literal sets %s.%s.%s directly, bypassing the validated constructors; use MakePartition/MakeEncodedPartition or justify with //lint:decodebypass-ok",
						cfg.PkgName, cfg.TypeName, key.Name)
				}
			}
			return true
		})
	}
	return nil
}

// viewRoot strips the indexing, slicing and parentheses off a write target
// and returns the field selector underneath, if that is what is left.
func viewRoot(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x
		default:
			return nil
		}
	}
}

// isNamedStruct reports whether t (possibly behind pointers) is the type
// typeName of a package named pkgName.
func isNamedStruct(pkgName, typeName string, t types.Type) bool {
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
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// allowedSite reports whether node n sits inside a whitelisted function.
func allowedSite(cfg Config, pass *analysis.Pass, f *ast.File, n ast.Node) bool {
	fd := analysis.FuncFor(f, n)
	if fd == nil {
		return false
	}
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	return cfg.Allowed[obj.FullName()]
}

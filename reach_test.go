package ps3_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// unlinkedOK is the whole allowlist of TestProductionCodeIsLinked: production
// code no shipped binary links, each entry with the reason it stays. A key is
// a file or directory of the repo, or a function as pkg.Name / pkg.Recv.Name.
var unlinkedOK = map[string]string{
	"internal/fault/inject.go":        "the fault-injecting filesystem the store, ingest, serve and core tests share; a _test.go file cannot be imported across packages",
	"internal/testutil":               "helpers shared by the tests of many packages",
	"internal/analyzers/analyzertest": "the fixture harness every analyzer's test runs",
	"internal/query/reference.go":     "the frozen row evaluator the root bench-exec benchmarks time the kernels against",
	"query.Compiled.EvalPartition":    "the per-partition kernel entry the root bench-exec benchmarks time against reference.go without a scan's fan-out, and the store encoding tests call",
}

// referenceNames are the frozen references of the pick stack besides the
// *Reference* functions: each lives in a _test.go file of its package, and a
// binary that links one runs test code in production.
var referenceNames = []string{"clusterSelect", "clusterizeRef", "compressActive", "Normalize"}

// TestProductionCodeIsLinked: every function or method declared in a non-test
// file under internal/ or in ps3.go is linked into some binary the repo ships
// — a command, an example or the serving benchmark — unless unlinkedOK names
// it; and no binary links a frozen reference. Reachability is the linker's:
// every binary is built with inlining off, so that a function inlined at each
// of its call sites still shows in `go tool nm`, and interface and reflection
// edges count as the linker counts them.
func TestProductionCodeIsLinked(t *testing.T) {
	dir := t.TempDir()
	goBuild := func(args ...string) {
		t.Helper()
		cmd := exec.Command("go", args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	goBuild("build", "-gcflags=all=-l", "-o", dir, "./cmd/...", "./examples/...")
	goBuild("-C", "bench", "build", "-gcflags=all=-l", "-o", filepath.Join(dir, "bench"), ".")

	linked := map[string]map[string]bool{} // package path → linked names and their dotted prefixes
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			pkg, name, ok := symbolName(sc.Text())
			if !ok {
				continue
			}
			if linked[pkg] == nil {
				linked[pkg] = map[string]bool{}
			}
			for i := range name {
				if name[i] == '.' {
					linked[pkg][name[:i]] = true
				}
			}
			linked[pkg][name] = true
			if strings.HasPrefix(pkg, "ps3/internal/") {
				parts := strings.Split(name, ".")
				if strings.Contains(name, "Reference") || slices.ContainsFunc(referenceNames, func(r string) bool { return slices.Contains(parts, r) }) {
					t.Errorf("%s links reference code: %s.%s", bin.Name(), pkg, name)
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	used := map[string]bool{}
	for _, decl := range productionFuncs(t) {
		if linked[decl.pkg][decl.name] {
			continue
		}
		if key := allowed(decl); key != "" {
			used[key] = true
			continue
		}
		t.Errorf("%s: %s.%s is linked into no binary of cmd/, examples/ or bench/: give it a production caller, move it into a _test.go file, or delete it", decl.pos, filepath.Base(decl.pkg), decl.name)
	}
	if len(unlinkedOK) > 5 {
		t.Errorf("the allowlist has %d entries; it may have at most 5", len(unlinkedOK))
	}
	for key := range unlinkedOK {
		if !used[key] {
			t.Errorf("allowlist entry %q excuses no unlinked function: delete it", key)
		}
	}
}

// symbolName splits one line of `go tool nm` into the package path and the
// name within the package of a function symbol of this module, in the form
// TestProductionCodeIsLinked keys declarations by: type arguments dropped,
// pointer receivers unwrapped — ps3/internal/lru.(*Cache[go.shape.string,…]).Get
// is ("ps3/internal/lru", "Cache.Get"). The name is everything after the type
// column, since an instantiation's type arguments may hold spaces.
func symbolName(line string) (pkg, name string, ok bool) {
	m := nmLine.FindStringSubmatch(line)
	if m == nil {
		return "", "", false
	}
	sym := stripBrackets(m[1])
	if !strings.HasPrefix(sym, "ps3.") && !strings.HasPrefix(sym, "ps3/") {
		return "", "", false
	}
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return "", "", false
	}
	pkg, name = sym[:slash+1+dot], sym[slash+1+dot+1:]
	if name == "" || name[0] == '.' { // ..dict, ..stmp and the like: data, not code
		return "", "", false
	}
	name = strings.NewReplacer("(*", "", ")", "").Replace(name)
	return pkg, name, true
}

// nmLine matches a `go tool nm` line: an optional address, the one-letter
// symbol type, then the name.
var nmLine = regexp.MustCompile(`^\s*(?:[0-9a-f]+\s+)?[A-Za-z]\s+(.+)$`)

// stripBrackets drops every bracketed type-argument list, nested ones
// included.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcDecl is one function or method declared in production code.
type funcDecl struct {
	pkg  string // import path
	name string // Name or Recv.Name
	file string // slash path from the repo root
	pos  string
}

// productionFuncs lists every function and method declared in a non-test
// file under internal/ or in ps3.go that the default build context compiles.
func productionFuncs(t *testing.T) []funcDecl {
	t.Helper()
	paths := []string{"ps3.go"}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var decls []funcDecl
	for _, path := range paths {
		if ok, err := build.Default.MatchFile(filepath.Dir(path), filepath.Base(path)); err != nil || !ok {
			continue // another build context's file (testutil's race_on.go)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := "ps3"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, funcDecl{pkg: pkg, name: name, file: filepath.ToSlash(path), pos: fset.Position(fn.Pos()).String()})
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no production function")
	}
	return decls
}

// recvName is the name of a receiver's type: *T, T[K, V] and *T[K] are T.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// allowed is the unlinkedOK key that excuses decl, or "".
func allowed(decl funcDecl) string {
	keys := []string{filepath.Base(decl.pkg) + "." + decl.name, decl.file}
	for dir := filepath.Dir(decl.file); dir != "."; dir = filepath.Dir(dir) {
		keys = append(keys, filepath.ToSlash(dir))
	}
	for _, key := range keys {
		if _, ok := unlinkedOK[key]; ok {
			return key
		}
	}
	return ""
}

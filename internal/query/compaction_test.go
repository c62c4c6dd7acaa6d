package query

import (
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/bits"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ps3/internal/table"
)

// compactionRows is long enough that bit-packed rows straddle 64-bit words,
// and odd, so that "alternating" and "only the last row" differ.
const compactionRows = 67

// passPatterns are the rows a column marks: every compaction loop is run over
// columns holding one value on the marked rows and another elsewhere.
var passPatterns = []struct {
	name string
	on   func(r int) bool
}{
	{"none", func(int) bool { return false }},
	{"all", func(int) bool { return true }},
	{"alternating", func(r int) bool { return r%2 == 1 }},
	{"first row", func(r int) bool { return r == 0 }},
	{"last row", func(r int) bool { return r == compactionRows-1 }},
}

// compactionInputs are the selections a kernel is handed — every row, as the
// root conjunction hands its first clause, and the odd rows — each in a
// buffer exactly as long as the selection: an unconditional write past the
// input panics.
func compactionInputs() map[string][]int32 {
	all := identity(make([]int32, compactionRows), compactionRows)
	var odd []int32
	for r := 1; r < compactionRows; r += 2 {
		odd = append(odd, int32(r))
	}
	return map[string][]int32{"every row": all, "odd rows": slices.Clip(odd)}
}

// numForms builds a one-column numeric partition in each form a clause can
// read it in: decoded, and as a store-v2 block holds it before any scan —
// raw numeric, and frame-of-reference when every value is an integer the
// frame can hold exactly. A form that cannot hold vals returns nil.
var numForms = []struct {
	name string
	make func(t *testing.T, s *table.Schema, vals []float64) *table.Partition
}{
	{"decoded", func(t *testing.T, s *table.Schema, vals []float64) *table.Partition {
		p, err := table.MakePartition(s, 0, len(vals), [][]float64{vals}, [][]uint32{nil})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}},
	{"first-touch raw numeric", func(t *testing.T, s *table.Schema, vals []float64) *table.Partition {
		raw := make([]byte, 8*len(vals))
		for r, v := range vals {
			binary.LittleEndian.PutUint64(raw[8*r:], math.Float64bits(v))
		}
		e, err := table.NewRawNumCol(len(vals), raw)
		if err != nil {
			t.Fatal(err)
		}
		return encodedOnly(t, s, e)
	}},
	{"first-touch frame of reference", func(t *testing.T, s *table.Schema, vals []float64) *table.Partition {
		// Integers within 2^53 of each other and of zero; not −0, which a
		// frame reconstructs as +0.
		for _, v := range vals {
			if v != math.Trunc(v) || math.Abs(v) > 1<<53 || math.Signbit(v) && v == 0 {
				return nil
			}
		}
		lo, hi := slices.Min(vals), slices.Max(vals)
		if hi-lo >= 1<<53 {
			return nil
		}
		deltas := make([]uint64, len(vals))
		for r, v := range vals {
			deltas[r] = uint64(v - lo)
		}
		w := uint8(bits.Len64(uint64(hi - lo)))
		e, err := table.NewFoRCol(len(vals), lo, w, bitPack(deltas, w))
		if err != nil {
			t.Fatal(err)
		}
		if got := e.DecodeNum(); !slices.Equal(got, vals) {
			t.Fatalf("frame of reference at %v decodes %v to %v", lo, vals, got)
		}
		return encodedOnly(t, s, e)
	}},
}

// catForms is numForms for a categorical column: decoded, first-touch
// bit-packed at the width of its largest code, and run-length.
var catForms = []struct {
	name string
	make func(t *testing.T, s *table.Schema, codes []uint32) *table.Partition
}{
	{"decoded", func(t *testing.T, s *table.Schema, codes []uint32) *table.Partition {
		p, err := table.MakePartition(s, 0, len(codes), [][]float64{nil}, [][]uint32{codes})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}},
	{"first-touch bit-packed", func(t *testing.T, s *table.Schema, codes []uint32) *table.Partition {
		packed := make([]uint64, len(codes))
		for r, c := range codes {
			packed[r] = uint64(c)
		}
		w := uint8(bits.Len32(slices.Max(codes)))
		e, err := table.NewBitPackedCol(len(codes), w, bitPack(packed, w))
		if err != nil {
			t.Fatal(err)
		}
		return encodedOnly(t, s, e)
	}},
	{"run-length", func(t *testing.T, s *table.Schema, codes []uint32) *table.Partition {
		var vals []uint32
		var ends []int32
		for r, c := range codes {
			if r > 0 && c == vals[len(vals)-1] {
				ends[len(ends)-1]++
			} else {
				vals, ends = append(vals, c), append(ends, int32(r+1))
			}
		}
		e, err := table.NewRLECol(len(codes), vals, ends)
		if err != nil {
			t.Fatal(err)
		}
		return encodedOnly(t, s, e)
	}},
}

// encodedOnly is a one-column partition holding e, no row of it read yet.
func encodedOnly(t *testing.T, s *table.Schema, e *table.EncodedCol) *table.Partition {
	t.Helper()
	p, err := table.MakeEncodedPartition(s, 0, e.Rows, [][]float64{nil}, [][]uint32{nil}, []*table.EncodedCol{e}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompactionEdgeCases runs every compaction loop of the package — the
// raw clause ladder, its first-touch encoded twins over raw numeric,
// frame-of-reference and bit-packed columns, the run-length loop, Or's and
// Not's mark sweeps and filterSelection's merge — over columns holding one
// value on the rows of a pass pattern and another
// elsewhere, and requires each selection to be the rows the row-at-a-time
// rowFn passes, in order. Values include NaN, both zeros, both infinities,
// ±MaxFloat64 and subnormals; constants NaN, −0 and ±Inf besides the
// column's own values; categorical columns carry a code past the clause's
// lookup table, as a corrupted partition would. Each partition of an encoded
// form is fresh, so the clause reads it on its first touch, and every buffer
// is exactly as long as what is written into it.
func TestCompactionEdgeCases(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	numSchema := table.MustSchema(table.Column{Name: "x", Kind: table.Numeric})
	numPairs := [][2]float64{
		{math.Inf(-1), math.Inf(1)},
		{negZero, 0},
		{math.NaN(), 1},
		{-math.MaxFloat64, math.MaxFloat64},
		{tiny, 2 * tiny},
		{0, tiny},
		{-tiny, math.NaN()},
		// Integers, which the frame of reference holds too.
		{0, 1},
		{-7, 12},
		{3, 3 + 1<<20},
		{-1 << 52, 1<<52 - 1},
		{1<<53 - 4, 1 << 53},
	}
	for _, pair := range numPairs {
		consts := []float64{math.NaN(), negZero, 0, math.Inf(1), math.Inf(-1), math.MaxFloat64, tiny,
			pair[0], pair[1], pair[0]/2 + pair[1]/2, pair[0] - 1, pair[1] + 0.5}
		for _, pat := range passPatterns {
			vals := make([]float64, compactionRows)
			for r := range vals {
				vals[r] = pair[b2i(pat.on(r))]
			}
			twin := numForms[0].make(t, numSchema, vals)
			for _, form := range numForms {
				if form.make(t, numSchema, vals) == nil {
					continue
				}
				fresh := func() *table.Partition { return form.make(t, numSchema, vals) }
				for _, v := range consts {
					for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
						label := fmt.Sprintf("%s column %v on %s rows, x %s %v", form.name, pair, pat.name, op, v)
						checkCompaction(t, label, numSchema, table.NewDict(), &Clause{Col: "x", Op: op, Num: v}, twin, fresh, form.name != "decoded")
					}
				}
			}
		}
	}

	// Codes 0..3 are the dictionary's; 4, the first code past every clause's
	// lookup table, and 9 are not.
	dict, err := table.DictFromValues([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	catSchema := table.MustSchema(table.Column{Name: "k", Kind: table.Categorical})
	catClauses := []*Clause{
		{Col: "k", Op: OpEq, Strs: []string{"a"}},           // single code
		{Col: "k", Op: OpNe, Strs: []string{"a"}},           // single code, negated
		{Col: "k", Op: OpIn, Strs: []string{"a", "c"}},      // code table
		{Col: "k", Op: OpNe, Strs: []string{"a", "c"}},      // code table, negated
		{Col: "k", Op: OpIn, Strs: []string{"b", "d", "z"}}, // code table, one value unseen
		{Col: "k", Op: OpEq, Strs: []string{"d"}},           // wider than a one-bit column
		{Col: "k", Op: OpNe, Strs: []string{"d"}},
		{Col: "k", Op: OpEq, Strs: []string{"z"}}, // unseen: no row
		{Col: "k", Op: OpNe, Strs: []string{"z", "y"}},
	}
	for _, pair := range [][2]uint32{{1, 0}, {4, 0}, {1, 4}, {9, 2}, {3, 2}} {
		for _, pat := range passPatterns {
			codes := make([]uint32, compactionRows)
			for r := range codes {
				codes[r] = pair[b2i(pat.on(r))]
			}
			twin := catForms[0].make(t, catSchema, codes)
			for _, form := range catForms {
				fresh := func() *table.Partition { return form.make(t, catSchema, codes) }
				for _, cl := range catClauses {
					label := fmt.Sprintf("%s column %v on %s rows, k %s %v", form.name, pair, pat.name, cl.Op, cl.Strs)
					set, err := catCodeSet(cl, dict)
					if err != nil {
						t.Fatal(err)
					}
					encoded := form.name != "decoded" && len(set) > 0
					checkCompaction(t, label, catSchema, dict, cl, twin, fresh, encoded)
				}
			}
		}
	}
}

// checkCompaction runs one clause through every loop that compacts by it and
// compares each selection with the rows ref passes on twin, the decoded form
// of the column fresh builds. encoded says whether the clause must have run
// on the encoded column: once per evaluation, with nothing decoded.
func checkCompaction(t *testing.T, label string, s *table.Schema, d *table.Dict, cl *Clause, twin *table.Partition, fresh func() *table.Partition, encoded bool) {
	t.Helper()
	passing := func(pred Pred, in []int32) []int32 {
		ref, err := compilePred(pred, s, d)
		if err != nil {
			t.Fatal(err)
		}
		out := []int32{}
		for _, r := range in {
			if ref(twin, int(r)) {
				out = append(out, r)
			}
		}
		return out
	}
	same := func(what string, got, want []int32) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s, %s: selects %v, the row loop %v", label, what, got, want)
		}
	}
	// ran evaluates one kernel on a fresh partition with a fresh scratch and
	// checks how it read the column.
	ran := func(what string, p *table.Partition, sc *scratch, evals int64) {
		t.Helper()
		if encoded {
			if sc.encEvals != evals {
				t.Fatalf("%s, %s: %d encoded evaluations, want %d", label, what, sc.encEvals, evals)
			}
			if p.EncCol(0) == nil {
				t.Fatalf("%s, %s: the first touch decoded the column", label, what)
			}
		} else if sc.encEvals != 0 {
			t.Fatalf("%s, %s: a decoded column counted an encoded evaluation", label, what)
		}
	}

	cc := &compiler{schema: s, dict: d}
	kern, err := cc.kernel(cl)
	if err != nil {
		t.Fatal(err)
	}
	other := &Clause{Col: cl.Col, Op: OpEq, Num: cl.Num, Strs: cl.Strs}
	if cl.Op == OpEq {
		other.Op = OpNe
	}
	or, err := cc.kernel(NewOr(cl, other))
	if err != nil {
		t.Fatal(err)
	}
	not, err := cc.kernel(&Not{Child: cl})
	if err != nil {
		t.Fatal(err)
	}

	for name, in := range compactionInputs() {
		want := passing(cl, in)
		p, sc := fresh(), &scratch{}
		same("narrowing "+name, kern(p, slices.Clone(in), sc), want)
		ran("narrowing "+name, p, sc, 1)

		p, sc = fresh(), &scratch{}
		same("NOT over "+name, not(p, slices.Clone(in), sc), passing(&Not{Child: cl}, in))
		ran("NOT over "+name, p, sc, 1)

		p, sc = fresh(), &scratch{}
		same("OR over "+name, or(p, slices.Clone(in), sc), passing(NewOr(cl, other), in))
		ran("OR over "+name, p, sc, 2)
		for mark, m := range sc.markFree[0] {
			if m {
				t.Fatalf("%s, OR over %s: row %d left marked in a pooled mark buffer", label, name, mark)
			}
		}

		// A FILTER aggregate narrows the selection and its group slots
		// together, with and without GROUP BY.
		gidx := make([]int32, len(in))
		for i, r := range in {
			gidx[i] = r * 7 % 5
		}
		var wantRows, wantIdx []int32
		for i, r := range in {
			if slices.Contains(want, r) {
				wantRows, wantIdx = append(wantRows, r), append(wantIdx, gidx[i])
			}
		}
		for _, grouped := range []bool{false, true} {
			g := gidx
			if !grouped {
				g = nil
			}
			p, sc = fresh(), &scratch{}
			rows, idx := filterSelection(kern, p, in, g, sc)
			same(fmt.Sprintf("FILTER over %s, grouped %v: rows", name, grouped), rows, wantRows)
			if grouped {
				same(fmt.Sprintf("FILTER over %s: group slots", name), idx, wantIdx)
			} else if idx != nil {
				t.Fatalf("%s, FILTER over %s: group slots %v without GROUP BY", label, name, idx)
			}
		}
	}
}

// branchyMerges are the functions allowed to compact behind a branch, each
// saying why where it does.
var branchyMerges = map[string]bool{"filterSelection": true}

// conditionalCompactions lists the if statements of a file that compact
// behind a branch — a body or else block that stores at index n and ends in
// n++, `if pass { sel[n] = r; n++ }` — outside branchyMerges.
func conditionalCompactions(fset *token.FileSet, f *ast.File) []string {
	var found []string
	ast.Inspect(f, func(nd ast.Node) bool {
		if fd, ok := nd.(*ast.FuncDecl); ok && fd.Recv == nil && branchyMerges[fd.Name.Name] {
			return false
		}
		is, ok := nd.(*ast.IfStmt)
		if !ok {
			return true
		}
		blocks := []*ast.BlockStmt{is.Body}
		if els, ok := is.Else.(*ast.BlockStmt); ok {
			blocks = append(blocks, els)
		}
		for _, b := range blocks {
			if storesThenAdvances(b.List) {
				found = append(found, fset.Position(is.Pos()).String())
			}
		}
		return true
	})
	return found
}

// storesThenAdvances reports whether stmts end in n++ after an assignment to
// some x[n].
func storesThenAdvances(stmts []ast.Stmt) bool {
	if len(stmts) < 2 {
		return false
	}
	inc, ok := stmts[len(stmts)-1].(*ast.IncDecStmt)
	if !ok || inc.Tok != token.INC {
		return false
	}
	n, ok := inc.X.(*ast.Ident)
	if !ok {
		return false
	}
	for _, st := range stmts[:len(stmts)-1] {
		as, ok := st.(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, lhs := range as.Lhs {
			if ix, ok := lhs.(*ast.IndexExpr); ok {
				if id, ok := ix.Index.(*ast.Ident); ok && id.Name == n.Name {
					return true
				}
			}
		}
	}
	return false
}

// TestNoConditionalCompaction keeps every selection loop of this package
// branch-free. A loop written `if pass { sel[n] = r; n++ }` compiles to a
// conditional jump per row, mispredicted on a large share of rows whenever
// the pass rate is away from 0 and 1; write the candidate unconditionally
// and advance by the outcome instead: `sel[n] = r; n += b2i(pass)`. The test
// parses the package's non-test files and fails on any if statement that
// stores at an index and then increments it.
func TestNoConditionalCompaction(t *testing.T) {
	// The detector itself, on the forms it must and must not flag.
	const sample = `package p
func branchy(col []float64, sel []int32, v float64) (n int) {
	for _, r := range sel {
		if col[r] < v {
			sel[n] = r
			n++
		}
	}
	return
}
func branchyElse(marks []bool, sel []int32) (n int) {
	for _, r := range sel {
		if marks[r] {
			marks[r] = false
		} else {
			sel[n] = r
			n++
		}
	}
	return
}
func branchFree(col []float64, sel []int32, v float64) (n int) {
	for _, r := range sel {
		sel[n] = r
		n += b2i(col[r] < v)
	}
	return
}
func counting(col []float64, v float64) (n int) {
	for _, x := range col {
		if x < v {
			n++
		}
	}
	return
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sample.go", sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := conditionalCompactions(fset, f); len(got) != 2 || !strings.HasPrefix(got[0], "sample.go:4:") || !strings.HasPrefix(got[1], "sample.go:13:") {
		t.Fatalf("the detector flags %v in the sample, want its lines 4 and 13", got)
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, at := range conditionalCompactions(fset, f) {
			t.Errorf("%s: selection compacted behind a branch; write the candidate and advance by b2i(pass)", at)
		}
	}
	if parsed < 5 {
		t.Fatalf("parsed %d non-test files of the package, expected its kernels among them", parsed)
	}
}

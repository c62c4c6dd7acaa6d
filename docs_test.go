package ps3_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// operatorDocs are the files the docs tests read, besides the package doc of
// the ps3 facade (see readDocs).
var operatorDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}

// readDocs returns the text of every operator doc by name, in operatorDocs
// order, followed by the package doc of ps3.go — what `go doc ps3` shows.
func readDocs(t *testing.T) (names, texts []string) {
	t.Helper()
	for _, doc := range operatorDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		names, texts = append(names, doc), append(texts, string(text))
	}
	f, err := parser.ParseFile(token.NewFileSet(), "ps3.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return append(names, "ps3.go package doc"), append(texts, f.Doc.Text())
}

// TestDocsPointAtWhatExists: every `make <target>` the operator-facing docs
// and CI name is a target of the Makefile, and every Markdown, JSON, awk or
// Go file they name exists — so deleting a target or a file cannot leave a
// doc pointing at nothing. A path is looked up from the repo root, then from
// internal/ (DESIGN.md writes `picker/io.go`); a bare file name, which a doc
// section uses for a file of the package it describes, must exist somewhere.
func TestDocsPointAtWhatExists(t *testing.T) {
	makeRef := regexp.MustCompile("(?m)(?:`|^|run:\\s+)make ([a-z][a-z0-9-]*)")
	fileRef := regexp.MustCompile(`[\w./{},*-]+\.(?:md|json|awk|go)\b`)
	braces := regexp.MustCompile(`\{([^{}]*)\}`)

	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	basenames := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		basenames[d.Name()] = true
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string) bool {
		if !strings.Contains(name, "/") {
			return basenames[name]
		}
		for _, root := range []string{"", "internal"} {
			if _, err := os.Stat(filepath.Join(root, name)); err == nil {
				return true
			}
		}
		return false
	}

	names, texts := readDocs(t)
	for i, doc := range names {
		text := texts[i]
		for _, m := range makeRef.FindAllStringSubmatch(text, -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
		for _, ref := range fileRef.FindAllString(text, -1) {
			if strings.Contains(ref, "*") || strings.HasPrefix(ref, "/") {
				continue // a glob or an absolute scratch path, not a file of the repo
			}
			names := []string{ref}
			if m := braces.FindStringSubmatchIndex(ref); m != nil { // a/{b,c}.go
				names = names[:0]
				for _, alt := range strings.Split(ref[m[2]:m[3]], ",") {
					names = append(names, ref[:m[0]]+alt+ref[m[1]:])
				}
			}
			for _, name := range names {
				if !exists(name) {
					t.Errorf("%s names %s, which does not exist", doc, name)
				}
			}
		}
	}
}

// TestDocsNameOnlyDefinedFlags: a doc line that invokes ps3gen, ps3serve,
// ps3train, ps3query or ps3bench names only flags the command defines, so
// deleting a flag cannot leave a doc telling the operator to pass it. A
// flag belongs to the command named last before it in the same shell
// command: a backtick, `|`, `;` or `&&` ends one, and a line ending in `\`
// continues onto the next.
func TestDocsNameOnlyDefinedFlags(t *testing.T) {
	defRe := regexp.MustCompile(`flag\.[A-Z]\w*\(\s*"([^"]+)"`)
	defined := map[string]map[string]bool{}
	for _, cmd := range []string{"ps3gen", "ps3serve", "ps3train", "ps3query", "ps3bench"} {
		src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		defined[cmd] = map[string]bool{"h": true, "help": true} // the flag package's own
		for _, m := range defRe.FindAllSubmatch(src, -1) {
			defined[cmd][string(m[1])] = true
		}
	}
	token := regexp.MustCompile("\\bps3(?:gen|serve|train|query|bench)\\b|(?:^|[\\s(])--?([a-z][a-z0-9-]*)|`|\\||;|&&")

	names, texts := readDocs(t)
	for i, doc := range names {
		lines := strings.Split(strings.ReplaceAll(texts[i], "\\\n", " "), "\n")
		for n, line := range lines {
			cmd := ""
			for _, m := range token.FindAllStringSubmatch(line, -1) {
				switch {
				case strings.HasPrefix(m[0], "ps3"):
					cmd = m[0]
				case m[1] == "":
					cmd = "" // a separator ends the command
				case cmd != "" && !defined[cmd][m[1]]:
					t.Errorf("%s line ~%d: `%s -%s`, which %s does not define", doc, n+1, cmd, m[1], cmd)
				}
			}
		}
	}
}

// TestDocsNameOnlyDefinedTests: every Test…, Benchmark… or Fuzz… name the
// operator docs or the Makefile cite is a prefix of a function some _test.go
// file of the repo defines, bench/ included — so deleting or renaming a test
// cannot leave a doc or a target running nothing. A prefix, not an exact
// name, because -run and -bench patterns match by prefix (TestChaos).
func TestDocsNameOnlyDefinedTests(t *testing.T) {
	nameRe := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	defRe := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range defRe.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("found no test function in the repo")
	}

	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	names, texts := readDocs(t)
	names, texts = append(names, "Makefile"), append(texts, string(mk))
	for i, doc := range names {
		for _, name := range nameRe.FindAllString(texts[i], -1) {
			if !slices.ContainsFunc(defined, func(fn string) bool { return strings.HasPrefix(fn, name) }) {
				t.Errorf("%s names %s, which no test function of the repo starts with", doc, name)
			}
		}
	}
}

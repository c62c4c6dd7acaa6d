package ps3_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsPointAtWhatExists: every `make <target>` the operator-facing docs
// and CI name is a target of the Makefile, and every JSON, awk or Go file
// they name exists — so deleting a target or a file cannot leave a doc
// pointing at nothing. A path is looked up from the repo root, then from
// internal/ (DESIGN.md writes `picker/io.go`); a bare file name, which a doc
// section uses for a file of the package it describes, must exist somewhere.
func TestDocsPointAtWhatExists(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}
	makeRef := regexp.MustCompile("(?m)(?:`|^|run:\\s+)make ([a-z][a-z0-9-]*)")
	fileRef := regexp.MustCompile(`[\w./{},*-]+\.(?:json|awk|go)\b`)
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

	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeRef.FindAllSubmatch(text, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
		for _, ref := range fileRef.FindAllString(string(text), -1) {
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

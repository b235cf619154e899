package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testOnlyPackages names the internal packages that only tests import, each
// with the reason it stays.
var testOnlyPackages = map[string]string{
	"netsim": "fault-injection infrastructure: dist's tests wrap ring links with its faulty conns",
}

// TestEveryInternalPackageHasAnImporter: a package under internal/ that no
// non-test Go file of the module imports is code no program runs. A
// deletion that leaves one behind fails here, and so does an exception in
// testOnlyPackages that a program has since started to import.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	imported := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			imported[p] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		_, testOnly := testOnlyPackages[name]
		switch used := imported["repro/internal/"+name]; {
		case !used && !testOnly:
			t.Errorf("internal/%s has no importer outside tests: fold it into its user or delete it", name)
		case used && testOnly:
			t.Errorf("internal/%s is listed as test-only but a program imports it: drop the exception", name)
		}
	}
	for name := range testOnlyPackages {
		if _, err := os.Stat(filepath.Join("internal", name)); err != nil {
			t.Errorf("test-only exception %q names no package: %v", name, err)
		}
	}
}

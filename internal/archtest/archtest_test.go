// Package archtest enforces the hexagonal layering rules of the
// repository with AST-level checks, so a violating import fails CI
// rather than surviving as an unnoticed architecture leak:
//
//   - pkg/ and plugins/ must not import internal/ — the public
//     contracts and the plugins written against them must stand alone.
//   - internal/ must not import plugins/ — implementations depend on
//     the plugin contract, never on concrete plugin packages. (Test
//     files are exempt: test binaries are composition roots and may
//     register the default plugins.)
//
// The exported surface of pkg/ is additionally pinned by a golden
// snapshot (see apisnapshot_test.go).
package archtest

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

// module is the module path imports are matched against.
const module = "repro"

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// sourceFiles returns the non-test .go files under root/dir, as paths
// relative to root (slash-separated).
func sourceFiles(t *testing.T, root, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func imports(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var out []string
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, p)
	}
	return out
}

// TestPkgAndPluginsDoNotImportInternal is the outward-facing guard:
// the public contracts (pkg/) and the plugins written against them
// must not reach into internal/. pkg/ additionally must not import
// plugins/ — contracts never depend on implementations.
func TestPkgAndPluginsDoNotImportInternal(t *testing.T) {
	root := repoRoot(t)
	for _, dir := range []string{"pkg", "plugins"} {
		for _, rel := range sourceFiles(t, root, dir) {
			for _, imp := range imports(t, filepath.Join(root, rel)) {
				if imp == module+"/internal" || strings.HasPrefix(imp, module+"/internal/") {
					t.Errorf("%s imports %s: %s/ must not import internal/", rel, imp, dir)
				}
				if dir == "pkg" && (imp == module+"/plugins" || strings.HasPrefix(imp, module+"/plugins/")) {
					t.Errorf("%s imports %s: pkg/ must not import plugins/", rel, imp)
				}
			}
		}
	}
}

// TestInternalDoesNotImportPlugins is the inward-facing guard:
// implementations consume plugins only through the pkg/pluginapi
// registry, never by importing a concrete plugin package. Composition
// roots (the root package, cmd/, examples/ and test binaries) are the
// only places that wire plugins in.
func TestInternalDoesNotImportPlugins(t *testing.T) {
	root := repoRoot(t)
	for _, rel := range sourceFiles(t, root, "internal") {
		for _, imp := range imports(t, filepath.Join(root, rel)) {
			if imp == module+"/plugins" || strings.HasPrefix(imp, module+"/plugins/") {
				t.Errorf("%s imports %s: internal/ must not import plugins/", rel, imp)
			}
		}
	}
}

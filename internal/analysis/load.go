package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Tree is a loaded source tree: one Pass per package directory, sharing
// a FileSet and a (cached) importer.
type Tree struct {
	Fset *token.FileSet
	Pkgs []*Pass
	// TypeErrors collects non-fatal type-checker complaints. A building
	// repo produces none; they are surfaced (not fatal) so an importer
	// hiccup degrades rules to syntactic coverage instead of killing the
	// gate with a false positive.
	TypeErrors []error
}

// Load walks root for Go package directories and loads each one. Roots
// may carry a trailing "/..." (the go tool spelling); it is equivalent
// to the bare directory, since Load always walks recursively. Skipped:
// VCS metadata, testdata trees (fixtures are loaded explicitly by
// tests via LoadDir), and materialized build outputs.
func Load(root string) (*Tree, error) {
	root = strings.TrimSuffix(root, "/...")
	if root == "" {
		root = "."
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "lint-benches", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walking %s: %w", root, err)
	}
	sort.Strings(dirs)
	t := &Tree{Fset: token.NewFileSet()}
	imp := newImporter(t.Fset)
	for _, dir := range dirs {
		p, err := t.loadDir(dir, filepath.ToSlash(filepath.Clean(dir)), imp)
		if err != nil {
			return nil, err
		}
		if p != nil {
			t.Pkgs = append(t.Pkgs, p)
		}
	}
	return t, nil
}

// LoadDir loads a single package directory (used by the fixture tests).
// The Pass path is the directory as given, slash-normalized, so fixture
// scoping on "testdata/src/<rule>" works from any root.
func LoadDir(dir string) (*Tree, error) {
	t := &Tree{Fset: token.NewFileSet()}
	p, err := t.loadDir(dir, filepath.ToSlash(filepath.Clean(dir)), newImporter(t.Fset))
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	t.Pkgs = append(t.Pkgs, p)
	return t, nil
}

// loadDir parses and type-checks one package directory. Type errors are
// collected, not fatal: rules degrade to syntactic coverage.
func (t *Tree) loadDir(dir, rel string, imp types.Importer) (*Pass, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, perr := parser.ParseFile(t.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, fmt.Errorf("analysis: %w", perr)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { t.TypeErrors = append(t.TypeErrors, err) },
	}
	path := rel
	if path == "" {
		path = "."
	}
	// Check errors are already collected via conf.Error; the returned
	// error only repeats the first one.
	conf.Check(path, t.Fset, files, info) //nolint:errcheck
	return &Pass{Fset: t.Fset, Path: rel, Files: files, Info: info}, nil
}

// newImporter returns the stdlib source importer: it type-checks
// imports (standard library and module-internal alike) from source, so
// the driver needs neither export data nor third-party loaders. Results
// are cached per importer, which Load shares across the whole tree.
func newImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}

package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Loader parses and type-checks packages for analysis. All packages loaded
// through one Loader share a FileSet and a source importer, so the standard
// library is type-checked at most once per Loader.
//
// Type information comes from the stdlib "source" importer (go/types over
// source files), which works fully offline — the module has no dependencies
// beyond the standard library, so no export data or module proxy is needed.
type Loader struct {
	fset *token.FileSet
	mu   sync.Mutex
	imp  types.Importer
}

// NewLoader returns a fresh loader.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

var defaultLoader = sync.OnceValue(NewLoader)

// DefaultLoader returns a process-wide shared loader, so multiple tests in
// one binary amortize standard-library type-checking.
func DefaultLoader() *Loader { return defaultLoader() }

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load resolves the go-list patterns relative to dir and returns one
// type-checked Package per matched Go package, sorted by import path. Test
// files are excluded (GoFiles only): the analyzers enforce production-code
// invariants, and testdata fixtures deliberately violate them.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %w", err)
		}
		listed = append(listed, p)
	}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Error != nil {
			// go list -e reports per-package resolution failures inline.
			// Surface them as a loaded-but-broken package so the driver can
			// diagnose every pattern instead of aborting on the first.
			pkgs = append(pkgs, &Package{
				Path:    lp.ImportPath,
				LoadErr: strings.TrimSpace(lp.Error.Err),
			})
			continue
		}
		if lp.Name == "" || len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := l.check(lp.ImportPath, files, nil)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadTree loads dir as the package `path` plus every subdirectory of dir
// containing Go files as `path/<rel>`. The packages are type-checked in
// dependency order with imports among them resolved to the freshly checked
// packages, so multi-package testdata fixtures can exercise cross-package
// behavior (a root fixture importing its own helper package). Returns the
// packages sorted by import path.
func (l *Loader) LoadTree(dir, path string) ([]*Package, error) {
	type node struct {
		path  string
		files []string
		deps  []string // local import paths only
	}
	var nodes []*node
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		files, err := goFilesIn(p)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		ipath := path
		if rel != "." {
			ipath = path + "/" + filepath.ToSlash(rel)
		}
		nodes = append(nodes, &node{path: ipath, files: files})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("analysis: no Go files under %s", dir)
	}
	local := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		local[n.path] = true
	}
	// Discover which local packages each node imports, with a throwaway
	// FileSet: these parses exist only to read import clauses, and the real
	// positions come from the type-checking parse below.
	impFset := token.NewFileSet()
	for _, n := range nodes {
		for _, fn := range n.files {
			f, err := parser.ParseFile(impFset, fn, nil, parser.ImportsOnly)
			if err != nil {
				return nil, fmt.Errorf("analysis: parse %s: %w", fn, err)
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err == nil && local[p] && p != n.path {
					n.deps = append(n.deps, p)
				}
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].path < nodes[j].path })
	// Check in dependency order. The pass structure keeps iteration
	// deterministic (sorted slice, not map order); no progress means an
	// import cycle among the fixtures.
	checked := make(map[string]*types.Package, len(nodes))
	pkgs := make([]*Package, 0, len(nodes))
	remaining := nodes
	for len(remaining) > 0 {
		var next []*node
		progressed := false
		for _, n := range remaining {
			ready := true
			for _, dep := range n.deps {
				if checked[dep] == nil {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, n)
				continue
			}
			pkg, err := l.check(n.path, n.files, checked)
			if err != nil {
				return nil, err
			}
			checked[n.path] = pkg.Types
			pkgs = append(pkgs, pkg)
			progressed = true
		}
		if !progressed {
			var stuck []string
			for _, n := range next {
				stuck = append(stuck, n.path)
			}
			return nil, fmt.Errorf("analysis: import cycle among testdata packages: %s", strings.Join(stuck, ", "))
		}
		remaining = next
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// goFilesIn returns the sorted non-test .go files directly in dir.
func goFilesIn(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []string
	for _, m := range matches {
		if strings.HasSuffix(m, "_test.go") {
			continue
		}
		files = append(files, m)
	}
	sort.Strings(files)
	return files, nil
}

// overlayImporter resolves a fixed set of already-checked local packages
// before falling back to the loader's source importer. LoadTree uses it so
// testdata packages can import their sibling fixtures by the synthetic
// import paths they were checked under.
type overlayImporter struct {
	base  types.Importer
	local map[string]*types.Package
}

func (o *overlayImporter) Import(path string) (*types.Package, error) {
	if pkg := o.local[path]; pkg != nil {
		return pkg, nil
	}
	return o.base.Import(path)
}

// check parses the files and type-checks them as one package. Type errors
// are collected, not fatal: analyzers run on the partial information (the
// repository's own tree always type-checks; the tolerance is for testdata).
// A non-nil local map overlays already-checked packages over the source
// importer.
func (l *Loader) check(path string, filenames []string, local map[string]*types.Package) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var astFiles []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", fn, err)
		}
		astFiles = append(astFiles, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	imp := l.imp
	if len(local) > 0 {
		imp = &overlayImporter{base: l.imp, local: local}
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, astFiles, info) // errors already collected
	return &Package{
		Path: path, Fset: l.fset, Files: astFiles,
		Types: tpkg, Info: info, TypeErrors: typeErrs,
	}, nil
}

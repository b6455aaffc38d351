// Package dgclvet assembles the dgclvet analyzer suite and implements the
// multichecker driver logic behind cmd/dgclvet.
//
// The suite enforces the invariants the repository's dynamic tiers (golden
// plans, the W1B1 equivalence battery, the chaos suite) can only sample:
// deterministic plan/serialization order, fixed float reduction order,
// context-bounded blocking, leak-free goroutine launches, and the per-GPU
// error wrapping discipline. See DESIGN.md §9.
package dgclvet

import (
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"dgcl/internal/analysis"
	"dgcl/internal/analysis/boundcheck"
	"dgcl/internal/analysis/ctxbound"
	"dgcl/internal/analysis/errtaxon"
	"dgcl/internal/analysis/errwrap"
	"dgcl/internal/analysis/floatorder"
	"dgcl/internal/analysis/goleaklite"
	"dgcl/internal/analysis/lockdisc"
	"dgcl/internal/analysis/mapdet"
	"dgcl/internal/analysis/poolown"
)

// Analyzers is the full suite, in report order.
var Analyzers = []*analysis.Analyzer{
	boundcheck.Analyzer,
	ctxbound.Analyzer,
	errtaxon.Analyzer,
	errwrap.Analyzer,
	floatorder.Analyzer,
	goleaklite.Analyzer,
	lockdisc.Analyzer,
	mapdet.Analyzer,
	poolown.Analyzer,
}

// Exit codes of Main, mirroring the x/tools multichecker convention.
const (
	ExitClean     = 0 // no findings
	ExitFindings  = 1 // at least one diagnostic
	ExitLoadError = 2 // packages failed to load or type-check
)

// Select returns the analyzers whose names appear in the comma-separated
// list, or the full suite when the list is empty. Unknown names are an
// error.
func Select(only string) ([]*analysis.Analyzer, error) {
	if strings.TrimSpace(only) == "" {
		return Analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(Analyzers))
	for _, a := range Analyzers {
		byName[a.Name] = a
	}
	var picked []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(Names(), ", "))
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// Names returns the sorted analyzer names.
func Names() []string {
	names := make([]string, len(Analyzers))
	for i, a := range Analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}

// Main loads the packages matched by patterns (relative to dir), runs each
// selected analyzer over the packages it applies to, prints findings to w as
// "file:line:col: analyzer: message" (file relative to dir when inside it),
// and returns the exit code.
func Main(dir string, patterns []string, analyzers []*analysis.Analyzer, w io.Writer) int {
	pkgs, err := analysis.DefaultLoader().Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(w, "dgclvet: %v\n", err)
		return ExitLoadError
	}
	exit := ExitClean
	absDir, absErr := filepath.Abs(dir)
	for _, pkg := range pkgs {
		if pkg.LoadErr != "" {
			fmt.Fprintf(w, "dgclvet: %s: %s\n", pkg.Path, pkg.LoadErr)
			exit = ExitLoadError
			continue
		}
		if len(pkg.TypeErrors) > 0 {
			for _, te := range pkg.TypeErrors {
				fmt.Fprintf(w, "dgclvet: %s: %v\n", pkg.Path, te)
			}
			exit = ExitLoadError
			continue
		}
		applicable := make([]*analysis.Analyzer, 0, len(analyzers))
		for _, a := range analyzers {
			if a.AppliesTo == nil || a.AppliesTo(pkg.Path) {
				applicable = append(applicable, a)
			}
		}
		if len(applicable) == 0 {
			continue
		}
		diags, err := pkg.Run(applicable)
		if err != nil {
			fmt.Fprintf(w, "dgclvet: %v\n", err)
			return ExitLoadError
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			file := pos.Filename
			if absErr == nil {
				if rel, err := filepath.Rel(absDir, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = filepath.ToSlash(rel)
				}
			}
			fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", file, pos.Line, pos.Column, d.Analyzer, d.Message)
			if exit == ExitClean {
				exit = ExitFindings
			}
		}
	}
	return exit
}

// An Ignore is one //dgclvet:ignore directive found in the tree.
type Ignore struct {
	File          string
	Line          int
	Analyzers     []string
	Justification string
}

// Ignores walks every .go file under dir (testdata and .git excluded,
// _test.go files included — directives rot there too), prints each
// //dgclvet:ignore directive with its justification, and audits them: a
// directive naming an analyzer not in the suite, or carrying no
// justification, is a finding. This keeps suppressions honest — an ignore
// for a renamed or deleted analyzer is dead weight that hides the next real
// finding on that line.
func Ignores(dir string, analyzers []*analysis.Analyzer, w io.Writer) int {
	known := make(map[string]bool, len(analyzers)+1)
	known["all"] = true
	for _, a := range analyzers {
		known[a.Name] = true
	}
	ignores, err := collectIgnores(dir)
	if err != nil {
		fmt.Fprintf(w, "dgclvet: %v\n", err)
		return ExitLoadError
	}
	exit := ExitClean
	for _, ig := range ignores {
		fmt.Fprintf(w, "%s:%d: ignore %s: %s\n",
			ig.File, ig.Line, strings.Join(ig.Analyzers, ","), ig.Justification)
		for _, name := range ig.Analyzers {
			if !known[name] {
				fmt.Fprintf(w, "%s:%d: stale suppression: no analyzer named %q in the suite\n",
					ig.File, ig.Line, name)
				exit = ExitFindings
			}
		}
		if ig.Justification == "" {
			fmt.Fprintf(w, "%s:%d: suppression without justification\n", ig.File, ig.Line)
			exit = ExitFindings
		}
	}
	fmt.Fprintf(w, "%d ignore directives\n", len(ignores))
	return exit
}

// collectIgnores parses every .go file under dir — directly, not via the
// loader — so it also covers _test.go files and packages excluded from the
// current build. Parsing (rather than a textual grep) is what keeps prose
// mentions of the directive in doc comments and string literals out of the
// report: only a comment whose own text starts with the directive counts,
// exactly the condition Package.Run suppresses on.
func collectIgnores(dir string) ([]Ignore, error) {
	var out []Ignore
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			rel = path
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, analysis.IgnoreDirective) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, analysis.IgnoreDirective))
				ig := Ignore{
					File: filepath.ToSlash(rel), Line: fset.Position(c.Pos()).Line,
					Analyzers: []string{"all"},
				}
				if fields := strings.Fields(rest); len(fields) > 0 {
					ig.Analyzers = strings.Split(fields[0], ",")
					ig.Justification = strings.TrimSpace(strings.TrimPrefix(rest, fields[0]))
				}
				out = append(out, ig)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out, nil
}

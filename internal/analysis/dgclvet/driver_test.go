package dgclvet

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The ignores audit lists every directive in the real tree and passes: each
// names a live analyzer and carries a justification.
func TestIgnoresAuditOnTree(t *testing.T) {
	var out bytes.Buffer
	code := Ignores(moduleRoot(t), Analyzers, &out)
	if code != ExitClean {
		t.Fatalf("ignores audit failed (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ignore directives") {
		t.Fatalf("audit printed no summary:\n%s", out.String())
	}
}

// Stale analyzer names and missing justifications must fail the audit.
func TestIgnoresAuditRejectsStaleAndBare(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func f() {
	_ = 1 //dgclvet:ignore nosuchanalyzer historical reasons
	_ = 2 //dgclvet:ignore mapdet
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := Ignores(dir, Analyzers, &out); code != ExitFindings {
		t.Fatalf("audit of stale/bare ignores = %d, want %d:\n%s", code, ExitFindings, out.String())
	}
	if !strings.Contains(out.String(), "stale suppression") {
		t.Errorf("stale analyzer name not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "without justification") {
		t.Errorf("missing justification not reported:\n%s", out.String())
	}
}

// The ignores audit must not descend into testdata — fixtures use directives
// in ways the audit would reject.
func TestIgnoresSkipsTestdata(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "testdata")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	bad := "package p\n\nvar x = 1 //dgclvet:ignore bogus\n"
	if err := os.WriteFile(filepath.Join(sub, "p.go"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := Ignores(dir, Analyzers, &out); code != ExitClean {
		t.Fatalf("audit descended into testdata (exit %d):\n%s", code, out.String())
	}
}

// A broken package pattern must surface as a per-package load diagnostic —
// naming the pattern — while other packages in the same run still analyze.
func TestLoadErrorIsPerPackage(t *testing.T) {
	var out bytes.Buffer
	code := Main(".", []string{"./testdata/src/bad", "./no/such/dir"}, Analyzers, &out)
	if code != ExitLoadError {
		t.Fatalf("Main with one bad pattern = %d, want %d:\n%s", code, ExitLoadError, out.String())
	}
	if !strings.Contains(out.String(), "no/such/dir") {
		t.Fatalf("load error does not name the bad pattern:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "mapdet") {
		t.Fatalf("good package was not analyzed alongside the bad pattern:\n%s", out.String())
	}
}

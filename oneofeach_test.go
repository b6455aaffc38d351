package dgcl

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestOneOfEach keeps the module at one checksum, one clock and one
// benchmark (DESIGN.md §18): outside cmd/dgclperf, which is frozen between
// benchmark PRs, no Go file may hand-roll FNV-64a (its prime appears only in
// internal/fnv64), none may declare its own clock interface (only
// internal/clock), and no recorded-numbers file may sit at the root.
func TestOneOfEach(t *testing.T) {
	prime := "10995" + "11628211" // split so this file does not trip itself
	clockIface := regexp.MustCompile(`interface\s*\{[^}]*\bNow\(\)\s+time\.Time`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasPrefix(path, filepath.Join("cmd", "dgclperf")) {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(src), prime) && filepath.Dir(path) != filepath.Join("internal", "fnv64") {
			t.Errorf("%s spells the FNV-64a prime; use internal/fnv64", path)
		}
		if clockIface.Match(src) && filepath.Dir(path) != filepath.Join("internal", "clock") {
			t.Errorf("%s declares an interface with Now() time.Time; use internal/clock", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stale, _ := filepath.Glob("BENCH_*.json"); len(stale) > 0 {
		t.Errorf("%v at the root: cmd/dgclperf is the one benchmark and stores no numbers", stale)
	}
}

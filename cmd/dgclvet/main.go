// Command dgclvet is the multichecker driver for the dgclvet analyzer suite
// (internal/analysis): project-specific static checks that enforce the
// planner's determinism and the runtime's concurrency/error invariants.
//
// Usage:
//
//	dgclvet [-only name1,name2] [-list] [-ignores] [packages]
//
// Packages default to ./... relative to the current directory. Exit status
// is 0 when clean, 1 when any analyzer reported a finding, 2 when packages
// failed to load or type-check. Findings are suppressed per line with
// //dgclvet:ignore <analyzers> <justification>.
//
// -ignores skips analysis and instead audits every //dgclvet:ignore
// directive in the tree, failing on stale analyzer names or missing
// justifications.
package main

import (
	"flag"
	"fmt"
	"os"

	"dgcl/internal/analysis/dgclvet"
)

func main() {
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	ignores := flag.Bool("ignores", false, "audit //dgclvet:ignore directives instead of running analysis")
	flag.Parse()

	if *list {
		for _, name := range dgclvet.Names() {
			fmt.Println(name)
		}
		return
	}
	if *ignores {
		os.Exit(dgclvet.Ignores(".", dgclvet.Analyzers, os.Stdout))
	}
	analyzers, err := dgclvet.Select(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgclvet: %v\n", err)
		os.Exit(dgclvet.ExitLoadError)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(dgclvet.Main(".", patterns, analyzers, os.Stdout))
}

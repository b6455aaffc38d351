// Package goleaklite implements the dgclvet analyzer that catches goroutine
// launches which can block forever.
//
// The chaos tier (PR 1) asserts the runtime is leak-free dynamically — for
// the fault schedules it happens to inject. This analyzer encodes the local
// discipline that makes those tests pass by construction:
//
//   - G1: a `go func() { ... }()` whose body performs a bare channel send
//     or receive (not the communication of a select with an escape) can
//     block forever once its peer errors out — the goroutine, its stack and
//     everything it captures leak. Channel ops inside goroutines must sit
//     in a select with a ctx.Done()/default escape, or behind a function
//     that takes a context.
//
// (A sync.WaitGroup passed by value into a goroutine is go vet's copylocks
// check, which runs beside dgclvet in make lint.)
//
// Nested `go` statements are analyzed independently (each launch is its own
// finding site).
package goleaklite

import (
	"go/ast"

	"dgcl/internal/analysis"
)

// Analyzer is the goleaklite analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "goleaklite",
	Doc: "flags goroutine launches that can block forever: bare channel ops " +
		"without a cancellation escape",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGo(pass, g)
			return true
		})
	}
	return nil
}

func checkGo(pass *analysis.Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	// G1: bare blocking channel ops anywhere in the literal's body, skipping
	// nested go statements (they are visited as their own launch sites).
	analysis.InspectStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			if !analysis.InCancellableSelect(stack, x) {
				pass.Reportf(x.Pos(),
					"goroutine performs a channel send with no cancellation escape and can "+
						"leak forever; select on the send and ctx.Done() (or a done channel)")
			}
		case *ast.UnaryExpr:
			if analysis.IsChanReceive(pass, x) && !analysis.InCancellableSelect(stack, x) {
				pass.Reportf(x.Pos(),
					"goroutine performs a channel receive with no cancellation escape and "+
						"can leak forever; select on the receive and ctx.Done() (or a done channel)")
			}
		}
		return true
	})
}

// Package mapdet implements the dgclvet analyzer that catches
// nondeterministic map iteration feeding order-sensitive state.
//
// Go randomizes map iteration order per run. Most map ranges in this
// codebase are harmless (counting, set membership, keyed writes), but the
// moment iteration order leaks into a plan, a serialized output, a cache
// key, a hash, or a floating-point accumulator, runs stop being
// bit-identical — exactly the bug class the W1B1 bit-identity battery and
// the golden-plan tests exist to catch after the fact. DistDGL and DistGNN
// both report nondeterministic iteration order as the dominant source of
// silent cross-run divergence in distributed GNN stacks; this analyzer
// fails the build the moment a new code path introduces it.
//
// Flagged effects inside a `range m` body (m a map):
//
//   - append to a slice declared outside the loop, without a subsequent
//     sort of that slice in the same function (collect-then-sort is the
//     sanctioned pattern and is not flagged);
//   - string concatenation into a variable declared outside the loop;
//   - float32/float64 accumulation into a variable declared outside the
//     loop (float addition is not associative, so order changes the sum);
//   - calls to order-sensitive sinks (Write/WriteString/WriteByte/
//     WriteRune/Encode methods on receivers declared outside the loop, and
//     fmt.Fprint* calls) — bytes emitted per iteration encode the order;
//   - assignment of the range key to a variable declared outside the loop
//     under an `if` whose condition orders (<, <=, >, >=): an argmin/argmax
//     over map keys, where on a tie the iteration order picks the winner.
//
// Integer/bool accumulation is exempt: integer addition, max, and set
// inserts are order-insensitive.
package mapdet

import (
	"go/ast"
	"go/token"
	"go/types"

	"dgcl/internal/analysis"
)

// Analyzer is the mapdet analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "mapdet",
	Doc: "flags range-over-map bodies whose iteration order leaks into plans, " +
		"serialized output, cache keys or float accumulators without an intervening sort",
	Run: run,
}

// orderSinkMethods are method names whose calls emit bytes in call order.
var orderSinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

// sortFuncs are the sort/slices functions that launder an append-collected
// slice back into a deterministic order.
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true, "Slice": true,
	"SliceStable": true, "Sort": true, "SortFunc": true, "SortStableFunc": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		analysis.InspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, rng, analysis.EnclosingFuncBody(stack))
			return true
		})
	}
	return nil
}

func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, rng, fnBody, s)
		case *ast.CallExpr:
			checkSinkCall(pass, rng, s)
		case *ast.IfStmt:
			if ordering(s.Cond) {
				checkKeyPick(pass, rng, s.Body)
			}
		}
		return true
	})
}

// ordering reports whether cond is, or joins with && / ||, a <, <=, > or >=
// comparison.
func ordering(cond ast.Expr) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return ordering(e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			return true
		case token.LAND, token.LOR:
			return ordering(e.X) || ordering(e.Y)
		}
	}
	return false
}

// checkKeyPick flags, inside the body of an ordering if, an assignment of
// rng's key to a variable declared outside the loop.
func checkKeyPick(pass *analysis.Pass, rng *ast.RangeStmt, body *ast.BlockStmt) {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return
	}
	keyObj := pass.ObjectOf(key)
	ast.Inspect(body, func(n ast.Node) bool {
		s, ok := n.(*ast.AssignStmt)
		if !ok || s.Tok != token.ASSIGN || len(s.Lhs) != len(s.Rhs) {
			return true
		}
		for i, rhs := range s.Rhs {
			r, ok := rhs.(*ast.Ident)
			if !ok || pass.ObjectOf(r) != keyObj {
				continue
			}
			if l, ok := s.Lhs[i].(*ast.Ident); ok && analysis.DeclaredOutside(pass, l, rng.Pos(), rng.End()) {
				pass.Reportf(s.Pos(),
					"range key %q picked into %q under an ordering comparison inside range "+
						"over map: on a tie the randomized iteration order picks the winner; "+
						"iterate sorted keys", key.Name, l.Name)
			}
		}
		return true
	})
}

func checkAssign(pass *analysis.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt, s *ast.AssignStmt) {
	// x = append(x, ...) into an outer slice.
	if s.Tok == token.ASSIGN && len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
			if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
				if id, ok := s.Lhs[0].(*ast.Ident); ok &&
					analysis.DeclaredOutside(pass, id, rng.Pos(), rng.End()) &&
					!sortedAfter(pass, fnBody, rng, id) {
					pass.Reportf(s.Pos(),
						"append to %q inside range over map: element order follows the "+
							"randomized map iteration; sort %q afterwards or iterate sorted keys",
						id.Name, id.Name)
				}
				return
			}
		}
	}
	// Compound accumulation: s += v / s = s + v on outer string or float.
	var lhs ast.Expr
	switch {
	case (s.Tok == token.ADD_ASSIGN || s.Tok == token.SUB_ASSIGN) && len(s.Lhs) == 1:
		lhs = s.Lhs[0]
	case s.Tok == token.ASSIGN && len(s.Lhs) == 1 && len(s.Rhs) == 1:
		if bin, ok := s.Rhs[0].(*ast.BinaryExpr); ok &&
			(bin.Op == token.ADD || bin.Op == token.SUB) && mentions(bin, s.Lhs[0]) {
			lhs = s.Lhs[0]
		}
	}
	if lhs == nil {
		return
	}
	id, ok := lhs.(*ast.Ident) // indexed/field writes are keyed, not ordered
	if !ok || !analysis.DeclaredOutside(pass, id, rng.Pos(), rng.End()) {
		return
	}
	t := pass.TypeOf(id)
	switch {
	case analysis.IsString(t):
		pass.Reportf(s.Pos(),
			"string concatenation into %q inside range over map: output order follows "+
				"the randomized map iteration; iterate sorted keys", id.Name)
	case analysis.IsFloat(t):
		pass.Reportf(s.Pos(),
			"float accumulation into %q inside range over map: float addition is not "+
				"associative, so the sum depends on the randomized iteration order; "+
				"iterate sorted keys", id.Name)
	}
}

func checkSinkCall(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	if pkg, name := analysis.PkgFuncName(pass, call); pkg == "fmt" &&
		(name == "Fprintf" || name == "Fprint" || name == "Fprintln") {
		pass.Reportf(call.Pos(),
			"fmt.%s inside range over map writes in randomized iteration order; "+
				"iterate sorted keys", name)
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !orderSinkMethods[sel.Sel.Name] {
		return
	}
	// Method (not package-qualified) call on a receiver that outlives the loop.
	if _, isPkg := pass.ObjectOf(firstIdent(sel.X)).(*types.PkgName); isPkg {
		return
	}
	recv := analysis.RootIdent(sel.X)
	if recv == nil || !analysis.DeclaredOutside(pass, recv, rng.Pos(), rng.End()) {
		return
	}
	pass.Reportf(call.Pos(),
		"%s.%s inside range over map emits bytes in randomized iteration order "+
			"(serialized output / hash input); iterate sorted keys",
		recv.Name, sel.Sel.Name)
}

// sortedAfter reports whether fnBody contains, after the range statement, a
// sort.* or slices.Sort* call taking the collected slice.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, slice *ast.Ident) bool {
	if fnBody == nil {
		return false
	}
	target := pass.ObjectOf(slice)
	if target == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		pkg, name := analysis.PkgFuncName(pass, call)
		if (pkg != "sort" && pkg != "slices") || !sortFuncs[name] {
			return true
		}
		for _, arg := range call.Args {
			if root := analysis.RootIdent(arg); root != nil && pass.ObjectOf(root) == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentions reports whether expr contains an identifier denoting the same
// object as ref (an *ast.Ident).
func mentions(expr ast.Expr, ref ast.Expr) bool {
	refID, ok := ref.(*ast.Ident)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == refID.Name {
			found = true
		}
		return !found
	})
	return found
}

func firstIdent(e ast.Expr) *ast.Ident {
	if id := analysis.RootIdent(e); id != nil {
		return id
	}
	return &ast.Ident{Name: ""}
}

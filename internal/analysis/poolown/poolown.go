// Package poolown implements the dgclvet analyzer that enforces the
// ownership discipline of the size-classed buffer pools (runtime.bufPool /
// MatrixPool, wire.bytePool).
//
// Pooled memory is dirty by contract and recycled across collectives: a
// buffer read after it was returned to the pool races with the next
// exchange that reuses it, and a buffer stored into a long-lived struct
// outlives the exchange that owns it. Both bugs pass every unit test that
// doesn't happen to reuse the same size class, which is exactly why they
// are enforced statically. The rules, per function:
//
//   - P1: a handle obtained from a pool Get must not be used after a
//     Put/Release/recycle on the same path returned it to the pool. A
//     release inside a branch that falls through poisons the handle for
//     the code after the branch (a conditionally-released buffer is
//     already a bug); a release inside a branch that returns or continues
//     does not. `defer pool.put(x)` releases at function exit and never
//     poisons the body.
//   - P2: a handle must not be released twice on one path.
//   - P3: a live handle must not be assigned into a field of the method
//     receiver or a package-level variable — those outlive the exchange.
//     Handing the handle to a channel, a message struct, or a return value
//     is ownership transfer and stays legal.
//
// The walk is source-order and branch-aware but not a real CFG: a release
// in one select case poisons the code after the select even though another
// case may have kept the handle (flagged as a conditional release — still
// a bug worth a look).
//
// Function literals are flow-checked as independent functions with a fresh
// state: a closure that runs on its own goroutine (a sender loop, say) owns
// the buffers it acquires, so its acquire/release discipline is checked
// like any function body, while a captured outer
// handle crossing into the closure is ownership transfer (like a channel
// send) and stays legal.
package poolown

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dgcl/internal/analysis"
)

// Analyzer is the poolown analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "poolown",
	Doc: "flags pooled buffers used after being returned to their pool, " +
		"released twice, or stored into structs that outlive the exchange",
	AppliesTo: func(pkgPath string) bool {
		switch pkgPath {
		case "dgcl/internal/runtime", "dgcl/internal/comm/wire":
			return true
		}
		return false
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// handle is the per-path state of one tracked pool buffer.
type handle struct {
	released   bool
	releasePos token.Pos
}

type state map[types.Object]*handle

func (st state) clone() state {
	c := make(state, len(st))
	for k, v := range st {
		h := *v
		c[k] = &h
	}
	return c
}

type checker struct {
	pass *analysis.Pass
	recv types.Object // method receiver, for the escape rule
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	c := &checker{pass: pass}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		c.recv = pass.ObjectOf(fd.Recv.List[0].Names[0])
	}
	c.walkStmts(fd.Body.List, state{})
	// Closure bodies execute on their own goroutine or call path, outside
	// the enclosing flow (the enclosing walk treats the literal as one
	// opaque use). Flow-check each with a fresh state: handles acquired
	// inside are tracked, captured outer handles are ownership transfers.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			c.walkStmts(fl.Body.List, state{})
		}
		return true
	})
}

func (c *checker) walkStmts(stmts []ast.Stmt, st state) {
	for _, s := range stmts {
		c.walkStmt(s, st)
	}
}

func (c *checker) walkStmt(s ast.Stmt, st state) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		c.assign(x, st)
	case *ast.ExprStmt:
		if released := c.applyRelease(x.X, st); !released {
			c.checkUses(x.X, st)
		}
	case *ast.DeferStmt:
		// A deferred release runs at function exit: the handle stays live
		// for the whole body. Everything else in the deferred call is a
		// normal use.
		if !c.isReleaseCall(x.Call) {
			c.checkUses(x.Call, st)
		}
	case *ast.BlockStmt:
		c.walkStmts(x.List, st)
	case *ast.IfStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		c.checkUses(x.Cond, st)
		thenSt := st.clone()
		c.walkStmts(x.Body.List, thenSt)
		elseSt := st.clone()
		if x.Else != nil {
			c.walkStmt(x.Else, elseSt)
		}
		c.merge(st, branchOutcome{thenSt, terminates(x.Body)}, branchOutcome{elseSt, x.Else != nil && stmtTerminates(x.Else)})
	case *ast.ForStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		if x.Cond != nil {
			c.checkUses(x.Cond, st)
		}
		bodySt := st.clone()
		c.walkStmts(x.Body.List, bodySt)
		if x.Post != nil {
			c.walkStmt(x.Post, bodySt)
		}
		c.merge(st, branchOutcome{bodySt, false})
	case *ast.RangeStmt:
		c.checkUses(x.X, st)
		bodySt := st.clone()
		c.walkStmts(x.Body.List, bodySt)
		c.merge(st, branchOutcome{bodySt, false})
	case *ast.SwitchStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		if x.Tag != nil {
			c.checkUses(x.Tag, st)
		}
		c.walkCases(x.Body, st)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		c.checkUses(x.Assign, st)
		c.walkCases(x.Body, st)
	case *ast.SelectStmt:
		c.walkCases(x.Body, st)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			c.checkUses(r, st)
		}
	case *ast.GoStmt:
		c.checkUses(x.Call, st)
	case *ast.SendStmt:
		c.checkUses(x.Chan, st)
		c.checkUses(x.Value, st)
	case *ast.LabeledStmt:
		c.walkStmt(x.Stmt, st)
	default:
		if s != nil {
			c.checkUses(s, st)
		}
	}
}

type branchOutcome struct {
	st         state
	terminates bool
}

// merge folds branch outcomes back into st: a handle released in any branch
// that can fall through is released after the join.
func (c *checker) merge(st state, branches ...branchOutcome) {
	for obj, h := range st {
		for _, b := range branches {
			if b.terminates {
				continue
			}
			if bh, ok := b.st[obj]; ok && bh.released && !h.released {
				h.released = true
				h.releasePos = bh.releasePos
			}
		}
	}
}

// walkCases runs each case clause on a cloned state and merges.
func (c *checker) walkCases(body *ast.BlockStmt, st state) {
	var outcomes []branchOutcome
	for _, cl := range body.List {
		caseSt := st.clone()
		switch cc := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				c.checkUses(e, caseSt)
			}
			c.walkStmts(cc.Body, caseSt)
			outcomes = append(outcomes, branchOutcome{caseSt, listTerminates(cc.Body)})
		case *ast.CommClause:
			if cc.Comm != nil {
				c.walkStmt(cc.Comm, caseSt)
			}
			c.walkStmts(cc.Body, caseSt)
			outcomes = append(outcomes, branchOutcome{caseSt, listTerminates(cc.Body)})
		}
	}
	c.merge(st, outcomes...)
}

// assign handles acquires, reassignment, escapes, and ordinary uses.
func (c *checker) assign(a *ast.AssignStmt, st state) {
	for _, r := range a.Rhs {
		if released := c.applyRelease(r, st); !released {
			c.checkUses(r, st)
		}
	}
	single := len(a.Lhs) == 1 && len(a.Rhs) == 1
	for i, l := range a.Lhs {
		switch lhs := ast.Unparen(l).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := c.pass.ObjectOf(lhs)
			if obj == nil {
				continue
			}
			if single && c.isPoolGet(a.Rhs[0]) {
				st[obj] = &handle{}
				continue
			}
			// Reassignment: whatever the variable now holds, it is not the
			// tracked handle anymore.
			delete(st, obj)
			_ = i
		case *ast.SelectorExpr:
			// Uses on the written-to path (s.f = x reads s).
			c.checkUses(lhs.X, st)
			c.checkEscape(lhs, a.Rhs, i, st)
		default:
			c.checkUses(l, st)
		}
	}
}

// checkEscape flags a live handle stored into receiver state or a
// package-level variable.
func (c *checker) checkEscape(lhs *ast.SelectorExpr, rhs []ast.Expr, i int, st state) {
	if i >= len(rhs) {
		return
	}
	id, ok := ast.Unparen(rhs[i]).(*ast.Ident)
	if !ok {
		return
	}
	obj := c.pass.ObjectOf(id)
	h, tracked := st[obj]
	if !tracked || h.released {
		return
	}
	root := analysis.RootIdent(lhs.X)
	if root == nil {
		return
	}
	rootObj := c.pass.ObjectOf(root)
	if rootObj == nil {
		return
	}
	longLived := rootObj == c.recv ||
		(rootObj.Parent() != nil && rootObj.Parent() == c.pass.Pkg.Scope())
	if longLived {
		c.pass.Reportf(id.Pos(),
			"pooled buffer %q escapes into a long-lived struct; the pool will hand "+
				"its memory to the next exchange — copy the data or transfer ownership",
			id.Name)
	}
}

// applyRelease recognizes a release call and updates st, reporting double
// releases. Returns true when e was a release call.
func (c *checker) applyRelease(e ast.Expr, st state) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !c.isReleaseCall(call) {
		return false
	}
	for _, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		obj := c.pass.ObjectOf(id)
		h, tracked := st[obj]
		if !tracked {
			continue
		}
		if h.released {
			c.pass.Reportf(id.Pos(),
				"pooled buffer %q released twice (first at %s)",
				id.Name, c.pass.Fset.Position(h.releasePos))
			continue
		}
		h.released = true
		h.releasePos = id.Pos()
	}
	return true
}

// checkUses reports any mention of a released handle under n.
func (c *checker) checkUses(n ast.Node, st state) {
	ast.Inspect(n, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.ObjectOf(id)
		if obj == nil {
			return true
		}
		if h, tracked := st[obj]; tracked && h.released {
			c.pass.Reportf(id.Pos(),
				"pooled buffer %q used after release (returned to the pool at %s)",
				id.Name, c.pass.Fset.Position(h.releasePos))
			// One report per handle is enough; stop tracking it.
			delete(st, obj)
		}
		return true
	})
}

// isPoolGet reports whether e is (possibly a reslice of) a Get/get call on
// a *Pool* receiver.
func (c *checker) isPoolGet(e ast.Expr) bool {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Get" && sel.Sel.Name != "get") {
		return false
	}
	return isPoolType(c.pass.TypeOf(sel.X))
}

// isReleaseCall reports whether call returns a buffer to a pool:
// Put/put/Release/release on a *Pool* receiver, or any recycle-named call.
func (c *checker) isReleaseCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Put", "put", "Release", "release":
			return isPoolType(c.pass.TypeOf(fun.X))
		case "recycle", "Recycle", "RecycleMessage":
			return true
		}
	case *ast.Ident:
		switch fun.Name {
		case "recycle", "Recycle", "RecycleMessage":
			return true
		}
	}
	return false
}

func isPoolType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && strings.Contains(n.Obj().Name(), "Pool")
}

// terminates reports whether a block's last statement unconditionally
// leaves the enclosing flow (return, branch, panic).
func terminates(b *ast.BlockStmt) bool { return b != nil && listTerminates(b.List) }

func listTerminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return stmtTerminates(list[len(list)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return x.Tok == token.BREAK || x.Tok == token.CONTINUE || x.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(x)
	case *ast.IfStmt:
		return terminates(x.Body) && x.Else != nil && stmtTerminates(x.Else)
	}
	return false
}

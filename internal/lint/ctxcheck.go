package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

const ctxcheckName = "ctxcheck"

// ctxcheck guards the sweep layer's ability to drain: every for-loop in
// Config.CtxPkgs that can block — time.Sleep, bare channel operations,
// single-case selects, WaitGroup waits, ranging over a channel — must
// observe a cancellation signal somewhere in the loop: a use
// of a context.Context value (ctx.Done(), ctx.Err(), or passing ctx into a
// call that honours it), or a select with more than one way out (a second
// comm case or a default).  Loops that provably terminate some other way
// (a bounded retry, a producer-closed channel) carry a //lint:ctxcheck
// escape saying so.
func ctxcheck(p *pass) {
	for _, rel := range p.cfg.CtxPkgs {
		pkg := p.mod.Lookup(rel)
		if pkg == nil {
			p.missingAnchor("package " + rel)
			continue
		}
		for _, f := range pkg.Files {
			anns := p.annotationsFor(f, "ctxcheck")
			ast.Inspect(f, func(n ast.Node) bool {
				switch loop := n.(type) {
				case *ast.ForStmt:
					p.checkLoop(loop, loop.Body, anns)
				case *ast.RangeStmt:
					p.checkLoop(loop, loop.Body, anns)
				}
				return true
			})
		}
	}
}

// checkLoop classifies one loop.  The scan covers the whole loop statement
// (condition and post included) but not nested function literals: a closure
// handed to a goroutine blocks its own schedule, not this loop's.
func (p *pass) checkLoop(loop ast.Stmt, body *ast.BlockStmt, anns []*annotation) {
	blocking := ""
	observes := false

	// Ranging over a channel blocks in the loop header itself.
	if rs, ok := loop.(*ast.RangeStmt); ok {
		if tv, ok := p.mod.Info.Types[rs.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				blocking = "range over channel " + types.ExprString(rs.X)
			}
		}
	}

	// Select comm clauses are judged as selects, not as bare channel ops.
	commOps := map[ast.Node]bool{}
	ast.Inspect(loop, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			cc := cl.(*ast.CommClause)
			switch c := cc.Comm.(type) {
			case *ast.SendStmt:
				commOps[c] = true
			case *ast.ExprStmt:
				commOps[c.X] = true
			case *ast.AssignStmt:
				for _, r := range c.Rhs {
					commOps[ast.Unparen(r)] = true
				}
			}
		}
		return true
	})

	ast.Inspect(loop, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt, *ast.DeferStmt:
			// The launched/deferred call does not block this iteration.
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range n.Body.List {
				if cl.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault || len(n.Body.List) >= 2 {
				observes = true // more than one way out of the wait
			} else if blocking == "" {
				blocking = "single-case select"
			}
		case *ast.SendStmt:
			if blocking == "" && !commOps[n] {
				blocking = "channel send"
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && blocking == "" && !commOps[ast.Node(n)] {
				blocking = "channel receive"
			}
		case *ast.CallExpr:
			if desc := p.blockingCall(n); desc != "" && blocking == "" {
				blocking = desc
			}
		case *ast.Ident:
			if p.isContextValue(n) {
				observes = true
			}
		case *ast.SelectorExpr:
			if p.isContextValue(n) {
				observes = true
			}
		}
		return true
	})

	if blocking == "" || observes {
		return
	}
	line := p.mod.Position(loop.Pos()).Line
	if suppressed(anns, line) {
		return
	}
	p.reportf(ctxcheckName, loop.Pos(),
		"loop blocks (%s) without observing cancellation — select on ctx.Done() or a stop channel, or annotate //lint:ctxcheck with why it terminates", blocking)
}

// blockingCall names calls that can block indefinitely.
func (p *pass) blockingCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := p.mod.Info.Uses[id].(*types.PkgName); ok {
			if pn.Imported().Path() == "time" && sel.Sel.Name == "Sleep" {
				return "time.Sleep"
			}
			return ""
		}
	}
	if s, ok := p.mod.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		recv := s.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		if named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup" && sel.Sel.Name == "Wait" {
			return "WaitGroup.Wait"
		}
	}
	return ""
}

// isContextValue reports an expression of type context.Context (the
// canonical cancellation carrier).  context.Background()/TODO() calls do
// not produce such an Ident or SelectorExpr node, so manufacturing a fresh
// root context inside the loop does not count as observing cancellation.
func (p *pass) isContextValue(e ast.Expr) bool {
	tv, ok := p.mod.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

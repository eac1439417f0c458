package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

const lockcheckName = "lockcheck"

// lockcheck audits the mutex discipline of the sweep-layer packages
// (Config.LockPkgs): guarded fields — inferred from `// guarded by <mu>`
// field comments plus the struct-local convention that the contiguous field
// group directly below a sync.Mutex/RWMutex field is guarded by it (a blank
// line ends the group) — must only be touched inside a critical section of
// that mutex, from a method whose name ends in "Locked" (caller holds the
// lock), or under a //lint:lockcheck escape.  Copying a lock-bearing value
// is go vet's copylocks domain, not this analyzer's.
//
// The critical-section analysis is positional, not path-sensitive: a
// Lock/Unlock pair (or a deferred unlock) covers the source span between
// them.  Unlocks whose next statement leaves the function
// (return/branch/panic) close an early-exit path, not the fall-through
// span, and are ignored.
func lockcheck(p *pass) {
	lc := &lockChecker{
		p:       p,
		mutexes: map[*types.Var]*mutexField{},
		guards:  map[*types.Var]*mutexField{},
	}
	var pkgs []*Package
	for _, rel := range p.cfg.LockPkgs {
		pkg := p.mod.Lookup(rel)
		if pkg == nil {
			p.missingAnchor("package " + rel)
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	for _, pkg := range pkgs {
		lc.discoverStructs(pkg)
	}
	for _, pkg := range pkgs {
		lc.analyzePackage(pkg)
	}
}

// mutexField is one sync.Mutex/RWMutex struct field under audit.
type mutexField struct {
	owner *types.Named
	id    string // "relpkg.Owner.field"
}

// lockEvent is one Lock/Unlock-shaped call in a function body.
type lockEvent struct {
	pos      token.Pos
	base     string // types.ExprString of the expression holding the mutex
	mf       *mutexField
	op       string
	deferred bool
	earlyOut bool // unlock directly followed by return/branch/panic
}

type guardedAccess struct {
	sel   *ast.SelectorExpr
	base  string
	mf    *mutexField
	field *types.Var
	write bool
}

// interval is one covered span of a critical section.
type interval struct {
	start, end token.Pos
	write      bool // covered by a write lock (Lock, not RLock)
}

type funcInfo struct {
	events    []lockEvent
	intervals map[string]map[*mutexField][]interval // base -> mutex -> spans
}

type lockChecker struct {
	p       *pass
	mutexes map[*types.Var]*mutexField
	guards  map[*types.Var]*mutexField // guarded field -> its mutex
}

var guardedByRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// isMutexType reports sync.Mutex / sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// discoverStructs finds the mutex fields of pkg's struct types and the
// fields they guard.
func (lc *lockChecker) discoverStructs(pkg *Package) {
	fset := lc.p.mod.Fset
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, ok := lc.p.mod.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				lc.discoverFields(pkg, fset, named, st)
			}
		}
	}
}

func (lc *lockChecker) discoverFields(pkg *Package, fset *token.FileSet, named *types.Named, st *ast.StructType) {
	type fieldAt struct {
		field   *ast.Field
		name    *ast.Ident
		obj     *types.Var
		topLine int // first line of the field incl. its doc comment
		endLine int
	}
	var fields []fieldAt
	for _, fd := range st.Fields.List {
		top := fset.Position(fd.Pos()).Line
		if fd.Doc != nil {
			top = fset.Position(fd.Doc.Pos()).Line
		}
		end := fset.Position(fd.End()).Line
		if fd.Comment != nil {
			end = fset.Position(fd.Comment.End()).Line
		}
		for _, name := range fd.Names {
			obj, _ := lc.p.mod.Info.Defs[name].(*types.Var)
			fields = append(fields, fieldAt{field: fd, name: name, obj: obj, topLine: top, endLine: end})
		}
		if len(fd.Names) == 0 { // embedded field: never a guard target here
			fields = append(fields, fieldAt{field: fd, topLine: top, endLine: end})
		}
	}
	// Pass 1: register the mutex fields.
	byName := map[string]*mutexField{}
	for _, fa := range fields {
		if fa.obj == nil {
			continue
		}
		if isMutexType(fa.obj.Type()) {
			mf := &mutexField{owner: named, id: mutexID(pkg, named, fa.obj)}
			lc.mutexes[fa.obj] = mf
			byName[fa.obj.Name()] = mf
		}
	}
	if len(byName) == 0 {
		return
	}
	// Pass 2: explicit `// guarded by <mu>` comments win; otherwise the
	// contiguous group below a mutex field is guarded by it.
	var current *mutexField
	prevEnd := -2
	for _, fa := range fields {
		if fa.obj == nil {
			current = nil
			prevEnd = fa.endLine
			continue
		}
		if _, isMu := lc.mutexes[fa.obj]; isMu {
			current = lc.mutexes[fa.obj]
			prevEnd = fa.endLine
			continue
		}
		if m := guardedByRE.FindStringSubmatch(fieldCommentText(fa.field)); m != nil {
			if mf := byName[m[1]]; mf != nil {
				lc.guards[fa.obj] = mf
			} else {
				lc.p.reportf(lockcheckName, fa.field.Pos(),
					"field %s.%s is annotated `guarded by %s` but %s has no mutex field %s",
					named.Obj().Name(), fa.obj.Name(), m[1], named.Obj().Name(), m[1])
			}
			current = nil // an explicit guard ends the positional group
			prevEnd = fa.endLine
			continue
		}
		if current != nil && fa.topLine == prevEnd+1 {
			lc.guards[fa.obj] = current
		} else {
			current = nil
		}
		prevEnd = fa.endLine
	}
}

func fieldCommentText(fd *ast.Field) string {
	var b strings.Builder
	if fd.Doc != nil {
		b.WriteString(fd.Doc.Text())
	}
	if fd.Comment != nil {
		b.WriteString(fd.Comment.Text())
	}
	return b.String()
}

func mutexID(pkg *Package, named *types.Named, field *types.Var) string {
	rel := pkg.RelPath
	if rel == "" {
		rel = pkg.Name
	}
	return rel + "." + named.Obj().Name() + "." + field.Name()
}

// directLockCall matches `base.mu.Lock()`-shaped calls on a discovered
// mutex field, returning the mutex and operation.
func (lc *lockChecker) directLockCall(call *ast.CallExpr) (*mutexField, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, "", false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	s, ok := lc.p.mod.Info.Selections[inner]
	if !ok || s.Kind() != types.FieldVal {
		return nil, "", false
	}
	obj, ok := s.Obj().(*types.Var)
	if !ok {
		return nil, "", false
	}
	mf, ok := lc.mutexes[obj]
	if !ok {
		return nil, "", false
	}
	return mf, op, true
}

// analyzePackage walks every function body (function literals are analyzed
// as independent functions: a closure runs on its own goroutine's schedule
// and cannot rely on its creator's critical section).
func (lc *lockChecker) analyzePackage(pkg *Package) {
	for _, f := range pkg.Files {
		anns := lc.p.annotationsFor(f, "lockcheck")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lc.analyzeFunc(fd, anns)
		}
	}
}

// analyzeFunc drives the per-function critical-section analysis.
func (lc *lockChecker) analyzeFunc(fd *ast.FuncDecl, anns []*annotation) {
	var recvName string
	var recvType *types.Named
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recvName = fd.Recv.List[0].Names[0].Name
		if tv, ok := lc.p.mod.Info.Types[fd.Recv.List[0].Type]; ok {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			recvType, _ = t.(*types.Named)
		}
	}
	lc.analyzeBody(funcDisplayName(fd), fd.Body, anns, func(a guardedAccess, covered, writeCovered bool) bool {
		if covered && (!a.write || writeCovered) {
			return true
		}
		// A *Locked method asserts its caller holds the receiver's lock.
		if recvType != nil && a.mf.owner.Obj() == recvType.Obj() &&
			a.base == recvName && strings.HasSuffix(fd.Name.Name, "Locked") {
			return true
		}
		return false
	})
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return recvTypeName(fd) + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// analyzeBody collects the lock events and guarded accesses of one body
// (recursing into function literals as separate bodies), builds the
// covered intervals, and reports uncovered accesses.  allow is the
// enclosing declaration's extra exemptions.
func (lc *lockChecker) analyzeBody(name string, body *ast.BlockStmt,
	anns []*annotation, allow func(a guardedAccess, covered, writeCovered bool) bool) {

	info := &funcInfo{intervals: map[string]map[*mutexField][]interval{}}
	var accesses []guardedAccess
	var lits []*ast.FuncLit
	writeTargets := map[ast.Expr]bool{}

	markWrite := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				writeTargets[e] = true
				return
			}
		}
	}

	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				lits = append(lits, n)
				return false
			case *ast.DeferStmt:
				lc.lockEvent(info, n.Call, true)
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					lits = append(lits, lit)
				}
				for _, arg := range n.Call.Args {
					walk(arg, inDefer)
				}
				return false
			case *ast.GoStmt:
				// The spawned call runs concurrently: it is neither inside
				// this critical section nor ordered after it.
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					lits = append(lits, lit)
				}
				for _, arg := range n.Call.Args {
					walk(arg, inDefer)
				}
				return false
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markWrite(lhs)
				}
			case *ast.IncDecStmt:
				markWrite(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markWrite(n.X) // the pointee escapes; treat as a write
				}
			case *ast.CallExpr:
				lc.lockEvent(info, n, false)
			case *ast.SelectorExpr:
				if s, ok := lc.p.mod.Info.Selections[n]; ok && s.Kind() == types.FieldVal {
					if obj, ok := s.Obj().(*types.Var); ok {
						if mf, guarded := lc.guards[obj]; guarded {
							accesses = append(accesses, guardedAccess{
								sel: n, base: types.ExprString(n.X), mf: mf, field: obj,
								write: writeTargets[n],
							})
						}
					}
				}
			}
			return true
		})
	}
	walk(body, false)
	markEarlyOuts(info, body)
	buildIntervals(info, body.End())

	for _, a := range accesses {
		covered, writeCovered := coveredAt(info, a.base, a.mf, a.sel.Pos())
		if allow(a, covered, writeCovered) {
			continue
		}
		line := lc.p.mod.Position(a.sel.Pos()).Line
		if suppressed(anns, line) {
			continue
		}
		verb := "read"
		if a.write {
			verb = "write"
		}
		if covered && a.write && !writeCovered {
			lc.p.reportf(lockcheckName, a.sel.Pos(),
				"%s of %s.%s under RLock in %s — guarded writes need the full %s",
				verb, a.mf.owner.Obj().Name(), a.field.Name(), name, a.mf.id)
			continue
		}
		lc.p.reportf(lockcheckName, a.sel.Pos(),
			"%s of %s.%s outside %s in %s — hold the lock, move this into a *Locked method, or annotate //lint:lockcheck with a justification",
			verb, a.mf.owner.Obj().Name(), a.field.Name(), a.mf.id, name)
	}

	for _, lit := range lits {
		lc.analyzeBody(name+".func", lit.Body, anns,
			func(a guardedAccess, covered, writeCovered bool) bool {
				return covered && (!a.write || writeCovered)
			})
	}
}

// lockEvent records call as a lock event when it is a Lock-shaped call
// on an audited mutex.
func (lc *lockChecker) lockEvent(info *funcInfo, call *ast.CallExpr, deferred bool) {
	if mf, op, ok := lc.directLockCall(call); ok {
		sel := call.Fun.(*ast.SelectorExpr).X.(*ast.SelectorExpr)
		info.events = append(info.events, lockEvent{
			pos: call.Pos(), base: types.ExprString(sel.X), mf: mf, op: op, deferred: deferred,
		})
	}
}

// markEarlyOuts flags unlock events whose next sibling statement leaves the
// function: they close an early-exit path, and treating them as the end of
// the fall-through critical section would split it spuriously.
func markEarlyOuts(info *funcInfo, body *ast.BlockStmt) {
	unlockAt := map[token.Pos]*lockEvent{}
	for i := range info.events {
		ev := &info.events[i]
		if !ev.deferred && (ev.op == "Unlock" || ev.op == "RUnlock") {
			unlockAt[ev.pos] = ev
		}
	}
	if len(unlockAt) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, st := range list {
			es, ok := st.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			ev, ok := unlockAt[call.Pos()]
			if !ok || i+1 >= len(list) {
				continue
			}
			switch next := list[i+1].(type) {
			case *ast.ReturnStmt, *ast.BranchStmt:
				ev.earlyOut = true
			case *ast.ExprStmt:
				if c, ok := next.X.(*ast.CallExpr); ok {
					if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
						ev.earlyOut = true
					}
				}
			}
		}
		return true
	})
}

// buildIntervals turns the position-ordered lock events into covered spans
// per (base expression, mutex).
func buildIntervals(info *funcInfo, bodyEnd token.Pos) {
	type key struct {
		base string
		mf   *mutexField
	}
	byKey := map[key][]lockEvent{}
	for _, ev := range info.events {
		k := key{ev.base, ev.mf}
		byKey[k] = append(byKey[k], ev)
	}
	for k, evs := range byKey {
		sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		var spans []interval
		depth := 0
		var start token.Pos
		deferredOpen := false
		for _, ev := range evs {
			switch ev.op {
			case "Lock", "RLock":
				if ev.deferred {
					continue // defer mu.Lock() is a bug, not a section
				}
				if depth == 0 {
					start = ev.pos
				}
				depth++
			case "Unlock", "RUnlock":
				if ev.deferred {
					deferredOpen = true
					continue
				}
				if ev.earlyOut {
					continue
				}
				if depth > 0 {
					depth--
					if depth == 0 {
						spans = append(spans, interval{start: start, end: ev.pos, write: spanHadWrite(evs, start, ev.pos)})
					}
				}
			}
		}
		if depth > 0 || deferredOpen && depth == 0 && len(evs) > 0 && anyLock(evs) {
			// Locked with a deferred (or missing) unlock: covered to the end.
			if depth == 0 {
				// Only a deferred unlock was seen; find the first lock.
				for _, ev := range evs {
					if !ev.deferred && (ev.op == "Lock" || ev.op == "RLock") {
						start = ev.pos
						break
					}
				}
				if start == token.NoPos {
					continue
				}
			}
			spans = append(spans, interval{start: start, end: bodyEnd, write: spanHadWrite(evs, start, bodyEnd)})
		}
		m := info.intervals[k.base]
		if m == nil {
			m = map[*mutexField][]interval{}
			info.intervals[k.base] = m
		}
		m[k.mf] = spans
	}
}

func anyLock(evs []lockEvent) bool {
	for _, ev := range evs {
		if !ev.deferred && (ev.op == "Lock" || ev.op == "RLock") {
			return true
		}
	}
	return false
}

// spanHadWrite reports whether a full (non-R) Lock opened within the span.
func spanHadWrite(evs []lockEvent, start, end token.Pos) bool {
	for _, ev := range evs {
		if !ev.deferred && ev.op == "Lock" && ev.pos >= start && ev.pos <= end {
			return true
		}
	}
	return false
}

func coveredAt(info *funcInfo, base string, mf *mutexField, pos token.Pos) (covered, write bool) {
	for _, iv := range info.intervals[base][mf] {
		if pos >= iv.start && pos <= iv.end {
			covered = true
			if iv.write {
				write = true
			}
		}
	}
	return covered, write
}

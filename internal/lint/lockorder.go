package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockOrder enforces the engine's multi-level lock acquisition order.
//
// Mutex fields, mutex variables (package-level or local), and functions
// returning a mutex carry //ssi:lock level=N name=... annotations; the
// analyzer tracks, per function and per statement path, which annotated
// locks are held, and flags any acquisition of a lock whose level is
// not strictly greater than every lock already held — both directly and
// through package-local calls (the callee's transitive acquisition set,
// computed to a fixed point over the package call graph). Holding two
// locks of the same level is flagged too, unless the lock's annotation
// carries multi=under:<outer> and the named outer lock is held (the
// several-edge-locks-under-Manager.mu rule), or the site carries a
// justified //ssi:ignore.
//
// TryLock/TryRLock acquisitions are exempt from the order check: a try
// cannot block, so it cannot deadlock. A successful try still enters the
// held set on the guarded branch, so everything acquired under it is
// checked against it.
//
// Unannotated mutexes are invisible to the analyzer: the annotations in
// internal/core, internal/mvcc, internal/storage, internal/wal, and the
// root package are the machine-readable form of the ordering rules
// documented in internal/core/partition.go and docs/invariants.md.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "check annotated mutex acquisitions against the engine's lock-level order",
	Run:  runLockOrder,
}

// acquireMethods classifies the sync.Mutex / sync.RWMutex method names
// the analyzer understands.
var (
	lockMethods    = map[string]bool{"Lock": true, "RLock": true}
	tryLockMethods = map[string]bool{"TryLock": true, "TryRLock": true}
	unlockMethods  = map[string]bool{"Unlock": true, "RUnlock": true}
)

// heldLock records one currently-held annotated lock and where it was
// acquired.
type heldLock struct {
	ann lockAnnotation
	pos token.Pos
}

// heldSet maps annotation name -> held lock. The name is the lock's
// identity: the engine's discipline allows at most one lock per class
// at a time (multi=under excepted), so a set keyed by class suffices.
type heldSet map[string]heldLock

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// intersect keeps only locks held in both sets (used to merge branch
// exits: a lock is held after a branch only if every falling-through
// path holds it).
func (h heldSet) intersect(other heldSet) heldSet {
	out := make(heldSet)
	for k, v := range h {
		if _, ok := other[k]; ok {
			out[k] = v
		}
	}
	return out
}

type lockChecker struct {
	pass  *Pass
	annot map[types.Object]lockAnnotation // annotated fields, vars, getter funcs
	names map[string]lockAnnotation       // declared lock classes by name
	decls map[*types.Func]*ast.FuncDecl   // package-local functions with bodies
	// holds maps a function to the locks its //ssi:holds precondition
	// declares held by every caller (the *Locked convention).
	holds map[*types.Func][]lockAnnotation
	// aliases maps a local variable object to the annotation of the
	// lock it was assigned from (latch := lt.latch(page)).
	aliases map[types.Object]lockAnnotation
	// direct and trans are the per-function directly-acquired and
	// transitively-acquired (via package-local calls) lock sets.
	direct map[*types.Func]map[string]lockAnnotation
	calls  map[*types.Func]map[*types.Func]bool
	trans  map[*types.Func]map[string]lockAnnotation
}

func runLockOrder(pass *Pass) error {
	c := &lockChecker{
		pass:    pass,
		annot:   make(map[types.Object]lockAnnotation),
		names:   make(map[string]lockAnnotation),
		decls:   make(map[*types.Func]*ast.FuncDecl),
		holds:   make(map[*types.Func][]lockAnnotation),
		aliases: make(map[types.Object]lockAnnotation),
		direct:  make(map[*types.Func]map[string]lockAnnotation),
		calls:   make(map[*types.Func]map[*types.Func]bool),
		trans:   make(map[*types.Func]map[string]lockAnnotation),
	}
	c.collectAnnotations()
	c.collectDecls()
	c.collectHolds()
	c.collectAliases()
	c.buildSummaries()

	// Checking pass: walk every function body tracking held locks,
	// starting from the //ssi:holds precondition (if any).
	for fn, decl := range c.decls {
		held := make(heldSet)
		for _, ann := range c.holds[fn] {
			held[ann.Name] = heldLock{ann: ann, pos: decl.Pos()}
		}
		w := &lockWalker{c: c, report: true}
		w.walkBody(decl.Body, held)
	}
	return nil
}

// collectHolds binds //ssi:holds preconditions to their functions. The
// directive lists lock class names declared by //ssi:lock annotations in
// this package; an unknown name is a diagnostic (a typo would otherwise
// silently weaken every check in the function).
func (c *lockChecker) collectHolds() {
	pass := c.pass
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, cm := range fd.Doc.List {
				args, ok := cutDirective(cm.Text, "holds")
				if !ok {
					continue
				}
				fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				if args == "" {
					pass.Reportf(cm.Pos(), "ssi:holds needs at least one lock name")
					continue
				}
				for _, name := range strings.Fields(args) {
					ann, known := c.names[name]
					if !known {
						pass.Reportf(cm.Pos(), "ssi:holds names %s, which no ssi:lock annotation in this package declares", name)
						continue
					}
					c.holds[fn] = append(c.holds[fn], ann)
				}
			}
		}
	}
}

// collectAnnotations finds every //ssi:lock directive and binds it to
// the declared object it annotates: a struct field, a var (package
// level or local), or a function returning a lock.
func (c *lockChecker) collectAnnotations() {
	pass := c.pass
	byLine := collectLineDirectives(pass.Fset, pass.Files, "lock")

	bind := func(obj types.Object, args string, at token.Pos) {
		if obj == nil {
			return
		}
		ann, problem := parseLockAnnotation(args)
		if problem != "" {
			pass.Reportf(at, "%s", problem)
			return
		}
		if prev, ok := c.names[ann.Name]; ok && prev.Level != ann.Level {
			pass.Reportf(at, "ssi:lock name %s redeclared at level %d (previously level %d); one class, one level", ann.Name, ann.Level, prev.Level)
			return
		}
		c.names[ann.Name] = ann
		c.annot[obj] = ann
	}

	// argsFor extracts a lock directive attached to a node: in its doc
	// or trailing comment group, or written on the same source line.
	argsFor := func(pos token.Pos, groups ...*ast.CommentGroup) (string, token.Pos, bool) {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, cm := range g.List {
				if rest, ok := cutDirective(cm.Text, "lock"); ok {
					return rest, cm.Pos(), true
				}
			}
		}
		if args, ok := byLine.at(pass.Fset.Position(pos)); ok {
			return args, pos, true
		}
		return "", token.NoPos, false
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					args, at, ok := argsFor(field.Pos(), field.Doc, field.Comment)
					if !ok {
						continue
					}
					for _, name := range field.Names {
						bind(pass.TypesInfo.Defs[name], args, at)
					}
				}
			case *ast.ValueSpec:
				args, at, ok := argsFor(n.Pos(), n.Doc, n.Comment)
				if !ok {
					return true
				}
				for _, name := range n.Names {
					bind(pass.TypesInfo.Defs[name], args, at)
				}
			case *ast.FuncDecl:
				args, at, ok := argsFor(n.Pos(), n.Doc)
				if !ok {
					return true
				}
				bind(pass.TypesInfo.Defs[n.Name], args, at)
			}
			return true
		})
	}
}

// cutDirective returns the args of text if it is an //ssi:<kind> comment.
func cutDirective(text, kind string) (string, bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix+kind)
	if !ok {
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. //ssi:lockfoo
	}
	return strings.TrimSpace(rest), true
}

func (c *lockChecker) collectDecls() {
	for _, f := range c.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.decls[fn] = fd
			}
		}
	}
}

// collectAliases records local variables assigned from an annotated
// lock (latch := lt.latch(page); l := &m.parts[i].mu), so later
// l.Lock() calls resolve. Iterates to a small fixed point so an alias
// of an alias resolves too.
func (c *lockChecker) collectAliases() {
	for range 3 {
		changed := false
		for _, decl := range c.decls {
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						obj := c.pass.TypesInfo.Defs[id]
						if obj == nil {
							obj = c.pass.TypesInfo.Uses[id]
						}
						if obj == nil {
							continue
						}
						if _, done := c.aliases[obj]; done {
							continue
						}
						if ann, ok := c.resolveLock(n.Rhs[i]); ok {
							c.aliases[obj] = ann
							changed = true
						}
					}
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if i >= len(n.Values) {
							break
						}
						obj := c.pass.TypesInfo.Defs[name]
						if obj == nil {
							continue
						}
						if _, done := c.aliases[obj]; done {
							continue
						}
						if ann, ok := c.resolveLock(n.Values[i]); ok {
							c.aliases[obj] = ann
							changed = true
						}
					}
				}
				return true
			})
		}
		if !changed {
			break
		}
	}
}

// resolveLock maps an expression denoting a mutex to its annotation:
// a selector to an annotated field, a use of an annotated var or alias,
// an index into an annotated slice, or a call of an annotated getter.
func (c *lockChecker) resolveLock(e ast.Expr) (lockAnnotation, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.resolveLock(e.X)
	case *ast.StarExpr:
		return c.resolveLock(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.resolveLock(e.X)
		}
	case *ast.IndexExpr:
		return c.resolveLock(e.X)
	case *ast.SelectorExpr:
		if sel, ok := c.pass.TypesInfo.Selections[e]; ok {
			if ann, ok := c.annot[sel.Obj()]; ok {
				return ann, true
			}
			return lockAnnotation{}, false
		}
		if obj := c.pass.TypesInfo.Uses[e.Sel]; obj != nil {
			ann, ok := c.annot[obj]
			return ann, ok
		}
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return lockAnnotation{}, false
		}
		if ann, ok := c.annot[obj]; ok {
			return ann, true
		}
		if ann, ok := c.aliases[obj]; ok {
			return ann, true
		}
	case *ast.CallExpr:
		if fn := c.callee(e); fn != nil {
			ann, ok := c.annot[fn]
			return ann, ok
		}
	}
	return lockAnnotation{}, false
}

// callee resolves the static callee of a call, if it is a named
// function or method (of any package).
func (c *lockChecker) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := c.pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := c.pass.TypesInfo.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// localCallee resolves a call to a function declared (with a body) in
// this package.
func (c *lockChecker) localCallee(call *ast.CallExpr) *types.Func {
	fn := c.callee(call)
	if fn == nil {
		return nil
	}
	if _, ok := c.decls[fn]; !ok {
		return nil
	}
	return fn
}

// buildSummaries computes, for every package function, the set of
// annotated locks it acquires directly (including inside non-goroutine
// function literals) and then the transitive set through package-local
// calls, to a fixed point.
func (c *lockChecker) buildSummaries() {
	for fn, decl := range c.decls {
		acq := make(map[string]lockAnnotation)
		callees := make(map[*types.Func]bool)
		var scan func(n ast.Node) bool
		scan = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// A spawned goroutine's acquisitions are not held on
				// the caller's path; exclude the whole statement.
				return false
			case *ast.CallExpr:
				if se, ok := n.Fun.(*ast.SelectorExpr); ok {
					// Try-acquisitions are excluded: they cannot block, so
					// they impose no ordering obligation on callers.
					if lockMethods[se.Sel.Name] {
						if ann, ok := c.resolveLock(se.X); ok {
							acq[ann.Name] = ann
						}
					}
				}
				if g := c.localCallee(n); g != nil && g != fn {
					callees[g] = true
				}
			}
			return true
		}
		ast.Inspect(decl.Body, scan)
		c.direct[fn] = acq
		c.calls[fn] = callees
	}
	for fn := range c.decls {
		t := make(map[string]lockAnnotation, len(c.direct[fn]))
		for k, v := range c.direct[fn] {
			t[k] = v
		}
		c.trans[fn] = t
	}
	for changed := true; changed; {
		changed = false
		for fn := range c.decls {
			t := c.trans[fn]
			for g := range c.calls[fn] {
				for name, ann := range c.trans[g] {
					if _, ok := t[name]; !ok {
						t[name] = ann
						changed = true
					}
				}
			}
		}
	}
}

// checkAcquire reports any ordering violation of acquiring ann while
// holding held. via is empty for a direct acquisition, or the name of
// the called function whose body (transitively) acquires it.
func (c *lockChecker) checkAcquire(held heldSet, ann lockAnnotation, pos token.Pos, via string) {
	for _, h := range held {
		switch {
		case ann.Level > h.ann.Level:
			continue
		case ann.Level == h.ann.Level && ann.Name == h.ann.Name && ann.MultiUnder != "":
			if _, outer := held[ann.MultiUnder]; outer {
				continue // multi-hold sanctioned under the named outer lock
			}
			c.reportAcquire(pos, via, "acquires a second %s (level %d) without holding %s (its multi=under lock)", ann.Name, ann.Level, ann.MultiUnder)
		case ann.Level == h.ann.Level && ann.Name == h.ann.Name:
			c.reportAcquire(pos, via, "re-acquires %s (level %d) already held", ann.Name, ann.Level)
		case ann.Level == h.ann.Level:
			c.reportAcquire(pos, via, "acquires %s while holding same-level %s (level %d); the discipline allows one lock per level at a time", ann.Name, h.ann.Name, ann.Level)
		default:
			c.reportAcquire(pos, via, "acquires %s (level %d) while holding %s (level %d); annotated locks must be acquired in strictly increasing level order", ann.Name, ann.Level, h.ann.Name, h.ann.Level)
		}
	}
}

func (c *lockChecker) reportAcquire(pos token.Pos, via string, format string, args ...any) {
	if via != "" {
		format = "call to " + via + " " + format
	}
	c.pass.Reportf(pos, format, args...)
}

// lockWalker walks one function body in source order, maintaining the
// held-lock set with branch-sensitive merging.
type lockWalker struct {
	c      *lockChecker
	report bool
}

// walkBody walks a block, returning true if every path through it
// terminates (returns or panics).
func (w *lockWalker) walkBody(body *ast.BlockStmt, held heldSet) bool {
	if body == nil {
		return false
	}
	return w.walkStmts(body.List, held)
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt, held heldSet) bool {
	for _, s := range stmts {
		if w.walkStmt(s, held) {
			return true
		}
	}
	return false
}

// walkStmt processes one statement, mutating held; it returns true if
// the statement terminates the current path.
func (w *lockWalker) walkStmt(s ast.Stmt, held heldSet) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scanExpr(s.X, held)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.scanExpr(r, held)
		}
		for _, l := range s.Lhs {
			w.scanExpr(l, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.scanExpr(s.Chan, held)
		w.scanExpr(s.Value, held)
	case *ast.IncDecStmt:
		w.scanExpr(s.X, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r, held)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave this path; treat as terminated for
		// merge purposes (conservative: held state after the construct
		// comes from falling-through paths).
		return true
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		return w.walkIf(s, held)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		body := held.clone()
		w.walkBody(s.Body, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		w.walkBody(s.Body, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		return w.walkCases(s.Body, held, false)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		return w.walkCases(s.Body, held, false)
	case *ast.SelectStmt:
		return w.walkCases(s.Body, held, true)
	case *ast.DeferStmt:
		w.walkDefer(s, held)
	case *ast.GoStmt:
		// The goroutine runs concurrently: check its body against an
		// empty held set.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkBody(lit.Body, make(heldSet))
		}
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, held)
		}
	}
	return false
}

// walkIf handles if/else with held-set merging, including the
// latch.TryLock() / !latch.TryLock() conditional-acquisition shapes.
func (w *lockWalker) walkIf(s *ast.IfStmt, held heldSet) bool {
	if s.Init != nil {
		w.walkStmt(s.Init, held)
	}
	negated := false
	if ue, ok := s.Cond.(*ast.UnaryExpr); ok && ue.Op == token.NOT {
		negated = true
	}
	condAcqs := w.scanExpr(s.Cond, held)

	thenHeld := held.clone()
	elseHeld := held.clone()
	// A successful TryLock holds the lock on the true branch.
	for _, a := range condAcqs {
		if negated {
			elseHeld[a.ann.Name] = a
		} else {
			thenHeld[a.ann.Name] = a
		}
	}
	thenTerm := w.walkBody(s.Body, thenHeld)
	elseTerm := false
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseTerm = w.walkStmts(e.List, elseHeld)
	case *ast.IfStmt:
		elseTerm = w.walkStmt(e, elseHeld)
	case nil:
		// fallthrough path keeps elseHeld
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		replace(held, elseHeld)
	case elseTerm:
		replace(held, thenHeld)
	default:
		replace(held, thenHeld.intersect(elseHeld))
	}
	return false
}

func replace(dst, src heldSet) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// walkCases walks a switch/select body: each clause starts from the
// entry held set; the exit is the intersection of non-terminating
// clauses.
func (w *lockWalker) walkCases(body *ast.BlockStmt, held heldSet, isSelect bool) bool {
	var exits []heldSet
	sawDefault := false
	for _, cl := range body.List {
		var stmts []ast.Stmt
		h := held.clone()
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.scanExpr(e, h)
			}
			if cl.List == nil {
				sawDefault = true
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm != nil {
				w.walkStmt(cl.Comm, h)
			} else {
				sawDefault = true
			}
			stmts = cl.Body
		}
		if !w.walkStmts(stmts, h) {
			exits = append(exits, h)
		}
	}
	if len(exits) == 0 && len(body.List) > 0 && (sawDefault || isSelect) {
		return true
	}
	if len(exits) > 0 {
		merged := exits[0]
		for _, e := range exits[1:] {
			merged = merged.intersect(e)
		}
		replace(held, merged)
	}
	// Without a default, the zero-case fallthrough keeps the entry set;
	// intersecting with it can only shrink, which we already did if any
	// clause falls through; if none did, held is unchanged.
	return false
}

// walkDefer handles defer statements. A deferred Unlock keeps the lock
// held for the rest of the function (correct for ordering). A deferred
// function literal is walked against the current held set.
func (w *lockWalker) walkDefer(s *ast.DeferStmt, held heldSet) {
	if se, ok := s.Call.Fun.(*ast.SelectorExpr); ok && unlockMethods[se.Sel.Name] {
		if _, ok := w.c.resolveLock(se.X); ok {
			return // release at return: stays held until then
		}
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		w.walkBody(lit.Body, held.clone())
		return
	}
	for _, arg := range s.Call.Args {
		w.scanExpr(arg, held)
	}
}

// scanExpr scans an expression in source order for lock events and
// package-local calls, mutating held. It returns conditional
// acquisitions (TryLock calls) for the enclosing if to apply to the
// right branch.
func (w *lockWalker) scanExpr(e ast.Expr, held heldSet) []heldLock {
	var condAcqs []heldLock
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal not (detectably) invoked here: check its body
			// independently; we cannot know the caller's held set.
			w.walkBody(n.Body, make(heldSet))
			return false
		case *ast.CallExpr:
			// Immediately-invoked literal runs under the current set.
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				for _, arg := range n.Args {
					ast.Inspect(arg, visit)
				}
				w.walkBody(lit.Body, held)
				return false
			}
			if se, ok := n.Fun.(*ast.SelectorExpr); ok {
				name := se.Sel.Name
				if lockMethods[name] || tryLockMethods[name] || unlockMethods[name] {
					if ann, ok := w.c.resolveLock(se.X); ok {
						// Scan the lock expression itself first (it may
						// contain calls, e.g. lt.latch(p).RLock()).
						ast.Inspect(se.X, visit)
						switch {
						case unlockMethods[name]:
							delete(held, ann.Name)
						case lockMethods[name]:
							w.check(held, ann, n.Pos(), "")
							held[ann.Name] = heldLock{ann: ann, pos: n.Pos()}
						default: // TryLock: no order check (cannot block),
							// but a success holds the lock on the guarded
							// branch.
							condAcqs = append(condAcqs, heldLock{ann: ann, pos: n.Pos()})
						}
						return false
					}
				}
			}
			if g := w.c.localCallee(n); g != nil {
				if w.report {
					for _, ann := range w.c.trans[g] {
						w.check(held, ann, n.Pos(), g.Name())
					}
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(e, visit)
	return condAcqs
}

func (w *lockWalker) check(held heldSet, ann lockAnnotation, pos token.Pos, via string) {
	if !w.report {
		return
	}
	w.c.checkAcquire(held, ann, pos, via)
}

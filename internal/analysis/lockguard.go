package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// LockGuard enforces SLIM's locking discipline:
//
//  1. A struct field whose doc or line comment says "guarded by <lock>"
//     (conventionally `// guarded by mu.`) may only be touched by code that
//     holds that lock: the function either acquires <lock> before the
//     access, is named with the *Locked suffix, or documents "caller holds
//     <lock>".
//  2. Callback values loaded from a guarded field (TRIM's observers) must
//     not be invoked while the lock is held — synchronous fan-out under the
//     store lock turns a slow observer into a store-wide stall and a
//     re-entrant observer into a deadlock. Snapshot under the lock, deliver
//     after unlock.
//
// Lock state is tracked in statement order per function (Lock/RLock sets
// it, Unlock/RUnlock clears it, deferred unlocks hold to function end);
// branches are treated as straight-line code, which is exact for the
// lock-then-defer-unlock shapes this repo uses.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc: "fields annotated `guarded by mu` must only be accessed with the lock held; " +
		"callbacks loaded from guarded fields must not run under the lock",
	Run: runLockGuard,
}

var (
	guardedByRe   = regexp.MustCompile(`(?i)guarded by (\w+)`)
	callerHoldsRe = regexp.MustCompile(`(?i)caller[s]? (?:must )?hold[s]? (\w+)`)
	// The ...At forms are the obs tracked locks' clock-sharing variants.
	lockMethodName = map[string]bool{"Lock": true, "RLock": true, "LockAt": true, "RLockAt": true}
	unlockMethods  = map[string]bool{"Unlock": true, "RUnlock": true, "UnlockAt": true, "RUnlockAt": true}
)

func runLockGuard(pass *Pass) error {
	info := pass.Info()

	// Pass 1: collect guarded fields (field object -> lock field name) and
	// validate that the named lock exists in the same struct.
	guarded := map[*types.Var]string{}
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := map[string]bool{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, field := range st.Fields.List {
				text := field.Doc.Text() + " " + field.Comment.Text()
				m := guardedByRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				lock := m[1]
				if !fieldNames[lock] {
					pass.Reportf(field.Pos(), "field is annotated `guarded by %s` but the struct has no field %q", lock, lock)
					continue
				}
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						guarded[v] = lock
					}
				}
			}
			return true
		})
	}
	if len(guarded) == 0 {
		return nil
	}

	// Pass 2: walk every function, tracking lock state in statement order.
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockGuardFunc(pass, fd, guarded)
		}
	}
	return nil
}

// lgState is the per-function walk state.
type lgState struct {
	pass    *Pass
	fn      *ast.FuncDecl
	guarded map[*types.Var]string
	// held tracks which lock names are currently held.
	held map[string]bool
	// entryHeld: the function is *Locked-suffixed or documented as running
	// under the caller's lock, so every guard is considered held throughout.
	entryHeld bool
	// tainted maps local idents holding callback values loaded from a
	// guarded field to that field's name.
	tainted map[types.Object]string
	// reported dedupes (field, function) pairs so one unguarded field used
	// five times yields one finding.
	reported map[string]bool
}

func checkLockGuardFunc(pass *Pass, fd *ast.FuncDecl, guarded map[*types.Var]string) {
	name := fd.Name.Name
	s := &lgState{
		pass:     pass,
		fn:       fd,
		guarded:  guarded,
		held:     map[string]bool{},
		tainted:  map[types.Object]string{},
		reported: map[string]bool{},
	}
	if strings.HasSuffix(name, "Locked") || callerHoldsRe.MatchString(fd.Doc.Text()) {
		s.entryHeld = true
	}
	s.walkStmts(fd.Body.List)
}

// walkStmts processes statements in source order, updating lock state and
// checking expressions.
func (s *lgState) walkStmts(stmts []ast.Stmt) {
	for _, st := range stmts {
		s.walkStmt(st)
	}
}

func (s *lgState) walkStmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if lock, isLock, acquires := s.lockOp(call); isLock {
				s.held[lock] = acquires
				return
			}
		}
		s.checkExpr(st.X)
	case *ast.DeferStmt:
		if lock, isLock, acquires := s.lockOp(st.Call); isLock {
			if acquires {
				s.held[lock] = true // defer Lock() is odd; treat as held
			}
			// Deferred unlock: the lock stays held for the rest of the body.
			return
		}
		s.checkExpr(st.Call)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			s.checkExpr(rhs)
		}
		s.recordTaintAssign(st)
		for _, lhs := range st.Lhs {
			s.checkExpr(lhs)
		}
	case *ast.RangeStmt:
		s.checkExpr(st.X)
		s.recordTaintRange(st)
		s.walkBranch(st.Body)
	case *ast.BlockStmt:
		s.walkStmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			s.walkStmt(st.Init)
		}
		s.checkExpr(st.Cond)
		s.walkBranch(st.Body)
		if st.Else != nil {
			s.walkBranch(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.walkStmt(st.Init)
		}
		if st.Cond != nil {
			s.checkExpr(st.Cond)
		}
		s.walkBranch(st.Body)
		if st.Post != nil {
			s.walkStmt(st.Post)
		}
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.walkStmt(st.Init)
		}
		if st.Tag != nil {
			s.checkExpr(st.Tag)
		}
		s.walkStmt(st.Body)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.walkStmt(st.Init)
		}
		s.walkStmt(st.Assign)
		s.walkStmt(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			s.checkExpr(e)
		}
		s.walkBranchStmts(st.Body)
	case *ast.SelectStmt:
		s.walkStmt(st.Body)
	case *ast.CommClause:
		if st.Comm != nil {
			s.walkStmt(st.Comm)
		}
		s.walkBranchStmts(st.Body)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.checkExpr(e)
		}
	case *ast.GoStmt:
		// A goroutine runs on its own schedule: lock state there is unknown,
		// so only guarded-access checks apply, with no held locks.
		saved := s.held
		s.held = map[string]bool{}
		s.checkExpr(st.Call)
		s.held = saved
	case *ast.DeclStmt, *ast.BranchStmt, *ast.EmptyStmt, *ast.IncDecStmt,
		*ast.SendStmt, *ast.LabeledStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				s.checkExpr(e)
				return false
			}
			return true
		})
	default:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				s.checkExpr(e)
				return false
			}
			return true
		})
	}
}

// walkBranch walks a conditionally executed body with branch-local lock
// state: a Lock/Unlock inside the branch does not leak into the code after
// it. This keeps the common early-exit shape
//
//	if !ok { mu.Unlock(); return }
//
// from clearing the held set on the fallthrough path. The trade-off is
// that a lock acquired inside a branch for use after it goes untracked —
// an already-suspect shape this repo does not use.
func (s *lgState) walkBranch(body ast.Stmt) {
	saved := make(map[string]bool, len(s.held))
	for k, v := range s.held {
		saved[k] = v
	}
	s.walkStmt(body)
	s.held = saved
}

// walkBranchStmts is walkBranch for case/comm clause bodies.
func (s *lgState) walkBranchStmts(body []ast.Stmt) {
	saved := make(map[string]bool, len(s.held))
	for k, v := range s.held {
		saved[k] = v
	}
	s.walkStmts(body)
	s.held = saved
}

// lockOp reports whether call is <x>.<lock>.Lock/RLock/Unlock/RUnlock on a
// sync.Mutex/sync.RWMutex or on one of the obs package's instrumented
// drop-ins (obs.TrackedMutex/TrackedRWMutex); acquires is true for
// Lock/RLock.
func (s *lgState) lockOp(call *ast.CallExpr) (lock string, isLock, acquires bool) {
	recv, method, ok := lockCall(s.pass.Info(), call)
	if !ok {
		return "", false, false
	}
	// The lock's name: the final selector or ident of the receiver expr.
	switch recv := recv.(type) {
	case *ast.SelectorExpr:
		lock = recv.Sel.Name
	case *ast.Ident:
		lock = recv.Name
	default:
		return "", false, false
	}
	return lock, true, lockMethodName[method]
}

// lockCall reports whether call is a Lock/RLock/Unlock/RUnlock method call
// on a lock-provider type (sync.Mutex/RWMutex or the obs tracked drop-ins),
// returning the receiver expression — the lock itself — and the method
// name. Shared by lockguard, aliasguard, and lockorder, so the three
// analyzers agree on what counts as a lock operation.
func lockCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	method = sel.Sel.Name
	if !lockMethodName[method] && !unlockMethods[method] {
		return nil, "", false
	}
	obj, isFunc := info.Uses[sel.Sel].(*types.Func)
	if !isFunc || obj.Pkg() == nil || !lockProviderPkg(obj.Pkg().Path()) {
		return nil, "", false
	}
	return sel.X, method, true
}

// lockProviderPkg reports whether a package declares lock types whose
// Lock/RLock/Unlock/RUnlock methods count as lock operations: the
// standard library's sync, and the obs package's tracked drop-ins.
func lockProviderPkg(path string) bool {
	return path == "sync" || strings.HasSuffix(path, "internal/obs")
}

// heldFor reports whether the lock guarding a field is held here.
func (s *lgState) heldFor(lock string) bool {
	return s.entryHeld || s.held[lock]
}

// checkExpr inspects an expression subtree for guarded-field accesses and
// guarded-callback invocations under the current lock state.
func (s *lgState) checkExpr(expr ast.Expr) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			s.checkCallbackCall(n)
		case *ast.SelectorExpr:
			if v, lock, ok := s.guardedField(n); ok && !s.heldFor(lock) {
				key := s.fn.Name.Name + "." + v.Name()
				if !s.reported[key] {
					s.reported[key] = true
					s.pass.Reportf(n.Sel.Pos(), "%s accesses %s (guarded by %s) without holding %s",
						funcDisplayName(s.fn), v.Name(), lock, lock)
				}
			}
		}
		return true
	})
}

// guardedField resolves a selector to a guarded struct field.
func (s *lgState) guardedField(sel *ast.SelectorExpr) (*types.Var, string, bool) {
	selection, ok := s.pass.Info().Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil, "", false
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok {
		return nil, "", false
	}
	lock, ok := s.guarded[v]
	return v, lock, ok
}

// checkCallbackCall flags dynamic calls of values that came out of a
// guarded field while the guarding lock is held.
func (s *lgState) checkCallbackCall(call *ast.CallExpr) {
	var field string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := s.pass.Info().Uses[fun]
		if obj == nil {
			return
		}
		field = s.tainted[obj]
	default:
		if v, lock, ok := s.rootGuardedField(call.Fun); ok && isCallbackType(s.pass.Info().TypeOf(call.Fun)) {
			_ = lock
			field = v.Name()
		}
	}
	if field == "" {
		return
	}
	lock := ""
	for v, l := range s.guarded {
		if v.Name() == field {
			lock = l
			break
		}
	}
	if lock == "" || !s.heldFor(lock) {
		return
	}
	s.pass.Reportf(call.Pos(), "%s invokes a callback from guarded field %s while %s is held; snapshot under the lock and deliver after unlocking",
		funcDisplayName(s.fn), field, lock)
}

// rootGuardedField unwraps index/paren expressions to find a guarded-field
// selector at the root of expr.
func (s *lgState) rootGuardedField(expr ast.Expr) (*types.Var, string, bool) {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			return s.guardedField(e)
		default:
			return nil, "", false
		}
	}
}

// recordTaintRange taints `for _, v := range x.guardedField` value idents
// of callback type.
func (s *lgState) recordTaintRange(st *ast.RangeStmt) {
	v, _, ok := s.rootGuardedField(st.X)
	if !ok {
		return
	}
	val, ok := st.Value.(*ast.Ident)
	if !ok || val.Name == "_" {
		return
	}
	obj := s.pass.Info().Defs[val]
	if obj == nil {
		obj = s.pass.Info().Uses[val]
	}
	if obj != nil && isCallbackType(obj.Type()) {
		s.tainted[obj] = v.Name()
	}
}

// recordTaintAssign taints `cb := x.guardedField[...]` style assignments.
func (s *lgState) recordTaintAssign(st *ast.AssignStmt) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, lhs := range st.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		v, _, ok := s.rootGuardedField(st.Rhs[i])
		if !ok {
			continue
		}
		obj := s.pass.Info().Defs[id]
		if obj == nil {
			obj = s.pass.Info().Uses[id]
		}
		if obj != nil && isCallbackType(obj.Type()) {
			s.tainted[obj] = v.Name()
		}
	}
}

// isCallbackType reports whether t is (or names) a function type.
func isCallbackType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// funcDisplayName renders Type.Method or Func for diagnostics.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		if id, ok := idx.X.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

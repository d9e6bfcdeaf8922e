package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// TraceCtx enforces the span-lifecycle conventions of the causal-tracing
// layer (docs/OBSERVABILITY.md): a span handed out by obs.StartCtx records
// nothing until it is finished, so losing the handle silently drops the
// span — and every child started under the lost span's context still
// records, leaving a hole in the middle of the trace tree.
//
//  1. The span result of obs.StartCtx must not be discarded (assigned to
//     `_`, or the call used as a bare statement).
//  2. The span must be finished in a defer — `defer sp.Finish()`,
//     `defer sp.FinishErr(err)`, or a deferred func literal that calls
//     one of Finish, FinishErr and FinishDur (which takes a duration the
//     caller measured) — so early returns and panics record too. A span that
//     escapes the function (returned, passed to a call, stored in a
//     struct) is the caller's to finish and is exempt.
//  3. A span finished only by a plain (non-deferred) call is reported:
//     every return path before the call skips the record.
//
// The obs package itself (the implementation) is exempt, matching
// metricnames.
var TraceCtx = &Analyzer{
	Name: "tracectx",
	Doc: "spans from obs.StartCtx must be finished in a defer (or escape to " +
		"the caller), never discarded",
	Run: runTraceCtxPass,
}

// isStartCtxFunc reports whether fn is the obs StartCtx entry point — the
// package function or the Tracer method, keyed off the import-path suffix
// like the other obs-aware analyzers.
func isStartCtxFunc(fn *types.Func) bool {
	return fn != nil && fn.Name() == "StartCtx" &&
		fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/obs")
}

// spanFinishers are the Span methods that finish (record) a span.
var spanFinishers = map[string]bool{"Finish": true, "FinishErr": true, "FinishDur": true}

// spanState tracks one span variable born from obs.StartCtx.
type spanState struct {
	name    string
	pos     ast.Node // the StartCtx call, for reporting
	defers  bool     // finished inside a defer
	direct  bool     // finished by a plain call
	escapes bool     // leaves the function: the caller finishes it
}

func runTraceCtxPass(pass *Pass) error {
	if strings.HasSuffix(pass.Pkg.Path, "internal/obs") {
		return nil
	}
	info := pass.Info()
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpanLifecycles(pass, info, fd.Body)
		}
	}
	return nil
}

// checkSpanLifecycles runs the three rules over one function body.
// Function literals are checked as part of the enclosing body: a span
// started inside a literal and finished there resolves the same way.
func checkSpanLifecycles(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	// Pass 1: find StartCtx call sites and the span objects they define.
	spans := map[types.Object]*spanState{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isStartCtxFunc(calleeFunc(info, call)) {
				pass.Reportf(call.Pos(), "obs.StartCtx result discarded; the span is never finished and never records")
				return false
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isStartCtxFunc(calleeFunc(info, call)) {
					continue
				}
				// StartCtx returns (ctx, span); with a single call on the
				// RHS the span lands in the second LHS slot.
				if len(n.Rhs) != 1 || len(n.Lhs) != 2 {
					continue
				}
				id, ok := n.Lhs[1].(*ast.Ident)
				if !ok || id.Name == "_" {
					pass.Reportf(call.Pos(), "span from obs.StartCtx assigned to _; it is never finished and never records")
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					spans[obj] = &spanState{name: id.Name, pos: call}
				}
			}
		}
		return true
	})
	if len(spans) == 0 {
		return
	}

	// lookup resolves an expression to a tracked span, if any.
	lookup := func(e ast.Expr) *spanState {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		return spans[info.Uses[id]]
	}
	// finishCall resolves a call like sp.Finish(), sp.FinishErr(err) or
	// sp.FinishDur(d, err) to the span it finishes.
	finishCall := func(call *ast.CallExpr) *spanState {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !spanFinishers[sel.Sel.Name] {
			return nil
		}
		return lookup(sel.X)
	}

	// Pass 2: classify every use of each span. Deferred finishes are
	// marked first so pass 3 can treat the remaining finish calls as
	// plain ones.
	deferredFinishes := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if st := finishCall(d.Call); st != nil {
			st.defers = true
			deferredFinishes[d.Call] = true
			return true
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if st := finishCall(call); st != nil {
						st.defers = true
						deferredFinishes[call] = true
					}
				}
				return true
			})
		}
		return true
	})

	// Pass 3: plain finishes and escapes.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if st := finishCall(n); st != nil && !deferredFinishes[n] {
				st.direct = true
			}
			// A span passed as an argument escapes to the callee.
			for _, arg := range n.Args {
				if st := lookup(arg); st != nil {
					st.escapes = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if st := lookup(res); st != nil {
					st.escapes = true
				}
			}
		case *ast.AssignStmt:
			// Reassigning the span elsewhere (a field, another variable)
			// hands the lifecycle over.
			for _, rhs := range n.Rhs {
				if st := lookup(rhs); st != nil {
					st.escapes = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if st := lookup(e); st != nil {
					st.escapes = true
				}
			}
		}
		return true
	})

	for _, st := range spans {
		switch {
		case st.defers || st.escapes:
		case st.direct:
			pass.Reportf(st.pos.Pos(), "span %s is finished outside a defer; early returns skip the record — use defer %s.Finish() or defer a FinishErr closure",
				st.name, st.name)
		default:
			pass.Reportf(st.pos.Pos(), "span %s from obs.StartCtx is never finished; defer %s.Finish() (or FinishErr) so the span records",
				st.name, st.name)
		}
	}
}

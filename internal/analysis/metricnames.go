package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MetricNames keeps the /metrics name space in one place: every metric or
// health-check name that reaches an obs registration sink (obs.C, obs.H,
// obs.HSize, Registry.Counter/Histogram, HealthRegistry.Register/
// Unregister) must be built from constants declared in the obs package's
// name registry (internal/obs/names.go) — never from string literals or
// constants scattered through other packages. That is what lets
// docs/OBSERVABILITY.md enumerate the exported families without drifting
// from the code.
//
// Dynamic name parts (per-scheme, per-op families) are fine: the rule only
// rejects string *literals* and foreign *constants* inside the name
// argument, so `obs.H(fmt.Sprintf(obs.FmtMarkOpNS, op, scheme))` passes
// while `obs.H("mark." + op + ".ns")` does not.
var MetricNames = &Analyzer{
	Name: "metricnames",
	Doc: "metric and health-check names must come from the obs name registry " +
		"(internal/obs/names.go), not in-place string literals",
	Run: runMetricNames,
}

// metricNameSinks maps obs functions/methods to the index of their name
// argument. Keys follow the instrumentationSinks convention.
var metricNameSinks = map[string]int{
	"C":                       0,
	"H":                       0,
	"HSize":                   0,
	"G":                       0,
	"Registry.Counter":        0,
	"Registry.Histogram":      0,
	"Registry.Gauge":          0,
	"HealthRegistry.Register": 0,
	// Unregister must match Register, or checks become unremovable.
	"HealthRegistry.Unregister": 0,
	// Tracked locks expand their name into the lock.* metric families, so
	// the lock name itself must come from the registry.
	"NewTrackedMutex":   0,
	"NewTrackedRWMutex": 0,
}

func runMetricNames(pass *Pass) error {
	// The obs package itself declares the registry (and its own internal
	// plumbing); the rule binds everyone else.
	if strings.HasSuffix(pass.Pkg.Path, "internal/obs") {
		return nil
	}
	info := pass.Info()
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil || callee.Pkg() == nil ||
				!strings.HasSuffix(callee.Pkg().Path(), "internal/obs") {
				return true
			}
			argIdx, ok := metricNameSinks[sinkKey(callee)]
			if !ok || argIdx >= len(call.Args) {
				return true
			}
			checkMetricNameExpr(pass, callee, call.Args[argIdx])
			return true
		})
	}
	return nil
}

// sinkKey renders a *types.Func as "Type.Method" or a bare function name.
func sinkKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return fn.Name()
	}
	return named.Obj().Name() + "." + fn.Name()
}

// checkMetricNameExpr walks a name argument and reports literals and
// foreign constants, one finding per offending token.
func checkMetricNameExpr(pass *Pass, sink *types.Func, arg ast.Expr) {
	info := pass.Info()
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				pass.Reportf(n.Pos(), "metric/health name passed to obs.%s as string literal %s; use a constant from the obs name registry (internal/obs/names.go)",
					sink.Name(), n.Value)
			}
		case *ast.Ident:
			reportForeignConst(pass, n, info.Uses[n], sink)
		case *ast.SelectorExpr:
			reportForeignConst(pass, n.Sel, info.Uses[n.Sel], sink)
			return false // don't re-visit the Sel ident
		}
		return true
	})
}

// reportForeignConst flags string constants declared outside the obs
// package that flow into a name argument.
func reportForeignConst(pass *Pass, at *ast.Ident, obj types.Object, sink *types.Func) {
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil {
		return
	}
	basic, ok := c.Type().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return
	}
	if strings.HasSuffix(c.Pkg().Path(), "internal/obs") {
		return
	}
	pass.Reportf(at.Pos(), "metric/health name constant %s (declared in %s) passed to obs.%s; name constants belong in the obs name registry (internal/obs/names.go)",
		c.Name(), c.Pkg().Name(), sink.Name())
}

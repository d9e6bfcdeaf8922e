package analysis

// This file is the declared-instrumentation registry the obscoverage
// analyzer keys off: which packages owe instrumentation, which verbs make
// an exported op "mutating", how deep the helper search goes, and which obs
// entry points count as actually recording something. Extending the
// observability layer (new recording helpers) or the instrumented surface
// (new layers) means extending these tables — the analyzer itself does not
// change.

// ObsCoverageTargets are the packages whose exported mutating ops must be
// instrumented: the three store layers the paper's DMI contract spans.
// Exported so the fixture tests can temporarily enroll a test package.
var ObsCoverageTargets = map[string]bool{
	"repro/internal/trim": true,
	"repro/internal/mark": true,
	"repro/internal/slim": true,
}

// mutatingVerbs are the leading verbs that mark an exported op as mutating
// (matched at an upper-case word boundary: SetUnique yes, Settings no).
var mutatingVerbs = []string{
	"Create", "Remove", "Delete",
	"Add", "Put", "Store",
	"Set", "Update", "Replace", "Clear",
	"Register", "Unregister",
	"Apply", "Save", "Load", "Refresh",
}

// obsCoverageDepth bounds the transitive search through same-package
// helpers (op → markOpDone → obs.H(...).Observe is depth 2).
const obsCoverageDepth = 4

// instrumentationSinks are the obs entry points that count as recording a
// metric or span. Keys are "Type.Method" for methods and the bare name for
// functions, all in the package whose import path ends in "internal/obs".
var instrumentationSinks = map[string]bool{
	// Counters.
	"Counter.Inc": true,
	"Counter.Add": true,
	// Histograms.
	"Histogram.Observe":      true,
	"Histogram.ObserveSince": true,
	// Gauges.
	"Gauge.Set": true,
	"Gauge.Add": true,
	// Spans / tracing. StartCtx counts because the span it opens records
	// on finish, and tracectx separately guarantees the finish happens.
	"Trace":           true,
	"StartCtx":        true,
	"Tracer.StartCtx": true,
	"Span.Finish":     true,
	"Span.FinishErr":  true,
	// Workload analytics: an exact query-shape count.
	"ShapeCount.Record": true,
}

// slimload is the concurrency scoreboard: a closed-loop workload
// generator that replays a configurable mix of TRIM and mark operations
// (create/select/view/path/resolve) against a fresh store at increasing
// goroutine counts, and reports throughput and latency quantiles per op
// class at each level. Its purpose is to make the scaling behaviour of
// the single store lock *measurable before* the sharding work starts:
// the same run that prints ops/s also leaves wait/hold distributions in
// the lock.* metric families and /debug/contention.
//
// Usage (see `make bench-scale`):
//
//	slimload -duration 2s -goroutines 1,4,16,64 -out BENCH_scale.json
//
// The JSON output is a benchfmt snapshot (one benchmark per op class per
// goroutine level, plus an "all" row per level), so cmd/benchdiff can
// compare scaling curves across commits exactly like the micro-bench
// lane.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/clinical"
	"repro/internal/metamodel"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/trim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slimload:", err)
		os.Exit(1)
	}
	if s := obs.ActiveServer(); s != nil {
		fmt.Fprintf(os.Stderr, "slimload: serving diagnostics at %s (interrupt to exit)\n", s.URL())
		obs.AwaitInterrupt(context.Background())
		s.Close()
	}
}

// Op classes in the workload mix. create is the only writer; the rest
// exercise the store and mark-manager read paths.
const (
	opCreate = iota
	opSelect
	opView
	opPath
	opResolve
	numClasses
)

var classNames = [numClasses]string{"create", "select", "view", "path", "resolve"}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slimload", flag.ContinueOnError)
	duration := fs.Duration("duration", 2*time.Second, "run `dur` per goroutine level")
	levelsFlag := fs.String("goroutines", "1,4,16,64", "comma-separated goroutine counts to sweep")
	mixFlag := fs.String("mix", "create=30,select=25,view=15,path=15,resolve=15",
		"op mix as class=weight pairs (classes: create,select,view,path,resolve)")
	preload := fs.Int("preload", 64, "bundles preloaded into each level's store")
	patients := fs.Int("patients", 8, "clinical patients behind the mark workload")
	seed := fs.Int64("seed", 1, "deterministic world/op-pick seed")
	backend := fs.String("backend", "", "durability backend under load: "+strings.Join(trim.BackendKinds(), "|")+" (default in-memory)")
	dir := fs.String("dir", "", "backend state directory (default a temp dir)")
	label := fs.String("label", "scale", "snapshot label for the JSON output")
	outFile := fs.String("out", "", "write the benchfmt snapshot to `file` (default BENCH_<label>.json; \"-\" for stdout)")
	var cli obs.CLI
	cli.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	levels, err := parseLevels(*levelsFlag)
	if err != nil {
		return err
	}
	weights, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	if err := cli.Start(); err != nil {
		return err
	}
	// Sample the runtime during the sweep even without -serve, so the
	// runtime.* sched/GC families cover the loaded interval; with -serve
	// the CLI has already started the sampler.
	if cli.Serve == "" {
		obs.DefaultSampler.Start()
		defer obs.DefaultSampler.Stop()
	}
	stateDir := *dir
	if *backend != "" && stateDir == "" {
		tmp, err := os.MkdirTemp("", "slimload-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		stateDir = tmp
	}

	var benches []benchfmt.Benchmark
	for _, g := range levels {
		res, err := runLevel(levelConfig{
			goroutines: g,
			duration:   *duration,
			weights:    weights,
			preload:    *preload,
			patients:   *patients,
			seed:       *seed,
			backend:    *backend,
			dir:        stateDir,
		})
		if err != nil {
			return err
		}
		printLevel(out, res)
		benches = append(benches, res.benchmarks()...)
	}
	printLocks(out)
	if err := writeSnapshot(*outFile, *label, benches, out); err != nil {
		return err
	}
	return cli.Finish(out)
}

func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad goroutine count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-goroutines lists no levels")
	}
	return out, nil
}

func parseMix(s string) ([numClasses]int, error) {
	var w [numClasses]int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return w, fmt.Errorf("bad mix entry %q (want class=weight)", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return w, fmt.Errorf("bad mix weight %q", part)
		}
		idx := -1
		for i, cn := range classNames {
			if cn == name {
				idx = i
			}
		}
		if idx < 0 {
			return w, fmt.Errorf("unknown op class %q (have %s)", name, strings.Join(classNames[:], ","))
		}
		w[idx] = n
	}
	total := 0
	for _, n := range w {
		total += n
	}
	if total == 0 {
		return w, fmt.Errorf("op mix has zero total weight")
	}
	return w, nil
}

// levelConfig parameterizes one goroutine level of the sweep.
type levelConfig struct {
	goroutines int
	duration   time.Duration
	weights    [numClasses]int
	preload    int
	patients   int
	seed       int64
	backend    string
	dir        string
}

// world is the per-level workload fixture: a fresh TRIM store holding the
// bundle/scrap metamodel plus preloaded bundles, and a clinical
// environment whose mark manager serves the resolve class.
type world struct {
	store   *trim.Manager
	root    rdf.Term
	bundles []rdf.Term
	nested  rdf.Term
	marks   []string
	env     *clinical.Environment
	backend trim.Backend
}

func buildWorld(cfg levelConfig) (*world, error) {
	w := &world{
		store:  trim.NewManager(),
		nested: rdf.IRI(metamodel.ConnNestedBundle),
	}
	if err := metamodel.Encode(metamodel.BundleScrapModel(), w.store); err != nil {
		return nil, err
	}
	w.root = rdf.IRI(rdf.NSInst + fmt.Sprintf("slimload-root-g%d", cfg.goroutines))
	if _, err := w.store.Create(rdf.T(w.root, rdf.RDFType, rdf.IRI(metamodel.ConstructBundle))); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.preload; i++ {
		b := rdf.IRI(rdf.NSInst + fmt.Sprintf("slimload-g%d-pre-%d", cfg.goroutines, i))
		triples := []rdf.Triple{
			rdf.T(b, rdf.RDFType, rdf.IRI(metamodel.ConstructBundle)),
			rdf.T(b, rdf.IRI(metamodel.ConnBundleName), rdf.String(fmt.Sprintf("pre-%d", i))),
			rdf.T(w.root, w.nested, b),
		}
		for _, t := range triples {
			if _, err := w.store.Create(t); err != nil {
				return nil, err
			}
		}
		w.bundles = append(w.bundles, b)
	}
	env, err := clinical.NewEnvironment(cfg.seed, cfg.patients)
	if err != nil {
		return nil, err
	}
	w.env = env
	for _, p := range env.Patients {
		if err := env.SelectMed(p, 0); err != nil {
			return nil, err
		}
		m, err := env.Marks.CreateFromSelection("spreadsheet")
		if err != nil {
			return nil, err
		}
		w.marks = append(w.marks, m.ID)
		if err := env.SelectLab(p, "Na"); err != nil {
			return nil, err
		}
		m, err = env.Marks.CreateFromSelection("xml")
		if err != nil {
			return nil, err
		}
		w.marks = append(w.marks, m.ID)
	}
	if cfg.backend != "" {
		path := filepath.Join(cfg.dir, fmt.Sprintf("slimload-g%d.%s", cfg.goroutines, cfg.backend))
		b, err := trim.OpenBackend(cfg.backend, w.store, path)
		if err != nil {
			return nil, err
		}
		w.backend = b
	}
	return w, nil
}

// levelResult aggregates the merged per-class latency histograms for one
// goroutine level.
type levelResult struct {
	goroutines int
	elapsed    time.Duration
	classes    [numClasses]classResult
	errs       int64
}

type classResult struct {
	hist latHist
}

func runLevel(cfg levelConfig) (levelResult, error) {
	w, err := buildWorld(cfg)
	if err != nil {
		return levelResult{}, err
	}
	res := levelResult{goroutines: cfg.goroutines}

	// With a durability backend under load, a committer goroutine turns
	// captured mutations into fsynced commits while the workers run —
	// durability cost lands inside the measured window, as in production.
	var commitStop chan struct{}
	var commitDone chan struct{}
	if w.backend != nil {
		commitStop = make(chan struct{})
		commitDone = make(chan struct{})
		go func() {
			defer close(commitDone)
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-commitStop:
					return
				case <-tick.C:
					_ = w.backend.Save()
				}
			}
		}()
	}

	cum := cumulative(cfg.weights)
	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	workers := make([]*worker, cfg.goroutines)
	for i := 0; i < cfg.goroutines; i++ {
		workers[i] = newWorker(i, cfg, w, cum)
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.loop(deadline)
		}(workers[i])
	}
	wg.Wait()
	res.elapsed = time.Since(start)

	if w.backend != nil {
		close(commitStop)
		<-commitDone
		if err := w.backend.Save(); err != nil {
			return res, err
		}
		if err := w.backend.Close(); err != nil {
			return res, err
		}
	}
	for _, wk := range workers {
		for c := 0; c < numClasses; c++ {
			res.classes[c].hist.merge(&wk.hists[c])
		}
		res.errs += wk.errs
	}
	return res, nil
}

func cumulative(w [numClasses]int) [numClasses]int {
	var cum [numClasses]int
	total := 0
	for i, n := range w {
		total += n
		cum[i] = total
	}
	return cum
}

// worker is one closed-loop load goroutine with its own RNG and local
// latency histograms; nothing is shared during the run, so recording an
// op costs two array writes.
type worker struct {
	id    int
	w     *world
	rng   *rand.Rand
	cum   [numClasses]int
	total int
	hists [numClasses]latHist
	errs  int64
	seq   int
}

func newWorker(id int, cfg levelConfig, w *world, cum [numClasses]int) *worker {
	return &worker{
		id:    id,
		w:     w,
		rng:   rand.New(rand.NewSource(cfg.seed + int64(id)*7919)),
		cum:   cum,
		total: cum[numClasses-1],
	}
}

func (wk *worker) loop(deadline time.Time) {
	for time.Now().Before(deadline) {
		class := wk.pick()
		t0 := time.Now()
		err := wk.do(class)
		d := time.Since(t0)
		wk.hists[class].observe(d.Nanoseconds())
		if err != nil {
			wk.errs++
		}
	}
}

func (wk *worker) pick() int {
	r := wk.rng.Intn(wk.total)
	for i, c := range wk.cum {
		if r < c {
			return i
		}
	}
	return numClasses - 1
}

func (wk *worker) do(class int) error {
	w := wk.w
	switch class {
	case opCreate:
		wk.seq++
		b := rdf.IRI(rdf.NSInst + fmt.Sprintf("slimload-w%d-%d", wk.id, wk.seq))
		parent := w.bundles[wk.rng.Intn(len(w.bundles))]
		for _, t := range []rdf.Triple{
			rdf.T(b, rdf.RDFType, rdf.IRI(metamodel.ConstructBundle)),
			rdf.T(b, rdf.IRI(metamodel.ConnBundleName), rdf.String(fmt.Sprintf("w%d-%d", wk.id, wk.seq))),
			rdf.T(parent, w.nested, b),
		} {
			if _, err := w.store.Create(t); err != nil {
				return err
			}
		}
	case opSelect:
		b := w.bundles[wk.rng.Intn(len(w.bundles))]
		w.store.Select(rdf.P(b, rdf.Zero, rdf.Zero))
	case opView:
		b := w.bundles[wk.rng.Intn(len(w.bundles))]
		w.store.View(b)
	case opPath:
		w.store.Path([]rdf.Term{w.root}, w.nested)
	case opResolve:
		id := w.marks[wk.rng.Intn(len(w.marks))]
		if _, err := w.env.Marks.Resolve(id); err != nil {
			return err
		}
	}
	return nil
}

// latHist is a fixed geometric-ladder latency histogram (factor 1.25 from
// 100ns to >10s, ~85 buckets): constant memory per worker regardless of
// op count, with quantile error bounded by the bucket ratio.
type latHist struct {
	counts [numLatBuckets]int64
	n      int64
	sumNS  int64
	maxNS  int64
}

var latBounds = buildLatBounds()

const numLatBuckets = 84

func buildLatBounds() []int64 {
	var bounds []int64
	for v := float64(100); v < 10e9; v *= 1.25 {
		bounds = append(bounds, int64(v))
	}
	// One overflow bucket past the last bound.
	if len(bounds)+1 != numLatBuckets {
		panic(fmt.Sprintf("latency ladder has %d buckets, want %d", len(bounds)+1, numLatBuckets))
	}
	return bounds
}

func (h *latHist) observe(ns int64) {
	i := sort.Search(len(latBounds), func(i int) bool { return ns <= latBounds[i] })
	h.counts[i]++
	h.n++
	h.sumNS += ns
	if ns > h.maxNS {
		h.maxNS = ns
	}
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumNS += o.sumNS
	if o.maxNS > h.maxNS {
		h.maxNS = o.maxNS
	}
}

// quantile returns the upper bound of the bucket holding the q-th sample
// (conservative: true quantile is at most 25% lower).
func (h *latHist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			if i < len(latBounds) {
				return latBounds[i]
			}
			return h.maxNS
		}
	}
	return h.maxNS
}

func (h *latHist) meanNS() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sumNS) / float64(h.n)
}

func (r levelResult) totalOps() int64 {
	var n int64
	for _, c := range r.classes {
		n += c.hist.n
	}
	return n
}

// benchmarks renders the level as benchfmt rows: one per op class that
// ran, plus an "all" row carrying the level's aggregate throughput.
func (r levelResult) benchmarks() []benchfmt.Benchmark {
	secs := r.elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	var out []benchfmt.Benchmark
	for c := 0; c < numClasses; c++ {
		h := &r.classes[c].hist
		if h.n == 0 {
			continue
		}
		out = append(out, benchfmt.Benchmark{
			Name:       fmt.Sprintf("Slimload/%s/g%d", classNames[c], r.goroutines),
			Package:    "repro/cmd/slimload",
			Iterations: h.n,
			NsPerOp:    h.meanNS(),
			Metrics: map[string]float64{
				"ops/s":  float64(h.n) / secs,
				"p50-ns": float64(h.quantile(0.50)),
				"p95-ns": float64(h.quantile(0.95)),
				"p99-ns": float64(h.quantile(0.99)),
			},
		})
	}
	total := r.totalOps()
	var all latHist
	for c := range r.classes {
		all.merge(&r.classes[c].hist)
	}
	out = append(out, benchfmt.Benchmark{
		Name:       fmt.Sprintf("Slimload/all/g%d", r.goroutines),
		Package:    "repro/cmd/slimload",
		Iterations: total,
		NsPerOp:    all.meanNS(),
		Metrics: map[string]float64{
			"ops/s":  float64(total) / secs,
			"p50-ns": float64(all.quantile(0.50)),
			"p95-ns": float64(all.quantile(0.95)),
			"p99-ns": float64(all.quantile(0.99)),
		},
	})
	return out
}

func printLevel(out io.Writer, r levelResult) {
	fmt.Fprintf(out, "== %d goroutine(s), %s ==\n", r.goroutines, r.elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "%-9s %10s %12s %10s %10s %10s %10s\n",
		"class", "ops", "ops/s", "mean", "p50", "p95", "p99")
	secs := r.elapsed.Seconds()
	row := func(name string, h *latHist) {
		fmt.Fprintf(out, "%-9s %10d %12.0f %10s %10s %10s %10s\n",
			name, h.n, float64(h.n)/secs,
			time.Duration(h.meanNS()).Round(time.Microsecond),
			time.Duration(h.quantile(0.50)).Round(time.Microsecond),
			time.Duration(h.quantile(0.95)).Round(time.Microsecond),
			time.Duration(h.quantile(0.99)).Round(time.Microsecond))
	}
	var all latHist
	for c := 0; c < numClasses; c++ {
		h := &r.classes[c].hist
		if h.n > 0 {
			row(classNames[c], h)
		}
		all.merge(h)
	}
	row("all", &all)
	if r.errs > 0 {
		fmt.Fprintf(out, "!! %d op error(s)\n", r.errs)
	}
	fmt.Fprintln(out)
}

func printLocks(out io.Writer) {
	profiles := obs.LockProfiles()
	if len(profiles) == 0 {
		return
	}
	fmt.Fprintln(out, "lock contention (cumulative across levels):")
	mode := func(name, m string, s obs.LockModeStats) {
		if s.Total == 0 {
			return
		}
		fmt.Fprintf(out, "  %-14s %s: total=%d contended=%d wait p95=%s p99=%s  hold p95=%s\n",
			name, m, s.Total, s.Contended,
			time.Duration(s.WaitP95NS).Round(time.Microsecond),
			time.Duration(s.WaitP99NS).Round(time.Microsecond),
			time.Duration(s.HoldP95NS).Round(time.Microsecond))
	}
	for _, p := range profiles {
		mode(p.Name, "w", p.Write)
		if p.Read != nil {
			mode(p.Name, "r", *p.Read)
		}
	}
	fmt.Fprintln(out)
}

func writeSnapshot(path, label string, benches []benchfmt.Benchmark, out io.Writer) error {
	snap := benchfmt.Snapshot{
		Label:         label,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GeneratedUnix: time.Now().Unix(),
		Benchmarks:    benches,
	}
	if path == "" {
		path = "BENCH_" + label + ".json"
	}
	if path == "-" {
		return obs.EncodeJSON(out, snap)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.EncodeJSON(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d benchmark row(s)\n", path, len(benches))
	return nil
}

// slimbench is the repository's end-to-end benchmark: it drives SLIMPad
// user actions (read a bundle, find scraps, move, clip, delete and rename
// scraps, open and peek at a scrap's base element, save through the WAL)
// through the public API in closed-loop workloads, checks every answer,
// and prints the end-to-end metrics. With -trace 1 it instead reports
// per-layer metrics from a traced window and writes the spans as Chrome
// trace events.
//
// Usage, from the repository root (the benchmark is its own module):
//
//	bash cmd/slimbench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the JSON result. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

// warmup runs before every measured window so caches fill and the first
// mints after a load (NewID probes past loaded instances) are not timed.
const warmup = 2 * time.Second

// Cold opens for setup_s: at least minOpens, and more until openBudget of
// open time is spent, so small pads get enough opens for a steady median.
const (
	minOpens   = 3
	maxOpens   = 40
	openBudget = 3 * time.Second
)

// windowSlice is the length of the slices a window is run in. An untraced
// window samples the host probe after each slice. A traced window
// alternates recording and non-recording slices, which puts both halves
// under the same host conditions, so their rates give the tracing
// overhead.
const windowSlice = time.Second

// workDir holds each run's pad files and the trace files, relative to the
// directory the benchmark runs in; the build script keeps its cache there
// too.
const workDir = ".bench_build"

type config struct {
	seed   int64
	window time.Duration
	warmup time.Duration
	// openBudget is the cold-open time after which setup_s stops opening
	// (after at least minOpens opens).
	openBudget time.Duration
	trace      bool
	slice      time.Duration // windowSlice
	workDir    string        // pad files, and trace files under trace/
}

type metric struct {
	name  string
	value float64
	unit  string
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: browse, edit, revisit, journal, or all")
	seed := fs.Int64("seed", 1, "seed for the pads and the action sequence")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced window instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var defs []workloadDef
	if *name == "all" {
		defs = workloads
	} else if wl, ok := workloadByName(*name); ok {
		defs = []workloadDef{wl}
	} else {
		fmt.Fprintf(stderr, "slimbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "slimbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	cfg := config{
		seed:       *seed,
		window:     time.Duration(*seconds) * time.Second,
		warmup:     warmup,
		openBudget: openBudget,
		trace:      *trace == 1,
		slice:      windowSlice,
		workDir:    workDir,
	}
	code := 0
	for _, wl := range defs {
		res, err := runWorkload(cfg, wl, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "slimbench: %s: %v\n", wl.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "slimbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// run is one workload run's outcome before it is rendered.
type run struct {
	wl       workloadDef
	w        *world
	probe    *hostProbe
	setups   []float64 // seconds per cold open
	heaps    []float64 // live heap bytes per triple per cold open
	loads    []float64 // trim.load.ns per cold open, seconds
	replays  []float64 // trim.wal.replay.ns per cold open, seconds
	triples  int
	problems []string
	// Host probe rates taken beside the cold opens and between the slices
	// of the untraced window.
	setupRates, windowRates []float64
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runWorkload builds the workload's pad, cold-opens it several times for
// setup_s, then runs the warm-up and the measured window on the last open
// and checks the pad. With tracing it instead reopens the pad through the
// tracing decorators and runs a traced window.
func runWorkload(cfg config, wl workloadDef, out io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := buildWorld(dir, cfg.seed, wl.pad)
	if err != nil {
		return nil, err
	}
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	r := &run{wl: wl, w: w, probe: probe}
	sess, err := r.coldOpens(cfg.openBudget)
	if err != nil {
		return nil, err
	}
	r.triples = sess.app.DMI().Store().Trim().Len()
	printHeader(out, cfg, r)

	var ms []metric
	var clients []*client
	if cfg.trace {
		if err := sess.close(); err != nil {
			return nil, err
		}
		if ms, clients, err = r.traced(cfg, out); err != nil {
			return nil, err
		}
	} else {
		var st *padState
		clients, st = makeClients(wl, w, sess, cfg.seed, nil)
		elapsed, d, err := r.measure(cfg, clients, st)
		if err != nil {
			return nil, err
		}
		if err := checkPad(st); err != nil {
			r.problem("%v", err)
		}
		if err := sess.close(); err != nil {
			r.problem("closing the pad: %v", err)
		}
		printClasses(out, "window", clients, elapsed)
		fmt.Fprintf(out, "window probe: median %.0f steps/s over %d samples; window times are scaled by %.4f\n",
			median(r.windowRates), len(r.windowRates), hostFactor(r.windowRates))
		ms = endToEnd(r, wl, clients, elapsed, d)
	}

	res := &result{Metrics: map[string]valueUnit{}}
	for _, c := range clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		r.problems = append(r.problems, c.errs...)
	}
	fmt.Fprintln(out, "metrics:")
	for _, m := range ms {
		res.Metrics[m.name] = valueUnit{Value: m.value, Unit: m.unit}
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	res.Correct = len(r.problems) == 0 && res.Attempted > 0
	for _, p := range r.problems {
		fmt.Fprintln(out, "FAIL:", p)
	}
	return res, nil
}

// coldOpens opens the pad repeatedly, recording setup time, live heap per
// triple and the load/replay time the registry saw, with a host probe
// sample before and after each open, and returns the last session for the
// run.
func (r *run) coldOpens(budget time.Duration) (*session, error) {
	var sess *session
	var spent time.Duration
	for i := 0; i < maxOpens && (i < minOpens || spent < budget); i++ {
		if sess != nil {
			if err := sess.close(); err != nil {
				return nil, err
			}
			sess = nil
		}
		r.setupRates = append(r.setupRates, r.probe.rate())
		before, err := takeSnap()
		if err != nil {
			return nil, err
		}
		if sess, err = r.w.open(identityApp, identityBackend); err != nil {
			return nil, err
		}
		after, err := takeSnap()
		if err != nil {
			return nil, err
		}
		var d delta
		d.add(before, after)
		spent += sess.setup
		r.setups = append(r.setups, sess.setup.Seconds())
		r.heaps = append(r.heaps, sess.heapPerTriple)
		r.loads = append(r.loads, d.histSum(obs.NameTrimLoadNS)/1e9)
		r.replays = append(r.replays, d.histSum(obs.NameTrimWALReplayNS)/1e9)
		r.setupRates = append(r.setupRates, r.probe.rate())
	}
	return sess, nil
}

// bundleRange is the share of n bundles client i of the workload uses.
func (wl workloadDef) bundleRange(i, n int) (lo, hi int) {
	if !wl.split {
		return 0, n
	}
	return i * n / len(wl.mixes), (i + 1) * n / len(wl.mixes)
}

func makeClients(wl workloadDef, w *world, sess *session, seed int64, spans *spanBuf) ([]*client, *padState) {
	_, writerHi := wl.bundleRange(0, len(w.bundles))
	st := newPadState(w, sess, writerHi)
	var out []*client
	for i, mix := range wl.mixes {
		lo, hi := wl.bundleRange(i, len(w.bundles))
		act := &padActor{
			st:    st,
			rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
			lo:    lo,
			hi:    hi,
			spans: spans,
		}
		save := i < len(wl.saveAfterWrite) && wl.saveAfterWrite[i]
		c := newClient(i, act, seed*7919+int64(i), mix, save)
		c.spans = spans
		out = append(out, c)
	}
	return out, st
}

// warm runs the warm-up, then clears the counters and collects garbage so
// the window starts from the same state every run. It returns the number
// of actions the warm-up ran.
func warm(clients []*client, st *padState, d time.Duration) int64 {
	runClients(clients, d)
	n := attempted(clients)
	for _, c := range clients {
		c.reset()
	}
	st.trimInSave = 0
	runtime.GC()
	return n
}

// measure runs the warm-up and then the measured window in slices with a
// host probe sample after each, and returns the time the slices took and
// what the registry and runtime counted over the window.
func (r *run) measure(cfg config, clients []*client, st *padState) (time.Duration, *delta, error) {
	warm(clients, st, cfg.warmup)
	a, err := takeSnap()
	if err != nil {
		return 0, nil, err
	}
	var elapsed time.Duration
	for elapsed < cfg.window {
		elapsed += runClients(clients, min(cfg.slice, cfg.window-elapsed))
		r.windowRates = append(r.windowRates, r.probe.rate())
	}
	b, err := takeSnap()
	if err != nil {
		return 0, nil, err
	}
	var d delta
	d.add(a, b)
	return elapsed, &d, nil
}

// merged combines one action kind's recorders across clients.
func merged(clients []*client, k kind) *recorder {
	var r recorder
	for _, c := range clients {
		r.merge(&c.rec[k])
	}
	return &r
}

func attempted(clients []*client) int64 {
	var n int64
	for _, c := range clients {
		n += c.attempted
	}
	return n
}

// endToEnd computes the untraced run's metrics, in BENCHMARK.json order.
// Times are scaled to the reference memory speed by the factor of the
// probe rates taken beside them.
func endToEnd(r *run, wl workloadDef, clients []*client, elapsed time.Duration, d *delta) []metric {
	ops := float64(attempted(clients))
	primary, secondary := merged(clients, wl.primary), merged(clients, wl.secondary)
	host := hostFactor(r.windowRates)
	us := host / 1e3
	return []metric{
		{"ops_per_s", ops / elapsed.Seconds() / host, "1/s"},
		{"primary_p50_us", primary.quantile(0.50) * us, "us"},
		{"primary_p90_us", primary.quantile(0.90) * us, "us"},
		{"secondary_p50_us", secondary.quantile(0.50) * us, "us"},
		{"allocs_per_op", float64(d.mallocs) / ops, "allocs/op"},
		{"heap_bytes_per_triple", median(r.heaps), "B/triple"},
		{"setup_s", median(r.setups) * hostFactor(r.setupRates), "s"},
	}
}

// traced opens the pad through the tracing decorators and runs the window
// as alternating slices with span recording on and off. Per-layer metrics
// come from the recording slices; the rate of the other slices is the
// untraced rate the tracing overhead is measured against. It writes the
// trace file, prints the self-time table and returns the metrics.
func (r *run) traced(cfg config, out io.Writer) ([]metric, []*client, error) {
	// A provisional buffer lets the decorators be built; it is replaced
	// by one sized from the warm-up rate before the window.
	buf := newSpanBuf(0)
	sess, err := r.w.open(buf.traceApp, buf.traceBackend)
	if err != nil {
		return nil, nil, err
	}
	clients, st := makeClients(r.wl, r.w, sess, cfg.seed, buf)
	rate := float64(warm(clients, st, cfg.warmup)) / cfg.warmup.Seconds()
	buf.allocate(spanCapacity(rate, cfg.window/2))

	var on delta
	var onTime, offTime time.Duration
	var onOps, offOps int64
	for i := 0; time.Duration(i)*cfg.slice < cfg.window; i++ {
		recording := i%2 == 0
		a, err := takeSnap()
		if err != nil {
			return nil, nil, err
		}
		before := attempted(clients)
		buf.record(recording)
		el := runClients(clients, cfg.slice)
		buf.record(false)
		b, err := takeSnap()
		if err != nil {
			return nil, nil, err
		}
		if recording {
			on.add(a, b)
			onTime += el
			onOps += attempted(clients) - before
		} else {
			offTime += el
			offOps += attempted(clients) - before
		}
	}
	if err := checkPad(st); err != nil {
		r.problem("traced window: %v", err)
	}
	if err := sess.close(); err != nil {
		r.problem("closing the traced pad: %v", err)
	}
	printClasses(out, "traced window (recording half the slices)", clients, onTime+offTime)

	tot := buf.totals()
	path := filepath.Join(cfg.workDir, "trace", r.wl.name+".trace.json")
	if err := buf.writeTrace(path, 2000); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "trace: %s (first 2000 actions of %d spans)\n", path, len(buf.recorded()))

	in := traceInput{
		spans:        tot,
		reg:          &on,
		trimInSave:   st.trimInSave,
		untracedRate: float64(offOps) / offTime.Seconds(),
		tracedRate:   float64(onOps) / onTime.Seconds(),
		loadS:        median(r.loads),
		replayS:      median(r.replays),
		setupS:       median(r.setups),
		split:        splitLayers(tot, &on, st.trimInSave),
	}
	printLayers(out, in)
	s := in.split
	if dev := math.Abs(ratio(s.selfSum(), s.action) - 1); dev > 0.10 || tot.orphans > 0 {
		r.problem("per-layer self times sum to %.3f of the action time with %d orphan spans; want within 10%% and none", ratio(s.selfSum(), s.action), tot.orphans)
	}
	return layerMetrics(in), clients, nil
}

// spanCapacity sizes the span buffer for the recording half of the traced
// window: an action has at most three spans of its own (clip: selection
// and extract; peek: extract and context). The buffer is capped at 64 MB;
// a recording slice that fills it ends early.
func spanCapacity(rate float64, recorded time.Duration) int {
	n := int(rate*recorded.Seconds()*4) + 4096
	if n > 2<<20 {
		n = 2 << 20
	}
	return n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuModel reads the processor name for the provenance line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

package obs

import (
	"flag"
	"io"
	"time"
)

// CLI bundles the standard observability flags the SLIM binaries share:
//
//	-metrics            print the Default registry (text form) after the run
//	-trace              dump the DefaultTracer ring buffer after the run
//	-profile FILE       write a CPU profile of the run to FILE
//	-serve ADDR         serve live diagnostics (/metrics, /healthz, /debug/*)
//	-slowops DUR        set the slow-op threshold of the tracer's slow ring
//	-contention DUR     obs.contention health threshold (p95 lock wait) under -serve
//	-mem-budget BYTES   obs.space health threshold (in-use heap) under -serve
//	-trace-sample RATE  probabilistic trace sampling rate (errors always kept)
//
// Usage: Bind onto the command's FlagSet, Start after parsing, and Finish
// once the command has run (Finish must run even when the command errors,
// so the profile file is complete). A -serve server outlives Finish; the
// binaries' main functions keep the process alive for scraping via
// ActiveServer + AwaitInterrupt, and tests close it through ActiveServer.
type CLI struct {
	Metrics     bool
	Trace       bool
	Profile     string
	Serve       string
	SlowOps     time.Duration
	TraceSample float64
	Contention  time.Duration
	MemBudget   int64

	stopProfile func() error
}

// Bind registers the observability flags on the flag set.
func (c *CLI) Bind(fs *flag.FlagSet) {
	fs.BoolVar(&c.Metrics, "metrics", false, "print the metrics registry after the run")
	fs.BoolVar(&c.Trace, "trace", false, "dump the recent-ops trace ring after the run")
	fs.StringVar(&c.Profile, "profile", "", "write a CPU profile of the run to `file`")
	fs.StringVar(&c.Serve, "serve", "", "serve live diagnostics on `addr` (e.g. :9090); the process stays up after the command until interrupted")
	fs.DurationVar(&c.SlowOps, "slowops", 0, "keep instrumented ops slower than `dur` in the slow ring (0 keeps the current threshold)")
	fs.Float64Var(&c.TraceSample, "trace-sample", 1, "record this fraction of trace roots (0..1; error spans are always kept)")
	fs.DurationVar(&c.Contention, "contention", DefaultContentionThreshold, "degrade /healthz when any tracked lock's p95 wait exceeds `dur` (with -serve)")
	fs.Int64Var(&c.MemBudget, "mem-budget", 0, "degrade /healthz when the in-use heap exceeds `bytes` (0 disables; with -serve)")
}

// Start begins CPU profiling when -profile was given, applies the -slowops
// threshold and -trace-sample rate, and — when -serve was given — starts
// the diagnostics server, the sampler, and the flight, contention, and
// space health probes (-mem-budget arms the space probe; without it
// obs.space always passes).
func (c *CLI) Start() error {
	if c.SlowOps > 0 {
		DefaultTracer.SetSlowThreshold(c.SlowOps)
	}
	if c.TraceSample != 1 {
		DefaultTracer.SetSampleRate(c.TraceSample)
	}
	if c.Serve != "" {
		if _, err := Serve(c.Serve, ServeConfig{}); err != nil {
			return err
		}
		DefaultSampler.Start()
		DefaultHealth.Register(HealthObsFlight, FlightCheck(DefaultSampler))
		DefaultHealth.Register(HealthObsContention, ContentionCheck(DefaultLocks, c.Contention))
		if c.MemBudget > 0 {
			SetMemBudget(c.MemBudget)
		}
		DefaultHealth.Register(HealthObsSpace, SpaceCheck())
	}
	if c.Profile == "" {
		return nil
	}
	stop, err := StartCPUProfile(c.Profile)
	if err != nil {
		return err
	}
	c.stopProfile = stop
	return nil
}

// Finish stops profiling and writes the requested reports to out. It
// returns the first error encountered but always attempts every step.
// The -serve server is left running; callers stop it via its Close (or
// the binaries' wait-for-interrupt path, which prints its URL on stderr).
// Nothing else goes to out, so a -json command's output stays one JSON
// document.
func (c *CLI) Finish(out io.Writer) error {
	var first error
	if c.stopProfile != nil {
		if err := c.stopProfile(); err != nil {
			first = err
		}
		c.stopProfile = nil
	}
	if c.Metrics {
		if err := Default.WriteText(out); err != nil && first == nil {
			first = err
		}
	}
	if c.Trace {
		if err := DefaultTracer.WriteText(out); err != nil && first == nil {
			first = err
		}
	}
	return first
}

package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// The diagnostics server makes the whole observability layer reachable
// from outside the process — the step from "dump metrics at exit" to a
// live store that scrapers, probes, and humans can interrogate while it
// serves traffic. It is plain net/http on a plain listener; every
// endpoint renders from the same process-wide defaults the -metrics and
// -trace flags print.
//
//	/metrics           Prometheus text exposition of the metric registry
//	/metrics.json      the same registry as JSON
//	/healthz           liveness checks (DefaultHealth); 503 when any fails
//	/readyz            readiness checks (DefaultReady); 503 when any fails
//	/debug/trace       JSON dump of the ring-buffered op tracer
//	/debug/traces      recent trace roots index (JSON)
//	/debug/trace/{id}  one trace reassembled as a tree (?perfetto=1 for
//	                   Chrome trace-event JSON)
//	/debug/flight      runtime flight recorder ring (JSON)
//	/debug/load        windowed 1m/5m rates and delta percentiles (JSON)
//	/debug/top         heavy-hitter query shapes, exact counts (JSON)
//	/debug/contention  tracked-lock wait/hold stats (JSON)
//	/debug/space       process memory classes + per-subsystem space reports
//	/debug/slowops     JSON dump of the slow-op journal
//	/debug/vars        expvar
//	/debug/pprof/      CPU, heap, goroutine, ... profiles (net/http/pprof)

// ServeConfig selects the sources a diagnostics server renders. Zero
// fields fall back to the process-wide defaults, so the zero value serves
// everything the binaries record.
type ServeConfig struct {
	Registry *Registry
	Tracer   *Tracer
	SlowOps  *SlowOpJournal
	Health   *HealthRegistry
	Ready    *HealthRegistry
	Flight   *FlightRecorder
	Window   *WindowSampler
	Top      *ShapeTable
	Locks    *LockTable
	Space    *SpaceSources
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Registry == nil {
		c.Registry = Default
	}
	if c.Tracer == nil {
		c.Tracer = DefaultTracer
	}
	if c.SlowOps == nil {
		c.SlowOps = DefaultSlowOps
	}
	if c.Health == nil {
		c.Health = DefaultHealth
	}
	if c.Ready == nil {
		c.Ready = DefaultReady
	}
	if c.Flight == nil {
		c.Flight = DefaultFlight
	}
	if c.Window == nil {
		c.Window = DefaultWindow
	}
	if c.Top == nil {
		c.Top = DefaultTopQueries
	}
	if c.Locks == nil {
		c.Locks = DefaultLocks
	}
	if c.Space == nil {
		c.Space = DefaultSpace
	}
	return c
}

// DiagServer is a running diagnostics server.
type DiagServer struct {
	lis net.Listener
	srv *http.Server
}

// Addr returns the server's bound address (useful with ":0").
func (s *DiagServer) Addr() string { return s.lis.Addr().String() }

// URL returns the server's base URL.
func (s *DiagServer) URL() string { return "http://" + s.Addr() }

// Close shuts the server down and releases the active-server slot when
// this server holds it.
func (s *DiagServer) Close() error {
	activeServer.CompareAndSwap(s, nil)
	return s.srv.Close()
}

// activeServer is the process's -serve server, if any; binaries consult it
// after their command completes to keep the process alive for scraping.
var activeServer atomic.Pointer[DiagServer]

// ActiveServer returns the diagnostics server started by the -serve flag,
// or nil when none is running.
func ActiveServer() *DiagServer { return activeServer.Load() }

// NewDiagMux builds the diagnostics endpoint mux over the given sources.
func NewDiagMux(cfg ServeConfig) *http.ServeMux {
	cfg = cfg.withDefaults()
	mux := http.NewServeMux()

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "SLIM diagnostics\n\n"+
			"/metrics           Prometheus text exposition\n"+
			"/metrics.json      metric registry as JSON\n"+
			"/healthz           liveness checks\n"+
			"/readyz            readiness checks\n"+
			"/debug/trace       recent-ops ring buffer (JSON)\n"+
			"/debug/traces      recent trace roots index (JSON)\n"+
			"/debug/trace/{id}  one trace as a tree (?perfetto=1 for trace-event JSON)\n"+
			"/debug/flight      runtime flight recorder (JSON)\n"+
			"/debug/load        windowed 1m/5m rates and delta percentiles (JSON)\n"+
			"/debug/top         heavy-hitter query shapes (JSON)\n"+
			"/debug/contention  tracked-lock wait/hold stats (JSON)\n"+
			"/debug/space       process + store space accounting (JSON)\n"+
			"/debug/slowops     slow-op journal (JSON)\n"+
			"/debug/vars        expvar\n"+
			"/debug/pprof/      runtime profiles\n")
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.Registry.WritePrometheus(w)
		cfg.Window.WritePrometheusRates(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, cfg.Registry)
	})

	serveHealth := func(reg *HealthRegistry) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			results := reg.Run(r.Context())
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if !Healthy(results) {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			for _, res := range results {
				if res.OK {
					fmt.Fprintf(w, "ok   %s (%s)\n", res.Name, time.Duration(res.DurNS).Round(time.Microsecond))
				} else {
					fmt.Fprintf(w, "fail %s: %s\n", res.Name, res.Err)
				}
			}
			if Healthy(results) {
				fmt.Fprintln(w, "ok")
			}
		}
	}
	mux.HandleFunc("/healthz", serveHealth(cfg.Health))
	mux.HandleFunc("/readyz", serveHealth(cfg.Ready))

	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, struct {
			Ops []OpRecord `json:"ops"`
		}{Ops: cfg.Tracer.Recent()})
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, struct {
			Traces []TraceSummary `json:"traces"`
		}{Traces: cfg.Tracer.Roots()})
	})
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, r *http.Request) {
		id, err := ParseTraceID(strings.TrimPrefix(r.URL.Path, "/debug/trace/"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if r.URL.Query().Get("perfetto") != "" {
			ops := cfg.Tracer.TraceOps(id)
			if len(ops) == 0 {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			WriteTraceEvents(w, ops)
			return
		}
		t := cfg.Tracer.Trace(id)
		if t == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, t)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, cfg.Flight)
	})
	mux.HandleFunc("/debug/load", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, cfg.Window.Load())
	})
	mux.HandleFunc("/debug/top", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, cfg.Top)
	})
	mux.HandleFunc("/debug/contention", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, cfg.Locks)
	})
	mux.HandleFunc("/debug/space", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, struct {
			Runtime SpaceInfo      `json:"runtime"`
			Sources map[string]any `json:"sources"`
		}{ReadSpace(), cfg.Space.Report()})
	})
	mux.HandleFunc("/debug/slowops", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, cfg.SlowOps)
	})

	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts a diagnostics server on addr (":0" picks a free port) and
// registers it as the process's active server. It fails when another
// Serve-started server is already active.
func Serve(addr string, cfg ServeConfig) (*DiagServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve %s: %w", addr, err)
	}
	s := &DiagServer{
		lis: lis,
		srv: &http.Server{
			Handler:           NewDiagMux(cfg),
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
	if !activeServer.CompareAndSwap(nil, s) {
		lis.Close()
		return nil, fmt.Errorf("obs: a diagnostics server is already running at %s", ActiveServer().Addr())
	}
	// slimvet:gorolife Serve returns when Close/Shutdown closes the listener; the DiagServer owns that lifecycle
	go s.srv.Serve(lis)
	return s, nil
}

// AwaitInterrupt blocks until the process receives SIGINT or SIGTERM, or
// ctx is cancelled: what binaries call after their command completes when
// -serve asked the process to stay up for scraping.
func AwaitInterrupt(ctx context.Context) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(ch)
	select {
	case <-ch:
	case <-ctx.Done():
	}
}

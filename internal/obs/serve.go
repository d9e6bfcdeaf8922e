package obs

import (
	"cmp"
	"context"
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
// -trace flags print. diagIndex lists the routes; / serves it.

// diagIndex is the route list the index page serves.
const diagIndex = `SLIM diagnostics

/metrics           Prometheus text exposition of the metric registry
/metrics.json      the same registry as JSON
/healthz           liveness checks (DefaultHealth); 503 when any fails
/readyz            readiness checks (DefaultReady); 503 when any fails
/debug/traces      recent trace roots and the slow ring (JSON)
/debug/trace/{id}  one trace as a tree (?perfetto=1 for Chrome trace-event JSON)
/debug/load        windowed 1m/5m rates and delta percentiles, runtime series (JSON)
/debug/top         heavy-hitter query shapes, exact counts (JSON)
/debug/contention  tracked-lock wait/hold stats (JSON)
/debug/space       process memory classes + per-subsystem space reports (JSON)
/debug/pprof/      CPU, heap, goroutine, ... profiles (net/http/pprof)
`

// ServeConfig selects the sources a diagnostics server renders. Zero
// fields fall back to the process-wide defaults, so the zero value serves
// everything the binaries record.
type ServeConfig struct {
	Registry *Registry
	Tracer   *Tracer
	Health   *HealthRegistry
	Ready    *HealthRegistry
	Sampler  *Sampler
	Top      *ShapeTable
	Locks    *LockTable
	Space    *SpaceSources
}

func (c ServeConfig) withDefaults() ServeConfig {
	c.Registry = cmp.Or(c.Registry, Default)
	c.Tracer = cmp.Or(c.Tracer, DefaultTracer)
	c.Health = cmp.Or(c.Health, DefaultHealth)
	c.Ready = cmp.Or(c.Ready, DefaultReady)
	c.Sampler = cmp.Or(c.Sampler, DefaultSampler)
	c.Top = cmp.Or(c.Top, DefaultTopQueries)
	c.Locks = cmp.Or(c.Locks, DefaultLocks)
	c.Space = cmp.Or(c.Space, DefaultSpace)
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
		fmt.Fprint(w, diagIndex)
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.Registry.WritePrometheus(w)
	})
	// serveJSON registers a route that encodes what value returns.
	serveJSON := func(path string, value func() any) {
		mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			EncodeJSON(w, value())
		})
	}
	serveJSON("/metrics.json", func() any { return cfg.Registry })

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

	serveJSON("/debug/traces", func() any { return cfg.Tracer.Index() })
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
	serveJSON("/debug/load", func() any { return cfg.Sampler.Load() })
	serveJSON("/debug/top", func() any { return cfg.Top })
	serveJSON("/debug/contention", func() any { return cfg.Locks })
	serveJSON("/debug/space", func() any {
		return struct {
			Runtime SpaceInfo      `json:"runtime"`
			Sources map[string]any `json:"sources"`
		}{ReadSpace(), cfg.Space.Report()}
	})

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

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/obs"
)

// provenance is printed with every result, so a number can be traced to
// the machine, toolchain, inputs and settings that produced it.
type provenance struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	ClinicalSeed int64   `json:"clinical_seed"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"numcpu"`
	CPU          string  `json:"cpu"`
	GoVersion    string  `json:"go_version"`
	WarmupS      float64 `json:"warmup_s"`
	WindowS      float64 `json:"window_s"`
	Traced       bool    `json:"traced"`
	Clients      int     `json:"clients"`
	Patients     int     `json:"patients"`
	LabDays      int     `json:"lab_days"`
	Bundles      int     `json:"bundles"`
	Scraps       int     `json:"scraps"`
	Triples      int     `json:"triples"`
	BaseBytes    int     `json:"base_bytes"`
	Flush        string  `json:"flush"`
}

func printHeader(out io.Writer, cfg config, r *run) {
	flush := "none: in-memory pad, loaded from an XML snapshot"
	if r.wl.pad.wal {
		flush = fmt.Sprintf("WAL, one fsync per acknowledged save; opened from a snapshot plus a %d-save log tail", r.wl.pad.tail)
	}
	p := provenance{
		Workload:     r.wl.name,
		Seed:         cfg.seed,
		ClinicalSeed: r.w.clinicalSeed,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPU:          cpuModel(),
		GoVersion:    runtime.Version(),
		WarmupS:      cfg.warmup.Seconds(),
		WindowS:      cfg.window.Seconds(),
		Traced:       cfg.trace,
		Clients:      len(r.wl.mixes),
		Patients:     r.wl.pad.patients,
		LabDays:      r.wl.pad.days,
		Bundles:      len(r.w.bundles),
		Scraps:       len(r.w.scraps),
		Triples:      r.triples,
		BaseBytes:    r.w.baseBytes,
		Flush:        flush,
	}
	line, err := json.Marshal(p)
	if err != nil {
		line = []byte(err.Error())
	}
	fmt.Fprintf(out, "== slimbench %s ==\nprovenance: %s\n", r.wl.name, line)
	fmt.Fprintf(out, "setup: %d cold opens, median %.4fs, each %v\n", len(r.setups), median(r.setups), r.setups)
	fmt.Fprintf(out, "setup probe: median %.0f steps/s over %d samples; setup time is scaled by %.4f\n",
		median(r.setupRates), len(r.setupRates), hostFactor(r.setupRates))
}

// printClasses prints every action class's sample count and latencies.
// A p99 is shown only when at least ten samples lie beyond it.
func printClasses(out io.Writer, title string, clients []*client, elapsed time.Duration) {
	fmt.Fprintf(out, "%s: %.3fs, %d actions, %.1f actions/s\n", title, elapsed.Seconds(), attempted(clients), float64(attempted(clients))/elapsed.Seconds())
	fmt.Fprintf(out, "  %-8s %9s %11s %11s %11s %11s\n", "class", "n", "p50_us", "p90_us", "p99_us", "mean_us")
	for k := kind(0); k < numKinds; k++ {
		r := merged(clients, k)
		if r.n == 0 {
			continue
		}
		p99 := "-"
		if r.beyond(0.99) >= 10 {
			p99 = fmt.Sprintf("%.1f", r.quantile(0.99)/1e3)
		}
		fmt.Fprintf(out, "  %-8s %9d %11.1f %11.1f %11s %11.1f\n", k, r.n,
			r.quantile(0.5)/1e3, r.quantile(0.9)/1e3, p99, r.mean()/1e3)
	}
}

// printLayers prints the traced window's self-time table: each layer's
// time with the time of the layers it calls removed, per action and as a
// share of the traced action time.
func printLayers(out io.Writer, in traceInput) {
	s := in.split
	var ops int64
	for k := kind(0); k < numKinds; k++ {
		ops += in.spans.actions[k]
	}
	fmt.Fprintf(out, "per-layer self time over %d traced actions (%.3fs of action time):\n", ops, s.action/1e9)
	fmt.Fprintf(out, "  %-22s %12s %8s\n", "layer", "us/action", "share")
	row := func(name string, ns float64) {
		fmt.Fprintf(out, "  %-22s %12.2f %7.1f%%\n", name, ns/float64(ops)/1e3, 100*ratio(ns, s.action))
	}
	row("slimpad+slim (DMI)", s.dmi)
	row("trim", s.trim)
	row("mark", s.mark)
	row("base", s.base)
	row("wal/durable (backend)", s.backend)
	row("sum", s.selfSum())
	fmt.Fprintf(out, "  sum / action time = %.3f; orphan child spans = %d\n", ratio(s.selfSum(), s.action), in.spans.orphans)
	if saves := in.spans.actions[kSave]; saves > 0 {
		fmt.Fprintf(out, "  mark.saveto_us_per_save = %.1f (save span minus its backend span; %.1f of it is TRIM batch apply)\n",
			float64(in.spans.actionNS[kSave]-in.spans.childNS[catBackend][kSave])/float64(saves)/1e3,
			float64(in.trimInSave)/float64(saves)/1e3)
		fmt.Fprintf(out, "  backend.save_us = %.1f, wal.sync_us = %.1f, wal.append_bytes_per_save = %.0f\n",
			float64(in.spans.childNS[catBackend][kSave])/float64(saves)/1e3,
			ratio(in.reg.histSum(obs.NameTrimWALSyncNS), in.reg.histCount(obs.NameTrimWALSyncNS))/1e3,
			in.reg.counter(obs.NameTrimWALAppendBytes)/float64(saves))
	}
	for _, scheme := range baseSchemes {
		name := "base." + scheme + ".GoTo"
		if n := in.spans.callsName[name]; n > 0 {
			fmt.Fprintf(out, "  %s: %d calls, %.1f us each\n", name, n, float64(in.spans.byName[name])/float64(n)/1e3)
		}
	}
	fmt.Fprintf(out, "  setup: trim.load_s = %.4f, wal.replay_s = %.4f\n", in.loadS, in.replayS)
}

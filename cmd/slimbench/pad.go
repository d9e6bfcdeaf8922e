package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/base"
	"repro/internal/clinical"
	"repro/internal/mark"
	"repro/internal/rdf"
	"repro/internal/slimpad"
	"repro/internal/trim"
)

// padSpec sizes one workload's pad. Every pad is built from the clinical
// generator: one bundle per patient holding a scrap for each medication,
// each lab result, the first two plan lines of the progress note, and the
// imaging impression (about 15.5 scraps per patient).
type padSpec struct {
	patients int
	days     int // days of lab history in each lab report
	wal      bool
	tail     int // acknowledged saves in the WAL tail replayed on open
}

// scrapInfo is what buildWorld knows about one scrap: the reference the
// in-run checks compare the program's answers against.
type scrapInfo struct {
	id      rdf.Term
	bundle  int // index into world.bundles
	mark    string
	addr    base.Address
	excerpt string
	label   string
}

type bundleInfo struct {
	id      rdf.Term
	patient int
	scraps  int
}

// world is everything a run needs that is not timed: the clinical base
// layer, the pad's files, and the reference tables buildWorld fills.
type world struct {
	spec         padSpec
	clinicalSeed int64
	env          *clinical.Environment
	padFile      string // the XML pad, or the WAL path (snapshot beside it)
	scraps       []scrapInfo
	bundles      []bundleInfo
	baseBytes    int
}

// clip is one way to set a base selection for a new scrap.
type clip struct {
	scheme string
	label  string // "" lets the scrap label default to the marked content
	sel    func() error
}

// clipsFor lists the scraps buildWorld makes for one patient.
func clipsFor(env *clinical.Environment, p clinical.Patient) []clip {
	var out []clip
	for i := range p.Meds {
		i := i
		out = append(out, clip{"spreadsheet", "", func() error { return env.SelectMed(p, i) }})
	}
	for _, l := range p.Labs {
		code := l.Code
		out = append(out, clip{"xml", code, func() error { return env.SelectLab(p, code) }})
	}
	for line := 1; line <= 2; line++ {
		line := line
		out = append(out, clip{"text", "", func() error { return env.SelectPlanLine(p, line) }})
	}
	out = append(out, clip{"pdf", "", func() error { return env.SelectImpression(p) }})
	return out
}

// checkMRNs fails when two patients share an MRN: base documents are named
// after the MRN, so the second patient's documents would collide with the
// first's in the base applications' libraries.
func checkMRNs(seed int64, ps []clinical.Patient) error {
	seen := make(map[string]int, len(ps))
	for i, p := range ps {
		if j, ok := seen[p.MRN]; ok {
			return fmt.Errorf("clinical seed %d: patients %d and %d share MRN %s, so their base documents would collide", seed, j, i, p.MRN)
		}
		seen[p.MRN] = i
	}
	return nil
}

// clinicalSeedFor derives the generator seed from the benchmark seed. A
// derived seed whose MRNs collide is skipped for the next one, so every
// benchmark seed yields a valid pad and the same seed always the same pad.
func clinicalSeedFor(seed int64, spec padSpec) (int64, error) {
	var err error
	for attempt := int64(0); attempt < 16; attempt++ {
		cs := seed + attempt*1_000_003
		if err = checkMRNs(cs, clinical.GenerateHistory(cs, spec.patients, spec.days)); err == nil {
			return cs, nil
		}
	}
	return 0, fmt.Errorf("no collision-free clinical seed near %d: %w", seed, err)
}

// buildWorld generates the clinical environment, builds the pad through
// the SLIMPad application exactly as a user would (select in a base
// application, clip into a bundle), and saves it under dir. For the WAL
// pad it then compacts a snapshot and appends spec.tail acknowledged
// saves, each after one scrap move.
func buildWorld(dir string, seed int64, spec padSpec) (*world, error) {
	cs, err := clinicalSeedFor(seed, spec)
	if err != nil {
		return nil, err
	}
	env, err := clinical.NewEnvironmentHistory(cs, spec.patients, spec.days)
	if err != nil {
		return nil, fmt.Errorf("clinical environment: %w", err)
	}
	w := &world{spec: spec, clinicalSeed: cs, env: env, baseBytes: env.BaseBytes()}
	app, err := slimpad.NewApp(env.Marks)
	if err != nil {
		return nil, err
	}
	_, root, err := app.NewPad("Rounds")
	if err != nil {
		return nil, err
	}
	for pi, p := range env.Patients {
		b, err := app.DMI().CreateBundle(p.Name, slimpad.Coordinate{X: 16, Y: 16 + pi*200}, 540, 180)
		if err != nil {
			return nil, err
		}
		if err := app.DMI().AddNestedBundle(root.ID(), b.ID()); err != nil {
			return nil, err
		}
		w.bundles = append(w.bundles, bundleInfo{id: b.ID(), patient: pi})
		for ci, c := range clipsFor(env, p) {
			if _, err := w.clip(app, len(w.bundles)-1, c, slimpad.Coordinate{X: 8, Y: 8 + ci*24}); err != nil {
				return nil, fmt.Errorf("building pad: %w", err)
			}
		}
	}
	if !spec.wal {
		w.padFile = filepath.Join(dir, "pad.xml")
		if err := app.Save(w.padFile); err != nil {
			return nil, err
		}
		return w, nil
	}
	w.padFile = filepath.Join(dir, "pad.wal")
	ws, err := trim.OpenWAL(app.DMI().Store().Trim(), w.padFile, trim.WALOptions{})
	if err != nil {
		return nil, err
	}
	if err := app.SaveWith(ws); err != nil {
		return nil, err
	}
	if err := ws.Compact(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < spec.tail; i++ {
		s := w.scraps[rng.Intn(len(w.scraps))]
		if err := app.DMI().MoveScrap(s.id, slimpad.Coordinate{X: rng.Intn(500), Y: rng.Intn(150)}); err != nil {
			return nil, err
		}
		if err := app.SaveWith(ws); err != nil {
			return nil, err
		}
	}
	if err := ws.Close(); err != nil {
		return nil, err
	}
	return w, nil
}

// clip makes one scrap from a fresh base selection and records it in the
// reference tables.
func (w *world) clip(app *slimpad.App, bundle int, c clip, pos slimpad.Coordinate) (scrapInfo, error) {
	if err := c.sel(); err != nil {
		return scrapInfo{}, err
	}
	s, err := app.ClipSelection(w.bundles[bundle].id, c.scheme, c.label, pos)
	if err != nil {
		return scrapInfo{}, err
	}
	info, err := w.describe(app.Marks(), s, bundle)
	if err != nil {
		return scrapInfo{}, err
	}
	w.scraps = append(w.scraps, info)
	w.bundles[bundle].scraps++
	return info, nil
}

// describe builds the reference entry for a freshly clipped scrap.
func (w *world) describe(marks *mark.Manager, s slimpad.Scrap, bundle int) (scrapInfo, error) {
	hs := s.MarkHandles()
	if len(hs) != 1 {
		return scrapInfo{}, fmt.Errorf("scrap %s has %d marks, want 1", s.ID().Value(), len(hs))
	}
	m, err := marks.Mark(hs[0].MarkID())
	if err != nil {
		return scrapInfo{}, err
	}
	return scrapInfo{id: s.ID(), bundle: bundle, mark: m.ID, addr: m.Address, excerpt: m.Excerpt, label: s.ScrapName()}, nil
}

// baseApps returns the four base applications, each wrapped by wrap (the
// tracing decorator in a traced run, the identity otherwise).
func (w *world) baseApps(wrap func(base.Application) base.Application) []base.Application {
	return []base.Application{wrap(w.env.Sheets), wrap(w.env.XML), wrap(w.env.Notes), wrap(w.env.Pager)}
}

// session is one cold-opened pad: a fresh SLIMPad application over a fresh
// mark manager, and for the WAL pad the open backend.
type session struct {
	app     *slimpad.App
	backend trim.Backend // nil for XML pads
	setup   time.Duration
	// heapPerTriple is the live heap the open added, per stored triple.
	heapPerTriple float64
}

func (s *session) close() error {
	if s.backend == nil {
		return nil
	}
	return s.backend.Close()
}

// open cold-opens the pad the way a SLIMPad user does: register the base
// applications with a new mark manager, then load the pad file (XML) or
// recover the store from snapshot plus log (WAL). Only the load is timed.
// The live heap is measured after a full collection on both sides.
func (w *world) open(wrapApp func(base.Application) base.Application, wrapBackend func(trim.Backend) trim.Backend) (*session, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc

	start := time.Now()
	marks := mark.NewManager()
	for _, a := range w.baseApps(wrapApp) {
		if err := marks.RegisterApplication(a); err != nil {
			return nil, err
		}
	}
	app, err := slimpad.NewApp(marks)
	if err != nil {
		return nil, err
	}
	s := &session{app: app}
	if w.spec.wal {
		ws, err := trim.OpenWAL(app.DMI().Store().Trim(), w.padFile, trim.WALOptions{})
		if err != nil {
			return nil, err
		}
		s.backend = wrapBackend(ws)
		_, err = app.LoadWith(s.backend)
	} else {
		_, err = app.Load(w.padFile)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("opening %s: %w", w.padFile, err)
	}
	s.setup = time.Since(start)

	runtime.GC()
	runtime.ReadMemStats(&ms)
	s.heapPerTriple = (float64(ms.HeapAlloc) - float64(before)) / float64(app.DMI().Store().Trim().Len())
	return s, nil
}

package mark

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/base"
	"repro/internal/obs"
	"repro/internal/trim"
)

// ResolveContext names the default resolver (drive the base viewer);
// ResolveInPlace names the §6 in-place resolver registered automatically
// for applications that support content extraction.
const (
	ResolveContext = "context"
	ResolveInPlace = "inplace"
)

// Manager is the Mark Manager (Fig. 7): it stores marks generically,
// routes creation and resolution to per-scheme mark modules, and supports
// multiple named resolvers per scheme. All methods are safe for concurrent
// use.
type Manager struct {
	// mu is instrumented: wait/hold histograms land in the
	// lock.mark.manager.* families and /debug/contention.
	mu        *obs.TrackedRWMutex
	modules   map[string]Module              // guarded by mu
	resolvers map[string]map[string]Resolver // scheme -> name -> resolver; guarded by mu
	marks     map[string]Mark                // written only by writeLocked; guarded by mu
	nextSeq   int                            // guarded by mu

	// changed records the ids written since the manager last synced with
	// the store in synced, which is what lets SaveTo write only those ids.
	// The value says whether that store holds the id: it is read from
	// marks when the id first changes.
	changed map[string]bool // guarded by mu
	// synced is the store the manager last loaded from or saved to, nil
	// when none. A save to any other store reconciles in full.
	synced *trim.Manager // guarded by mu
	// syncMu serializes SaveTo and LoadFrom, so two saves cannot apply
	// their snapshots out of order and a load cannot interleave with a
	// save. It is taken before mu.
	syncMu sync.Mutex

	// retry governs the resilient resolution path (resilience.go);
	// quarantine holds marks whose last resolution failed permanently.
	retry      RetryPolicy                // guarded by mu
	quarantine map[string]QuarantineEntry // guarded by mu
}

// NewManager returns an empty mark manager with the default retry policy.
func NewManager() *Manager {
	return &Manager{
		mu:         obs.NewTrackedRWMutex(obs.LockMarkManager),
		modules:    make(map[string]Module),
		resolvers:  make(map[string]map[string]Resolver),
		marks:      make(map[string]Mark),
		changed:    make(map[string]bool),
		retry:      DefaultRetryPolicy,
		quarantine: make(map[string]QuarantineEntry),
	}
}

// RegisterModule adds a mark module. "To support new base-layer
// applications, new mark modules need to be introduced" (§4.2) — this is
// the single extension point, and existing modules are undisturbed.
// The module's in-context resolver is registered under ResolveContext; if
// the module is an AppModule whose application extracts content, an
// in-place resolver is registered under ResolveInPlace.
func (mm *Manager) RegisterModule(mod Module) error {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	scheme := mod.Scheme()
	if scheme == "" {
		return ErrEmptyScheme
	}
	if _, ok := mm.modules[scheme]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateModule, scheme)
	}
	mm.modules[scheme] = mod
	mm.resolvers[scheme] = map[string]Resolver{ResolveContext: InContextResolver(mod)}
	if am, ok := mod.(*AppModule); ok {
		if _, ok := am.App().(base.ContentExtractor); ok {
			mm.resolvers[scheme][ResolveInPlace] = InPlaceResolver(am.App())
		}
	}
	obs.C(obs.NameMarkModulesRegistered).Inc()
	return nil
}

// RegisterApplication is shorthand for RegisterModule(NewAppModule(app)).
func (mm *Manager) RegisterApplication(app base.Application) error {
	return mm.RegisterModule(NewAppModule(app))
}

// RegisterResolver adds (or replaces) a named resolver for a scheme,
// enabling additional mark behaviors without touching the mark type (§6).
func (mm *Manager) RegisterResolver(scheme, name string, r Resolver) error {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if _, ok := mm.modules[scheme]; !ok {
		return fmt.Errorf("%w: %q", ErrNoModule, scheme)
	}
	mm.resolvers[scheme][name] = r
	obs.C(obs.NameMarkResolversRegistered).Inc()
	return nil
}

// Schemes returns the registered mark-module schemes, sorted.
func (mm *Manager) Schemes() []string {
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	out := make([]string, 0, len(mm.modules))
	for s := range mm.modules {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// CreateFromSelection creates a mark from the current selection of the
// scheme's base application, stores it, and returns it. Mark ids are
// sequential ("mark-000001", ...).
func (mm *Manager) CreateFromSelection(scheme string) (Mark, error) {
	start := time.Now()
	mm.mu.Lock()
	mod, ok := mm.modules[scheme]
	if !ok {
		mm.mu.Unlock()
		err := fmt.Errorf("%w: %q", ErrNoModule, scheme)
		markOpDone("create", scheme, start, err)
		return Mark{}, err
	}
	mm.nextSeq++
	id := fmt.Sprintf("mark-%06d", mm.nextSeq)
	mm.mu.Unlock()

	// Mark creation talks to the base application outside the lock; base
	// apps have their own synchronization.
	markDispatch("create", scheme)
	m, err := mod.CreateMark(id)
	if err != nil {
		markOpDone("create", scheme, start, err)
		return Mark{}, err
	}
	mm.mu.Lock()
	mm.writeLocked(m.ID, m, true)
	mm.mu.Unlock()
	markOpDone("create", scheme, start, nil)
	return m, nil
}

// Add stores an externally constructed mark (used by persistence and by
// tests). The mark's id must be non-empty and unused.
func (mm *Manager) Add(m Mark) error {
	if m.ID == "" {
		return fmt.Errorf("mark: mark needs an id")
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if _, ok := mm.marks[m.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateMark, m.ID)
	}
	mm.writeLocked(m.ID, m, true)
	obs.C(obs.NameMarkMarksAdded).Inc()
	return nil
}

// Mark retrieves a stored mark by id.
func (mm *Manager) Mark(id string) (Mark, error) {
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	m, ok := mm.marks[id]
	if !ok {
		return Mark{}, fmt.Errorf("%w: %q", ErrUnknownMark, id)
	}
	return m, nil
}

// Marks returns all stored marks sorted by id.
func (mm *Manager) Marks() []Mark {
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	out := make([]Mark, 0, len(mm.marks))
	for _, m := range mm.marks {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Remove deletes a stored mark, reporting whether it existed.
func (mm *Manager) Remove(id string) bool {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if _, ok := mm.marks[id]; !ok {
		return false
	}
	mm.writeLocked(id, Mark{}, false)
	delete(mm.quarantine, id)
	obs.C(obs.NameMarkMarksRemoved).Inc()
	return true
}

// Len returns the number of stored marks.
func (mm *Manager) Len() int {
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	return len(mm.marks)
}

// Resolve dereferences the mark by id using the default (in-context)
// resolver: it drives the base application to the marked element.
func (mm *Manager) Resolve(id string) (base.Element, error) {
	return mm.ResolveWith(id, ResolveContext)
}

// ResolveWith dereferences the mark using the named resolver.
func (mm *Manager) ResolveWith(id, resolver string) (base.Element, error) {
	start := time.Now()
	mm.mu.RLock()
	m, ok := mm.marks[id]
	if !ok {
		mm.mu.RUnlock()
		err := fmt.Errorf("%w: %q", ErrUnknownMark, id)
		markOpDone("resolve", unknownScheme, start, err)
		return base.Element{}, err
	}
	byName, ok := mm.resolvers[m.Scheme()]
	if !ok {
		mm.mu.RUnlock()
		err := fmt.Errorf("%w: %q", ErrNoModule, m.Scheme())
		markOpDone("resolve", m.Scheme(), start, err)
		return base.Element{}, err
	}
	r, ok := byName[resolver]
	mm.mu.RUnlock()
	if !ok {
		err := fmt.Errorf("%w: %q for scheme %q", ErrUnknownResolver, resolver, m.Scheme())
		markOpDone("resolve", m.Scheme(), start, err)
		return base.Element{}, err
	}
	markDispatch("resolve", m.Scheme())
	el, err := r(m)
	markOpDone("resolve", m.Scheme(), start, err)
	return el, err
}

// ExtractContent returns the marked element's current content without
// moving any viewer (the §6 "extract content" behavior). It prefers the
// in-place resolver and falls back to the stored excerpt when the base
// source is unavailable.
func (mm *Manager) ExtractContent(id string) (string, error) {
	el, err := mm.ResolveWith(id, ResolveInPlace)
	if err == nil {
		return el.Content, nil
	}
	m, merr := mm.Mark(id)
	if merr != nil {
		return "", merr
	}
	if m.Excerpt != "" {
		return m.Excerpt, nil
	}
	return "", err
}

// Refresh re-extracts the marked element's content and reports whether it
// still matches the stored excerpt, updating the excerpt. It is the
// consistency probe behind SLIMPad's redundancy management (§3: "Redundancy
// is a problem, however, if it introduces errors during transcription").
func (mm *Manager) Refresh(id string) (content string, changed bool, err error) {
	el, err := mm.ResolveWith(id, ResolveInPlace)
	if err != nil {
		return "", false, err
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	m, ok := mm.marks[id]
	if !ok {
		return "", false, fmt.Errorf("%w: %q", ErrUnknownMark, id)
	}
	changed = m.Excerpt != el.Content
	m.Excerpt = el.Content
	mm.writeLocked(id, m, true)
	return el.Content, changed, nil
}

// writeLocked is the only writer of the mark map: it stores m under id,
// or deletes id when keep is false, and records id in changed so the next
// SaveTo writes it. Storing a mark equal to the stored one changes
// nothing. A mark created and removed again since the last sync leaves no
// record, since the synced store never held it. Caller holds mu.
func (mm *Manager) writeLocked(id string, m Mark, keep bool) {
	old, stored := mm.marks[id]
	if keep && stored && old == m {
		return
	}
	if _, seen := mm.changed[id]; !seen {
		mm.changed[id] = stored
	}
	if keep {
		mm.marks[id] = m
		return
	}
	delete(mm.marks, id)
	if !mm.changed[id] {
		delete(mm.changed, id)
	}
}

package mark

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/base"
	"repro/internal/obs"
)

// Resilient mark resolution (docs/ROBUSTNESS.md). The paper's architecture
// points into base documents it does not control (§4.2), so resolution can
// fail in ways the superimposed layer must absorb rather than propagate:
// transient unavailability is retried with backoff, permanent failures fall
// back to the excerpt cached at create/refresh time, and marks whose
// referent is gone are quarantined and surfaced through Doctor — the
// degradation ladder live resolve → cached excerpt → quarantine.

// RetryPolicy configures retry of transient base-application failures.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Values below 1 behave as 1 (no retry).
	MaxAttempts int
	// BaseDelay is the wait before the first retry; each subsequent wait
	// doubles, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the per-retry wait.
	MaxDelay time.Duration
}

// DefaultRetryPolicy retries transient failures three times with a short
// exponential backoff — enough to ride out a viewer restart without making
// an interactive caller wait noticeably.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 3,
	BaseDelay:   10 * time.Millisecond,
	MaxDelay:    200 * time.Millisecond,
}

// SetRetryPolicy replaces the manager's retry policy for the resilient
// resolution paths (ResolveCtx, ResolveDegraded, RefreshCtx, Doctor).
//
// slimvet:noobs configuration setter; the resolve paths it tunes record
// mark.resolve.* themselves.
func (mm *Manager) SetRetryPolicy(p RetryPolicy) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.retry = p
}

// RetryPolicy returns the manager's current retry policy.
func (mm *Manager) RetryPolicy() RetryPolicy {
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	return mm.retry
}

// Classify maps an error from mark resolution onto the failure taxonomy:
// ErrTransient for retryable base unavailability, ErrDangling for
// permanently broken references (unknown document, bad address, missing
// module or mark), or nil for errors outside the taxonomy. Errors already
// wrapped in a class keep it.
func Classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrTransient), errors.Is(err, ErrDangling), errors.Is(err, ErrContentDrift):
		return err
	case base.IsTransient(err):
		return ErrTransient
	case errors.Is(err, base.ErrUnknownDocument),
		errors.Is(err, base.ErrBadAddress),
		errors.Is(err, base.ErrWrongScheme),
		errors.Is(err, ErrNoModule),
		errors.Is(err, ErrUnknownMark):
		return ErrDangling
	default:
		return nil
	}
}

// ResolveCtx dereferences the mark with the default (in-context) resolver,
// retrying transient base-application failures per the manager's retry
// policy and honoring ctx cancellation between attempts. Terminal errors
// are wrapped in their failure class (ErrTransient or ErrDangling) when
// one applies.
func (mm *Manager) ResolveCtx(ctx context.Context, id string) (base.Element, error) {
	return mm.ResolveWithCtx(ctx, id, ResolveContext)
}

// mResolveAttempts distributes how many tries each resilient resolve
// needed; a drift toward 2+ means bases are flapping.
var mResolveAttempts = obs.HSize(obs.NameMarkResolveAttempts)

// ResolveWithCtx is ResolveCtx with an explicit resolver name. Under a
// traced context the whole ladder is one "mark.resolve" span with each try
// a "mark.resolve.attempt" child carrying its attempt number and the
// backoff slept before it, so a trace shows exactly where retry latency
// went — including faultbase-injected faults, whose error text tags the
// attempt span that hit them.
func (mm *Manager) ResolveWithCtx(ctx context.Context, id, resolver string) (el base.Element, err error) {
	ctx, sp := obs.StartCtx(ctx, "mark.resolve", id)
	defer func() { sp.FinishErr(err) }()
	// Heavy-hitter profiling: shapes are keyed by scheme and resolver, not
	// mark id, so the sketch ranks resolve traffic per base-information
	// type (bounded by the module registry) instead of per mark.
	scheme := "unknown"
	if m, merr := mm.Mark(id); merr == nil {
		scheme = m.Address.Scheme
	}
	obs.RecordQueryShape("mark.resolve scheme=" + scheme + " resolver=" + resolver)
	policy := mm.RetryPolicy()
	attempts := policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	delay := policy.BaseDelay
	slept := time.Duration(0)
	attempt := 1
	defer func() { mResolveAttempts.Observe(int64(attempt)) }()
	for ; ; attempt++ {
		asp := sp.Child("mark.resolve.attempt", fmt.Sprintf("attempt=%d backoff=%s", attempt, slept))
		el, err = mm.ResolveWith(id, resolver)
		asp.FinishErr(err)
		if err == nil {
			mm.clearQuarantine(id)
			return el, nil
		}
		if !base.IsTransient(err) || attempt >= attempts {
			break
		}
		obs.C(obs.NameMarkResolveRetries).Inc()
		if werr := sleepCtx(ctx, delay); werr != nil {
			err = fmt.Errorf("%w: %w (while retrying: %w)", ErrTransient, werr, err)
			return base.Element{}, err
		}
		slept = delay
		if delay *= 2; policy.MaxDelay > 0 && delay > policy.MaxDelay {
			delay = policy.MaxDelay
		}
	}
	if class := Classify(err); class != nil && !errors.Is(err, class) {
		err = fmt.Errorf("%w: %w", class, err)
	}
	// Terminal failure for a stored mark: quarantine it so Doctor and
	// Quarantined surface the broken reference until a resolve succeeds.
	if m, merr := mm.Mark(id); merr == nil {
		mm.setQuarantine(m, err)
	}
	return base.Element{}, err
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Outcome reports which rung of the degradation ladder served a
// ResolveDegraded call.
type Outcome int

const (
	// OutcomeLive: the base application resolved the mark.
	OutcomeLive Outcome = iota
	// OutcomeCached: the base was unreachable; the cached excerpt served.
	OutcomeCached
	// OutcomeFailed: no rung could serve the mark.
	OutcomeFailed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeLive:
		return "live"
	case OutcomeCached:
		return "cached"
	case OutcomeFailed:
		return "failed"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// ResolveDegraded walks the degradation ladder: live resolution (with
// retry) first; on terminal failure, the excerpt cached at create/refresh
// time is served as a synthetic element (OutcomeCached) and the mark is
// quarantined for Doctor to report; with no cached excerpt the failure is
// returned (OutcomeFailed) and the mark quarantined. A cached result is
// not an error: callers that must distinguish staleness check the outcome.
func (mm *Manager) ResolveDegraded(ctx context.Context, id string) (base.Element, Outcome, error) {
	return mm.ResolveDegradedWith(ctx, id, ResolveContext)
}

// ResolveDegradedWith is ResolveDegraded with an explicit resolver name
// for the live rung of the ladder.
func (mm *Manager) ResolveDegradedWith(ctx context.Context, id, resolver string) (base.Element, Outcome, error) {
	el, err := mm.ResolveWithCtx(ctx, id, resolver)
	if err == nil {
		return el, OutcomeLive, nil
	}
	if errors.Is(err, ErrUnknownMark) {
		return base.Element{}, OutcomeFailed, err
	}
	m, merr := mm.Mark(id)
	if merr != nil {
		return base.Element{}, OutcomeFailed, merr
	}
	if m.Excerpt == "" {
		obs.C(obs.NameMarkResolveFailed).Inc()
		return base.Element{}, OutcomeFailed, err
	}
	obs.C(obs.NameMarkResolveCached).Inc()
	obs.Log().Warn("mark: serving cached excerpt", "mark", id, "err", err)
	return base.Element{Address: m.Address, Content: m.Excerpt}, OutcomeCached, nil
}

// RefreshCtx is Refresh with retry for transient failures: it re-extracts
// the marked content in place, updates the stored excerpt, and reports
// drift. Terminal errors carry their failure class.
func (mm *Manager) RefreshCtx(ctx context.Context, id string) (content string, changed bool, err error) {
	el, err := mm.ResolveWithCtx(ctx, id, ResolveInPlace)
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

// QuarantineEntry records one mark whose last resolution failed
// permanently (or exhausted retries): the paper's dangling-reference
// problem made visible instead of silent.
type QuarantineEntry struct {
	// ID is the quarantined mark's id.
	ID string
	// Address is the referent that could not be reached.
	Address base.Address
	// Class is the failure class (ErrTransient or ErrDangling) in force
	// when the mark was quarantined.
	Class error
	// Reason is the terminal error's text.
	Reason string
	// HasExcerpt reports whether a cached excerpt can still serve reads.
	HasExcerpt bool
}

func (mm *Manager) setQuarantine(m Mark, err error) {
	class := Classify(err)
	if class == nil {
		class = ErrDangling
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if _, ok := mm.quarantine[m.ID]; !ok {
		obs.C(obs.NameMarkQuarantineAdded).Inc()
	}
	mm.quarantine[m.ID] = QuarantineEntry{
		ID:         m.ID,
		Address:    m.Address,
		Class:      class,
		Reason:     err.Error(),
		HasExcerpt: m.Excerpt != "",
	}
}

func (mm *Manager) clearQuarantine(id string) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if _, ok := mm.quarantine[id]; ok {
		delete(mm.quarantine, id)
		obs.C(obs.NameMarkQuarantineCleared).Inc()
	}
}

// Quarantined lists the quarantined marks, sorted by id. A mark leaves
// quarantine when a later resolution succeeds or the mark is removed.
func (mm *Manager) Quarantined() []QuarantineEntry {
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	out := make([]QuarantineEntry, 0, len(mm.quarantine))
	for _, e := range mm.quarantine {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Health is one mark's state in a health report.
type Health int

const (
	// Healthy: the mark resolves and its content matches the excerpt.
	Healthy Health = iota
	// Drifted: the mark resolves but the live content no longer matches
	// the stored excerpt (§3 transcription drift).
	Drifted
	// Degraded: the mark cannot be resolved right now, but a cached
	// excerpt can still serve reads.
	Degraded
	// Dangling: the mark cannot be resolved and has no cached excerpt.
	Dangling
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Drifted:
		return "drifted"
	case Degraded:
		return "degraded"
	case Dangling:
		return "dangling"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// MarkHealth is one mark's diagnosis.
type MarkHealth struct {
	Mark   Mark
	Health Health
	// Err explains non-healthy states: ErrContentDrift-wrapped for
	// Drifted, the classified resolution error otherwise.
	Err error
}

// HealthReport summarizes a Doctor pass over every stored mark.
type HealthReport struct {
	Checked int
	Healthy int
	Drifted int
	// Degraded marks failed to resolve but have a cached excerpt.
	Degraded int
	// Dangling marks failed to resolve and have nothing to fall back on.
	Dangling int
	// Marks holds the per-mark diagnoses, sorted by mark id.
	Marks []MarkHealth
}

// Ok reports whether every mark is healthy.
func (r HealthReport) Ok() bool { return r.Checked == r.Healthy }

// String renders the report as the markctl doctor output: a summary line
// plus one line per non-healthy mark.
func (r HealthReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d mark(s): %d healthy, %d drifted, %d degraded, %d dangling\n",
		r.Checked, r.Healthy, r.Drifted, r.Degraded, r.Dangling)
	for _, mh := range r.Marks {
		if mh.Health == Healthy {
			continue
		}
		fmt.Fprintf(&b, "  %-8s %s  %s", mh.Health, mh.Mark.ID, mh.Mark.Address)
		if mh.Err != nil {
			fmt.Fprintf(&b, "  (%v)", mh.Err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Doctor diagnoses every stored mark: it re-extracts content in place
// (retrying transient failures), compares it against the stored excerpt,
// and classifies each mark as healthy, drifted, degraded (unresolvable
// but excerpt-backed), or dangling. Unresolvable marks are quarantined;
// the stored excerpt is NOT updated — Doctor observes, Refresh repairs.
func (mm *Manager) Doctor(ctx context.Context) HealthReport {
	ctx, sp := obs.StartCtx(ctx, "mark.doctor", "")
	defer sp.Finish()
	var r HealthReport
	for _, m := range mm.Marks() {
		if err := ctx.Err(); err != nil {
			break
		}
		r.Checked++
		mh := MarkHealth{Mark: m}
		el, err := mm.ResolveWithCtx(ctx, m.ID, ResolveInPlace)
		if err != nil && errors.Is(err, ErrUnknownResolver) {
			// Scheme registered without in-place capability: fall back to
			// driving the viewer so the mark still gets a live check.
			el, err = mm.ResolveCtx(ctx, m.ID)
		}
		switch {
		case err == nil && (m.Excerpt == "" || m.Excerpt == el.Content):
			mh.Health = Healthy
			r.Healthy++
		case err == nil:
			mh.Health = Drifted
			mh.Err = fmt.Errorf("%w: excerpt %.40q, live %.40q", ErrContentDrift, m.Excerpt, el.Content)
			r.Drifted++
		case m.Excerpt != "":
			// The failed resolve above already quarantined the mark.
			mh.Health = Degraded
			mh.Err = err
			r.Degraded++
		default:
			mh.Health = Dangling
			mh.Err = err
			r.Dangling++
		}
		r.Marks = append(r.Marks, mh)
	}
	obs.C(obs.NameMarkDoctorRuns).Inc()
	return r
}

package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/base"
	"repro/internal/obs"
	"repro/internal/slimpad"
	"repro/internal/trim"
)

// kind is one class of SLIMPad user action.
type kind int

const (
	kRead   kind = iota // DMI.Bundle, then DMI.Scrap for each scrap it holds
	kFind               // DMI.FindScraps with a lab code as needle
	kMove               // DMI.MoveScrap
	kClip               // App.ClipSelection; the base selection is set untimed
	kDelete             // DMI.DeleteScrap plus removing its mark
	kRename             // DMI.RenameScrap
	kOpen               // App.OpenScrap: resolve the mark in its base viewer
	kPeek               // App.PeekScrap: extract the marked content in place
	kSave               // App.SaveWith through the WAL backend
	numKinds
)

var kindNames = [numKinds]string{"read", "find", "move", "clip", "delete", "rename", "open", "peek", "save"}

func (k kind) String() string { return kindNames[k] }

// writes reports whether the action changes the store; in the journal
// workload each write is followed by an acknowledged save.
func (k kind) writes() bool {
	return k == kMove || k == kClip || k == kDelete || k == kRename
}

type weight struct {
	k kind
	w int
}

// workloadDef is one closed-loop workload: a pad and one action mix per
// client. Every client waits for each action before issuing the next,
// as a SLIMPad user does.
type workloadDef struct {
	name  string
	pad   padSpec
	mixes [][]weight
	// saveAfterWrite[i] makes client i follow every write with a save.
	saveAfterWrite []bool
	// split gives each client its own equal share of the bundles, so a
	// reader never walks a bundle the writer is changing under it (a
	// scrap deleted between the bundle read and the scrap read would fail
	// the read), while both still share one store and its lock.
	split bool
	// primary and secondary are the action classes the end-to-end
	// latencies report: the one the workload was built around, and the
	// one that exercises a second path.
	primary, secondary kind
}

var editMix = []weight{{kMove, 50}, {kClip, 15}, {kDelete, 15}, {kRename, 10}, {kRead, 10}}

var workloads = []workloadDef{
	{
		name:    "browse",
		pad:     padSpec{patients: 200, days: 1},
		mixes:   [][]weight{{{kRead, 99}, {kFind, 1}}},
		primary: kRead, secondary: kFind,
	},
	{
		name:    "edit",
		pad:     padSpec{patients: 8, days: 1},
		mixes:   [][]weight{editMix},
		primary: kMove, secondary: kClip,
	},
	{
		name:    "revisit",
		pad:     padSpec{patients: 32, days: 14},
		mixes:   [][]weight{{{kOpen, 85}, {kPeek, 15}}},
		primary: kOpen, secondary: kPeek,
	},
	{
		name:           "journal",
		pad:            padSpec{patients: 8, days: 1, wal: true, tail: 200},
		mixes:          [][]weight{editMix, {{kRead, 1}}},
		saveAfterWrite: []bool{true, false},
		split:          true,
		primary:        kSave, secondary: kRead,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// actor performs actions for one client. prepare and verify run outside
// the timed section; do is the timed user action.
type actor interface {
	prepare(k kind) error
	do(k kind) error
	verify(k kind) error
}

// client is one closed-loop user: it deals actions from a shuffled deck
// holding each kind as often as its weight, prepares each one, times it,
// and checks its output. The deck makes every stretch of len(deck)
// actions follow the mix exactly, so a window's share of slow rare
// actions (browse's find) does not vary by chance. The recorders are the
// client's own, so the loop takes no lock and allocates nothing.
type client struct {
	id   int
	act  actor
	rng  *rand.Rand
	deck []kind
	next int // deck position; the deck is reshuffled when it runs out
	// then is the action that follows every write (kSave), or -1.
	then kind
	// churn is the next of clip and delete: a pick of either takes the
	// next in turn, so the two keep their weights but the store never
	// drifts more than one scrap from its built size.
	churn kind
	spans *spanBuf // nil when untraced

	rec       [numKinds]recorder
	attempted int64
	failed    int64 // actions that returned an error
	// errs holds the first few failures and wrong outputs; any entry,
	// from the warm-up too, fails the run.
	errs []string
}

func newClient(id int, act actor, seed int64, mix []weight, saveAfterWrite bool) *client {
	c := &client{id: id, act: act, rng: rand.New(rand.NewSource(seed)), then: -1, churn: kClip}
	g := 0
	for _, w := range mix {
		g = gcd(g, w.w)
	}
	for _, w := range mix {
		for i := 0; i < w.w/g; i++ {
			c.deck = append(c.deck, w.k)
		}
	}
	c.next = len(c.deck)
	if saveAfterWrite {
		c.then = kSave
	}
	return c
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (c *client) pick() kind {
	if c.next == len(c.deck) {
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
		c.next = 0
	}
	k := c.deck[c.next]
	c.next++
	if k == kClip || k == kDelete {
		k, c.churn = c.churn, kClip+kDelete-c.churn
	}
	return k
}

// run issues actions until the deadline (or until a traced run's span
// buffer is nearly full). A write's follow-up save always completes, so
// every write the run made is acknowledged.
func (c *client) run(deadline time.Time) {
	for time.Now().Before(deadline) && !c.spans.nearlyFull() {
		k := c.pick()
		c.step(k)
		if c.then >= 0 && k.writes() {
			c.step(c.then)
		}
	}
}

func (c *client) step(k kind) {
	c.attempted++
	if err := c.act.prepare(k); err != nil {
		c.failed++
		c.note(k, "prepare", err)
		return
	}
	t0 := time.Now()
	err := c.act.do(k)
	d := time.Since(t0)
	c.rec[k].add(int64(d))
	c.spans.action(c.id, k, t0, d)
	if err != nil {
		c.failed++
		c.note(k, "failed", err)
		return
	}
	if err := c.act.verify(k); err != nil {
		c.note(k, "wrong", err)
	}
}

// note keeps the first few error messages for the report.
func (c *client) note(k kind, what string, err error) {
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("client %d %s %s: %v", c.id, k, what, err))
	}
}

// reset clears the counters after the warm-up; errors already noted stay,
// so a warm-up failure still fails the run.
func (c *client) reset() {
	c.rec = [numKinds]recorder{}
	c.attempted = 0
	c.failed = 0
}

// runClients runs every client until the deadline and returns the wall
// time the phase took.
func runClients(clients []*client, d time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(deadline)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// padState is the mutable reference state one run's clients share. Only
// client 0 writes, and only to the bundles below writerBundles; scraps
// holds the scraps of those bundles.
type padState struct {
	w       *world
	sess    *session
	scraps  []scrapInfo
	counts  []int // live scrap count per bundle
	clips   [][]clip
	needles []string
	found   []int // expected FindScraps result size per needle
	names   []string
	// trimInSave accumulates the TRIM batch-apply time spent inside saves
	// while spans are recorded (the mark layer's share of a save is the
	// rest).
	trimInSave  int64
	batchApplyH *obs.Histogram
}

func newPadState(w *world, sess *session, writerBundles int) *padState {
	st := &padState{
		w:           w,
		sess:        sess,
		counts:      make([]int, len(w.bundles)),
		batchApplyH: obs.H(obs.NameTrimBatchApplyNS),
	}
	for _, s := range w.scraps {
		if s.bundle < writerBundles {
			st.scraps = append(st.scraps, s)
		}
	}
	for i, b := range w.bundles {
		st.counts[i] = b.scraps
		st.clips = append(st.clips, clipsFor(w.env, w.env.Patients[b.patient]))
	}
	for _, l := range w.env.Patients[0].Labs {
		st.needles = append(st.needles, l.Code)
	}
	for _, n := range st.needles {
		hits := 0
		for _, s := range w.scraps {
			if strings.Contains(strings.ToLower(s.label), strings.ToLower(n)) {
				hits++
			}
		}
		st.found = append(st.found, hits)
	}
	for i := 0; i < 64; i++ {
		st.names = append(st.names, fmt.Sprintf("note %02d", i))
	}
	return st
}

// padActor is the real actor over a cold-opened pad. It reads and clips
// into the bundles in [lo, hi).
type padActor struct {
	st     *padState
	rng    *rand.Rand
	lo, hi int
	spans  *spanBuf // nil when untraced

	// Chosen targets and captured outputs of the action in flight.
	bundle    int
	scrap     int
	needle    int
	clip      clip
	pos       slimpad.Coordinate
	name      string
	count     int
	found     int
	el        base.Element
	content   string
	clipped   slimpad.Scrap
	saveStart int64
}

func (a *padActor) prepare(k kind) error {
	st := a.st
	switch k {
	case kRead:
		a.bundle = a.lo + a.rng.Intn(a.hi-a.lo)
	case kFind:
		a.needle = a.rng.Intn(len(st.needles))
	case kMove, kRename, kOpen, kPeek, kDelete:
		a.scrap = a.rng.Intn(len(st.scraps))
		a.pos = slimpad.Coordinate{X: a.rng.Intn(500), Y: a.rng.Intn(150)}
		a.name = st.names[a.rng.Intn(len(st.names))]
	case kClip:
		a.bundle = a.lo + a.rng.Intn(a.hi-a.lo)
		cs := st.clips[a.bundle]
		a.clip = cs[a.rng.Intn(len(cs))]
		a.pos = slimpad.Coordinate{X: a.rng.Intn(500), Y: a.rng.Intn(150)}
		return a.clip.sel()
	case kSave:
		if a.spans.recording() {
			a.saveStart = st.batchApplyH.Sum()
		}
	}
	return nil
}

func (a *padActor) do(k kind) error {
	st := a.st
	app := st.sess.app
	dmi := app.DMI()
	var err error
	switch k {
	case kRead:
		var b slimpad.Bundle
		if b, err = dmi.Bundle(st.w.bundles[a.bundle].id); err != nil {
			return err
		}
		ids := b.Scraps()
		for _, id := range ids {
			if _, err = dmi.Scrap(id); err != nil {
				return err
			}
		}
		a.count = len(ids)
	case kFind:
		var res []slimpad.Scrap
		res, err = dmi.FindScraps(st.needles[a.needle])
		a.found = len(res)
	case kMove:
		err = dmi.MoveScrap(st.scraps[a.scrap].id, a.pos)
	case kRename:
		err = dmi.RenameScrap(st.scraps[a.scrap].id, a.name)
	case kClip:
		a.clipped, err = app.ClipSelection(st.w.bundles[a.bundle].id, a.clip.scheme, a.clip.label, a.pos)
	case kDelete:
		s := st.scraps[a.scrap]
		if err = dmi.DeleteScrap(s.id); err == nil && !app.Marks().Remove(s.mark) {
			err = fmt.Errorf("mark %s of %s was not stored", s.mark, s.id.Value())
		}
	case kOpen:
		a.el, err = app.OpenScrap(st.scraps[a.scrap].id)
	case kPeek:
		a.content, err = app.PeekScrap(st.scraps[a.scrap].id)
	case kSave:
		err = app.SaveWith(st.sess.backend)
	}
	return err
}

func (a *padActor) verify(k kind) error {
	st := a.st
	switch k {
	case kRead:
		if a.count != st.counts[a.bundle] {
			return fmt.Errorf("bundle %s holds %d scraps, want %d", st.w.bundles[a.bundle].id.Value(), a.count, st.counts[a.bundle])
		}
	case kFind:
		if a.found != st.found[a.needle] {
			return fmt.Errorf("FindScraps(%q) found %d scraps, want %d", st.needles[a.needle], a.found, st.found[a.needle])
		}
	case kClip:
		info, err := st.w.describe(st.sess.app.Marks(), a.clipped, a.bundle)
		if err != nil {
			return err
		}
		st.scraps = append(st.scraps, info)
		st.counts[a.bundle]++
	case kDelete:
		st.counts[st.scraps[a.scrap].bundle]--
		last := len(st.scraps) - 1
		st.scraps[a.scrap] = st.scraps[last]
		st.scraps = st.scraps[:last]
	case kOpen:
		s := st.scraps[a.scrap]
		if a.el.Address != s.addr {
			return fmt.Errorf("open %s reached %s, want %s", s.id.Value(), a.el.Address, s.addr)
		}
		if a.el.Content != s.excerpt {
			return fmt.Errorf("open %s shows %q, want %q", s.id.Value(), a.el.Content, s.excerpt)
		}
	case kPeek:
		s := st.scraps[a.scrap]
		if a.content != s.excerpt {
			return fmt.Errorf("peek %s shows %q, want %q", s.id.Value(), a.content, s.excerpt)
		}
	case kSave:
		if a.spans.recording() {
			st.trimInSave += st.batchApplyH.Sum() - a.saveStart
		}
	}
	return nil
}

// checkPad runs the end-of-workload checks: the pad conforms to the
// Bundle-Scrap model with no dangling mark handles, and for the WAL pad
// every acknowledged save survives a reopen into a fresh application.
func checkPad(st *padState) error {
	vios, err := st.sess.app.Check()
	if err != nil {
		return fmt.Errorf("App.Check: %w", err)
	}
	if len(vios) > 0 {
		return fmt.Errorf("App.Check found %d violation(s), first: %s", len(vios), vios[0])
	}
	if st.sess.backend == nil {
		return nil
	}
	live := st.sess.app.DMI().Store().Trim().Snapshot()
	if err := st.sess.close(); err != nil {
		return fmt.Errorf("closing the WAL: %w", err)
	}
	st.sess.backend = nil
	fresh, err := st.w.open(identityApp, identityBackend)
	if err != nil {
		return fmt.Errorf("reopening the WAL: %w", err)
	}
	defer fresh.close()
	got := fresh.app.DMI().Store().Trim().Snapshot()
	if !got.Equal(live) {
		return fmt.Errorf("reopened WAL holds %d triples, live store %d: acknowledged saves were lost", got.Len(), live.Len())
	}
	return nil
}

func identityApp(a base.Application) base.Application { return a }

func identityBackend(b trim.Backend) trim.Backend { return b }

package slim

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/metamodel"
	"repro/internal/rdf"
)

func newBundleScrapDMI(t *testing.T) *DMI {
	t.Helper()
	store := NewStore()
	d, err := GenerateDMI(store, metamodel.BundleScrapModel())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateDMIRegistersModel(t *testing.T) {
	store := NewStore()
	d, err := GenerateDMI(store, metamodel.BundleScrapModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Model(metamodel.BundleScrapModelID); !ok {
		t.Fatal("model not registered")
	}
	if d.Model().ID != metamodel.BundleScrapModelID {
		t.Fatal("DMI model mismatch")
	}
	// Generating a second DMI over the same registered model is fine.
	if _, err := GenerateDMI(store, d.Model()); err != nil {
		t.Fatal(err)
	}
	if d.Store() != store {
		t.Fatal("store accessor broken")
	}
}

func TestCreateAndGet(t *testing.T) {
	d := newBundleScrapDMI(t)
	b, err := d.Create(metamodel.ConstructBundle, map[string]any{
		metamodel.ConnBundleName:   "John Smith",
		metamodel.ConnBundlePos:    "10,20",
		metamodel.ConnBundleWidth:  300,
		metamodel.ConnBundleHeight: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Construct != metamodel.ConstructBundle {
		t.Errorf("construct = %q", b.Construct)
	}
	if !strings.HasPrefix(b.ID.Value(), rdf.NSInst+"Bundle-") {
		t.Errorf("id = %q", b.ID.Value())
	}
	if b.GetString(metamodel.ConnBundleName) != "John Smith" {
		t.Errorf("name = %q", b.GetString(metamodel.ConnBundleName))
	}
	if b.GetInt(metamodel.ConnBundleWidth) != 300 {
		t.Errorf("width = %d", b.GetInt(metamodel.ConnBundleWidth))
	}
	// Get returns a fresh snapshot.
	again, err := d.Get(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.GetString(metamodel.ConnBundleName) != "John Smith" {
		t.Error("snapshot wrong")
	}
}

func TestCreateValidation(t *testing.T) {
	d := newBundleScrapDMI(t)
	// Unknown construct.
	if _, err := d.Create("http://nope", nil); err == nil {
		t.Error("unknown construct accepted")
	}
	// Unknown connector.
	if _, err := d.Create(metamodel.ConstructBundle, map[string]any{"http://nope": "x"}); err == nil {
		t.Error("unknown connector accepted")
	}
	// Wrong domain: padName on a Bundle.
	if _, err := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnPadName: "x"}); err == nil {
		t.Error("wrong-domain connector accepted")
	}
	// Wrong range kind: a string where an integer Dimension is required.
	if _, err := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleWidth: "wide"}); err == nil {
		t.Error("wrong-datatype value accepted")
	}
	// Resource where a literal is required.
	if _, err := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: rdf.IRI("http://x")}); err == nil {
		t.Error("resource for literal connector accepted")
	}
	// Literal where a reference is required.
	if _, err := d.Create(metamodel.ConstructSlimPad, map[string]any{metamodel.ConnRootBundle: "not-a-ref"}); err == nil {
		t.Error("literal for reference connector accepted")
	}
	// Unconvertible value.
	if _, err := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: struct{}{}}); err == nil {
		t.Error("unconvertible value accepted")
	}
	// Failed creates leave nothing behind.
	if n := d.Trim().Count(rdf.P(rdf.Zero, rdf.RDFType, rdf.IRI(metamodel.ConstructBundle))); n != 0 {
		t.Errorf("failed creates leaked %d instances", n)
	}
}

func TestSetReplacesValue(t *testing.T) {
	d := newBundleScrapDMI(t)
	b, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "old"})
	if err := d.Set(b.ID, metamodel.ConnBundleName, "new"); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Get(b.ID)
	if got.GetString(metamodel.ConnBundleName) != "new" {
		t.Fatalf("name = %q", got.GetString(metamodel.ConnBundleName))
	}
	if len(got.All(metamodel.ConnBundleName)) != 1 {
		t.Fatal("Set left multiple values")
	}
	// Set on an absent instance fails.
	if err := d.Set(rdf.IRI("http://ghost"), metamodel.ConnBundleName, "x"); err == nil {
		t.Fatal("Set on ghost instance succeeded")
	}
	// Set validates like Create.
	if err := d.Set(b.ID, metamodel.ConnBundleWidth, "wide"); err == nil {
		t.Fatal("bad datatype accepted by Set")
	}
}

func TestAddRespectsCardinality(t *testing.T) {
	d := newBundleScrapDMI(t)
	pad, _ := d.Create(metamodel.ConstructSlimPad, map[string]any{metamodel.ConnPadName: "Rounds"})
	b1, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "b1"})
	b2, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "b2"})
	// rootBundle has MaxCard 1.
	if err := d.Add(pad.ID, metamodel.ConnRootBundle, b1); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(pad.ID, metamodel.ConnRootBundle, b2); err == nil {
		t.Fatal("second rootBundle accepted despite MaxCard 1")
	}
	// nestedBundle is unbounded.
	for i := 0; i < 5; i++ {
		nb, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "n"})
		if err := d.Add(b1.ID, metamodel.ConnNestedBundle, nb); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := d.Get(b1.ID)
	if len(got.All(metamodel.ConnNestedBundle)) != 5 {
		t.Fatalf("nested = %d", len(got.All(metamodel.ConnNestedBundle)))
	}
}

// TestConcurrentAddKeepsMaxCard: two Adds racing for a connector with room
// for one value leave one value. The bound is checked in the lock hold that
// stores the value; checked in a hold of its own, both Adds could count
// zero values and both store one.
func TestConcurrentAddKeepsMaxCard(t *testing.T) {
	d := newBundleScrapDMI(t)
	pad, _ := d.Create(metamodel.ConstructSlimPad, map[string]any{metamodel.ConnPadName: "Rounds"})
	b1, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "b1"})
	b2, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "b2"})
	root := rdf.P(pad.ID, rdf.IRI(metamodel.ConnRootBundle), rdf.Zero)
	for round := 0; round < 2000; round++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		var errs [2]error
		for i, b := range []*Object{b1, b2} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = d.Add(pad.ID, metamodel.ConnRootBundle, b)
			}()
		}
		close(start)
		wg.Wait()
		roots := d.Trim().Select(root)
		if len(roots) != 1 {
			t.Fatalf("round %d: %d root bundles (errors %v, %v), want 1", round, len(roots), errs[0], errs[1])
		}
		if (errs[0] == nil) == (errs[1] == nil) {
			t.Fatalf("round %d: errors %v, %v; want exactly one Add refused", round, errs[0], errs[1])
		}
		if err := d.Unset(pad.ID, metamodel.ConnRootBundle, roots[0].Object); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnset(t *testing.T) {
	d := newBundleScrapDMI(t)
	b, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "x"})
	nb, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "y"})
	d.Add(b.ID, metamodel.ConnNestedBundle, nb)
	if err := d.Unset(b.ID, metamodel.ConnNestedBundle, nb); err != nil {
		t.Fatal(err)
	}
	if err := d.Unset(b.ID, metamodel.ConnNestedBundle, nb); err == nil {
		t.Fatal("Unset of absent value succeeded")
	}
}

func TestDeleteRemovesReferences(t *testing.T) {
	d := newBundleScrapDMI(t)
	parent, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "parent"})
	child, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "child"})
	d.Add(parent.ID, metamodel.ConnNestedBundle, child)
	if err := d.Delete(child.ID, false); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Get(parent.ID)
	if len(got.All(metamodel.ConnNestedBundle)) != 0 {
		t.Fatal("dangling reference after Delete")
	}
	if _, err := d.Get(child.ID); err == nil {
		t.Fatal("deleted instance still readable")
	}
	if err := d.Delete(child.ID, false); err == nil {
		t.Fatal("double Delete succeeded")
	}
}

func TestDeleteCascade(t *testing.T) {
	d := newBundleScrapDMI(t)
	parent, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "parent"})
	child, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "child"})
	grandchild, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "grandchild"})
	shared, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "shared"})
	other, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "other"})
	d.Add(parent.ID, metamodel.ConnNestedBundle, child)
	d.Add(child.ID, metamodel.ConnNestedBundle, grandchild)
	d.Add(parent.ID, metamodel.ConnNestedBundle, shared)
	d.Add(other.ID, metamodel.ConnNestedBundle, shared)

	if err := d.Delete(parent.ID, true); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []rdf.Term{parent.ID, child.ID, grandchild.ID} {
		if _, err := d.Get(gone); err == nil {
			t.Errorf("%s survived cascade", gone.Value())
		}
	}
	// shared is still referenced by other, so it survives.
	if _, err := d.Get(shared.ID); err != nil {
		t.Error("shared child deleted despite external reference")
	}
	if _, err := d.Get(other.ID); err != nil {
		t.Error("unrelated instance deleted")
	}
}

func TestInstancesOf(t *testing.T) {
	d := newBundleScrapDMI(t)
	for i := 0; i < 3; i++ {
		if _, err := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	d.Create(metamodel.ConstructScrap, map[string]any{metamodel.ConnScrapName: "s"})
	bundles, err := d.InstancesOf(metamodel.ConstructBundle)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 3 {
		t.Fatalf("bundles = %d", len(bundles))
	}
	if _, err := d.InstancesOf("http://nope"); err == nil {
		t.Fatal("unknown construct accepted")
	}
}

// TestInstanceTypesIncludeSpecializations pins what InstancesOf lists:
// subjects typed as the construct or as any specialization of it, and no
// subject typed only as an unrelated construct.
func TestInstanceTypesIncludeSpecializations(t *testing.T) {
	const ns = "http://example.org/spec#"
	m := metamodel.NewModel(ns+"model", "spec")
	for _, c := range []string{"Doc", "Note", "Memo", "Other"} {
		if err := m.AddConstruct(metamodel.Construct{ID: ns + c, Kind: metamodel.KindConstruct, Label: c}); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range [][2]string{{"Note", "Doc"}, {"Memo", "Note"}} {
		if err := m.AddConnector(metamodel.Connector{ID: ns + g[0] + "Is" + g[1], Kind: metamodel.KindGeneralization,
			Label: g[0] + "Is" + g[1], From: ns + g[0], To: ns + g[1]}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := GenerateDMI(NewStore(), m)
	if err != nil {
		t.Fatal(err)
	}
	types, err := d.InstanceTypes(ns + "Doc")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, typ := range types {
		got = append(got, strings.TrimPrefix(typ.Value(), ns))
	}
	if strings.Join(got, ",") != "Doc,Memo,Note" {
		t.Errorf("InstanceTypes(Doc) = %v, want the construct first, then its specializations", got)
	}
	var want []rdf.Term
	for _, c := range []string{"Memo", "Doc", "Other", "Note"} {
		obj, err := d.Create(ns+c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c != "Other" {
			want = append(want, obj.ID)
		}
	}
	objs, err := d.InstancesOf(ns + "Doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != len(want) {
		t.Fatalf("InstancesOf(Doc) = %v, want %d instances", objs, len(want))
	}
	if _, err := d.InstanceTypes("http://nope"); err == nil {
		t.Error("InstanceTypes accepted an unknown construct")
	}
}

func TestViewFollowsContainment(t *testing.T) {
	d := newBundleScrapDMI(t)
	root, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "root"})
	child, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "child"})
	d.Add(root.ID, metamodel.ConnNestedBundle, child)
	stray, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "stray"})
	view := d.View(root.ID)
	found := false
	strayFound := false
	view.Each(func(tr rdf.Triple) bool {
		if tr.Subject == child.ID {
			found = true
		}
		if tr.Subject == stray.ID {
			strayFound = true
		}
		return true
	})
	if !found {
		t.Error("view missing nested bundle")
	}
	if strayFound {
		t.Error("view includes unrelated instance")
	}
}

func TestStoreCheckConformance(t *testing.T) {
	d := newBundleScrapDMI(t)
	// A bundle missing its mandatory name/pos/dims.
	d.Create(metamodel.ConstructBundle, nil)
	vios, err := d.Store().Check(metamodel.BundleScrapModelID)
	if err != nil {
		t.Fatal(err)
	}
	if len(vios) == 0 {
		t.Fatal("incomplete bundle passed conformance")
	}
	if _, err := d.Store().Check("http://nope"); err == nil {
		t.Fatal("check of unregistered model succeeded")
	}
}

func TestStoreSaveLoad(t *testing.T) {
	d := newBundleScrapDMI(t)
	b, _ := d.Create(metamodel.ConstructBundle, map[string]any{
		metamodel.ConnBundleName: "persisted",
	})
	path := filepath.Join(t.TempDir(), "pad.xml")
	if err := d.Store().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fresh := NewStore()
	if err := fresh.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	// Model is rehydrated from the triples themselves.
	m, ok := fresh.Model(metamodel.BundleScrapModelID)
	if !ok {
		t.Fatal("model not rehydrated from file")
	}
	d2, err := GenerateDMI(fresh, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.Get(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.GetString(metamodel.ConnBundleName) != "persisted" {
		t.Fatalf("name = %q", got.GetString(metamodel.ConnBundleName))
	}
	// New ids don't collide with loaded instances.
	nb, err := d2.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "new"})
	if err != nil {
		t.Fatal(err)
	}
	if nb.ID == b.ID {
		t.Fatal("id collision after load")
	}
}

func TestNewIDUnique(t *testing.T) {
	s := NewStore()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := s.NewID(metamodel.ConstructBundle).Value()
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestRegisterModelTwice(t *testing.T) {
	s := NewStore()
	if err := s.RegisterModel(metamodel.BundleScrapModel()); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterModel(metamodel.BundleScrapModel()); err == nil {
		t.Fatal("double registration succeeded")
	}
}

func TestTwoModelsOneStore(t *testing.T) {
	s := NewStore()
	bs, err := GenerateDMI(s, metamodel.BundleScrapModel())
	if err != nil {
		t.Fatal(err)
	}
	ann, err := GenerateDMI(s, metamodel.AnnotationModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ann.Create(metamodel.ConstructAnnotation, map[string]any{metamodel.ConnAnnBody: "note"}); err != nil {
		t.Fatal(err)
	}
	// Each DMI only sees its own model's constructs.
	if _, err := bs.Create(metamodel.ConstructAnnotation, nil); err == nil {
		t.Fatal("Bundle-Scrap DMI created an Annotation")
	}
	bundles, _ := bs.InstancesOf(metamodel.ConstructBundle)
	anns, _ := ann.InstancesOf(metamodel.ConstructAnnotation)
	if len(bundles) != 1 || len(anns) != 1 {
		t.Fatalf("instances = %d bundles, %d annotations", len(bundles), len(anns))
	}
}

func TestObjectAccessors(t *testing.T) {
	d := newBundleScrapDMI(t)
	b, _ := d.Create(metamodel.ConstructBundle, map[string]any{
		metamodel.ConnBundleName:  "b",
		metamodel.ConnBundleWidth: 120,
	})
	if _, err := b.Get("http://absent"); err == nil {
		t.Error("Get absent succeeded")
	}
	if b.GetString("http://absent") != "" {
		t.Error("GetString absent nonzero")
	}
	if b.GetInt("http://absent") != 0 {
		t.Error("GetInt absent nonzero")
	}
	if b.GetInt(metamodel.ConnBundleName) != 0 {
		t.Error("GetInt of string value nonzero")
	}
	conns := b.Connectors()
	if len(conns) != 2 {
		t.Errorf("Connectors = %v", conns)
	}
	if b.String() == "" {
		t.Error("Object.String empty")
	}
	// Multi-valued Get errors.
	n1, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "n1"})
	n2, _ := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: "n2"})
	d.Add(b.ID, metamodel.ConnNestedBundle, n1)
	d.Add(b.ID, metamodel.ConnNestedBundle, n2)
	fresh, _ := d.Get(b.ID)
	if _, err := fresh.Get(metamodel.ConnNestedBundle); err == nil {
		t.Error("Get of multi-valued connector succeeded")
	}
}

// TestObjectMatchesSelect checks every Object answer against a map built
// here from the same subject select a Get reads: Connectors, All's order,
// Get with its absent and multi-value errors, GetString and GetInt. The
// instance's connectors sort on both sides of rdf:type, and one shares its
// namespace.
func TestObjectMatchesSelect(t *testing.T) {
	d := newBundleScrapDMI(t)
	b, err := d.Create(metamodel.ConstructBundle, map[string]any{
		metamodel.ConnBundleName:  "b",
		metamodel.ConnBundleWidth: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"n2", "n1"} {
		n, err := d.Create(metamodel.ConstructBundle, map[string]any{metamodel.ConnBundleName: name})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Add(b.ID, metamodel.ConnNestedBundle, n); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range []rdf.Triple{
		rdf.T(b.ID, rdf.IRI("http://a.example/first"), rdf.String("x")),
		rdf.T(b.ID, rdf.IRI("http://a.example/first"), rdf.Integer(3)),
		rdf.T(b.ID, rdf.IRI(rdf.NSRDF+"first"), rdf.Integer(7)),
		rdf.T(b.ID, rdf.IRI(rdf.NSRDF+"value"), rdf.String("after rdf:type")),
		rdf.T(b.ID, rdf.IRI("urn:z"), rdf.String("lit")),
		rdf.T(b.ID, rdf.IRI("urn:z"), rdf.Blank("n")),
		rdf.T(b.ID, rdf.IRI("urn:z"), rdf.IRI("http://x/1")),
		rdf.T(b.ID, rdf.IRI("urn:one"), rdf.TypedLiteral("5", "http://t/dt")),
	} {
		if _, err := d.Trim().Create(x); err != nil {
			t.Fatal(err)
		}
	}
	obj, err := d.Get(b.ID)
	if err != nil {
		t.Fatal(err)
	}

	triples := d.Trim().Select(rdf.P(b.ID, rdf.Zero, rdf.Zero))
	if !slices.IsSortedFunc(triples, rdf.Triple.Compare) {
		t.Fatalf("subject select out of triple order: %v", triples)
	}
	want := map[string][]rdf.Term{}
	for _, x := range triples {
		if x.Predicate != rdf.RDFType {
			want[x.Predicate.Value()] = append(want[x.Predicate.Value()], x.Object)
		}
	}
	conns := make([]string, 0, len(want))
	for c := range want {
		conns = append(conns, c)
	}
	sort.Strings(conns)
	if got := obj.Connectors(); !slices.Equal(got, conns) {
		t.Errorf("Connectors = %v, want %v", got, conns)
	}
	if conns[0] >= rdf.RDFType.Value() || conns[len(conns)-1] <= rdf.RDFType.Value() {
		t.Fatalf("connectors %v do not straddle rdf:type", conns)
	}
	for _, c := range append(conns, rdf.RDFType.Value(), "http://absent") {
		vs := want[c]
		if got := obj.All(c); !slices.Equal(got, vs) {
			t.Errorf("All(%s) = %v, want %v", c, got, vs)
		}
		got, err := obj.Get(c)
		wantString, wantInt := "", int64(0)
		switch len(vs) {
		case 0:
			if err == nil || !strings.Contains(err.Error(), "has no value") {
				t.Errorf("Get(%s) = %v, %v; want a no-value error", c, got, err)
			}
		case 1:
			if err != nil || got != vs[0] {
				t.Errorf("Get(%s) = %v, %v; want %v", c, got, err, vs[0])
			}
			wantString = vs[0].Value()
			wantInt, _ = vs[0].Int()
		default:
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("has %d values", len(vs))) {
				t.Errorf("Get(%s) = %v, %v; want a %d-value error", c, got, err, len(vs))
			}
		}
		if got := obj.GetString(c); got != wantString {
			t.Errorf("GetString(%s) = %q, want %q", c, got, wantString)
		}
		if got := obj.GetInt(c); got != wantInt {
			t.Errorf("GetInt(%s) = %d, want %d", c, got, wantInt)
		}
	}
}

func TestValueConversions(t *testing.T) {
	cases := []struct {
		in   any
		want rdf.Term
	}{
		{"s", rdf.String("s")},
		{42, rdf.Integer(42)},
		{int64(43), rdf.Integer(43)},
		{1.5, rdf.Float(1.5)},
		{true, rdf.Bool(true)},
		{rdf.IRI("http://x"), rdf.IRI("http://x")},
	}
	for _, c := range cases {
		got, err := Value(c.in)
		if err != nil || got != c.want {
			t.Errorf("Value(%v) = %v, %v", c.in, got, err)
		}
	}
	if _, err := Value(nil); err == nil {
		t.Error("Value(nil) succeeded")
	}
	if _, err := Value((*Object)(nil)); err == nil {
		t.Error("Value(nil *Object) succeeded")
	}
}

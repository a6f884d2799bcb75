package script

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// cowTemplate builds a small global surface with the shapes a host
// surface has: a namespace object holding scalars, a native, a nested
// object and an array; a callable object; and aliased bindings.
func cowTemplate() *Interp {
	in := NewBareInterp()
	child := NewObject()
	child.Class = "Child"
	child.Set("x", Number(1))
	ns := NewObject()
	ns.Class = "NS"
	ns.Set("a", Number(1))
	ns.Set("b", String("two"))
	ns.Set("fn", NativeValue("ns.fn", noop))
	ns.Set("child", ObjectValue(child))
	list := ArrayValue(Number(1), ObjectValue(child))
	ns.Set("list", list)
	ctor := NewObject()
	ctor.Call = &Native{Name: "Ctor", Fn: noop}
	ctor.Set("static", Bool(true))
	in.Global.Define("ns", ObjectValue(ns))
	in.Global.Define("alias", ObjectValue(ns))
	in.Global.Define("child", ObjectValue(child))
	in.Global.Define("list", list)
	in.Global.Define("Ctor", ObjectValue(ctor))
	return in
}

func realmOf(t *testing.T, s *GlobalSnapshot) *Interp {
	t.Helper()
	in := NewBareInterp()
	in.InstallSnapshot(s)
	return in
}

func global(t *testing.T, in *Interp, name string) Value {
	t.Helper()
	v, ok := in.Global.Get(name)
	if !ok {
		t.Fatalf("global %q missing", name)
	}
	return v
}

// cowWrites overwrites template keys, adds new ones, writes nested and
// array-held objects, and reassigns a global.
const cowWrites = `
ns.b = 'changed';
ns.added1 = 1;
ns.a = 7;
ns.added2 = {deep: true};
child.x = 9;
list.push(3);
list[1].y = 'via-array';
alias.child.z = 'via-alias';
Ctor.static = false;
Ctor.extra = 'e';
child = 'reassigned';
`

// TestSnapshotMatchesDeepCloneSemantics runs the same writes on a
// realm stamped copy-on-write from a snapshot and on a concrete copy of
// the template, which is what the deep clone used to hand each realm:
// every object's Keys() order, every JSON rendering and every value
// must agree.
func TestSnapshotMatchesDeepCloneSemantics(t *testing.T) {
	ref := cowTemplate()
	realm := realmOf(t, cowTemplate().SnapshotGlobals())
	check := func(stage string) {
		for _, name := range []string{"ns", "alias", "list", "Ctor"} {
			want, got := global(t, ref, name), global(t, realm, name)
			if JSONString(want) != JSONString(got) {
				t.Errorf("%s: JSON of %s = %s; want %s", stage, name, JSONString(got), JSONString(want))
			}
			if want.Kind() == KindObject && !reflect.DeepEqual(want.Obj().Keys(), got.Obj().Keys()) {
				t.Errorf("%s: Keys of %s = %v; want %v", stage, name, got.Obj().Keys(), want.Obj().Keys())
			}
		}
		wantNS, gotNS := global(t, ref, "ns").Obj(), global(t, realm, "ns").Obj()
		for _, k := range []string{"child", "added2"} {
			w, _ := wantNS.Get(k)
			g, _ := gotNS.Get(k)
			if w.Kind() == KindObject && !reflect.DeepEqual(w.Obj().Keys(), g.Obj().Keys()) {
				t.Errorf("%s: Keys of ns.%s = %v; want %v", stage, k, g.Obj().Keys(), w.Obj().Keys())
			}
		}
		if g := global(t, realm, "child"); g.ToString() != global(t, ref, "child").ToString() {
			t.Errorf("%s: child = %s", stage, g.ToString())
		}
	}
	check("fresh")
	for _, in := range []*Interp{ref, realm} {
		if err := in.Run(cowWrites, "t"); err != nil {
			t.Fatal(err)
		}
	}
	check("after writes")
	want := []string{"a", "b", "fn", "child", "list", "added1", "added2"}
	if got := global(t, realm, "ns").Obj().Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("ns keys after writes = %v; want %v (template order, then additions)", got, want)
	}
}

// TestSnapshotAliasing pins identity within a realm: every path to one
// template object yields one stub, before and after writes.
func TestSnapshotAliasing(t *testing.T) {
	realm := realmOf(t, cowTemplate().SnapshotGlobals())
	const probe = `
	var same = (ns === alias) && (ns.child === child) && (alias.child === child) &&
		(ns.list === list) && (list[1] === child) && (ns.child === ns.child);`
	if err := realm.Run(probe+`var before = same;`, "t"); err != nil {
		t.Fatal(err)
	}
	if err := realm.Run(`ns.child.x = 5; alias.extra = 1; list[1].w = 2;`+probe+`
	var after = same && alias.child.x === 5 && ns.extra === 1 && child.w === 2;`, "t"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"before", "after"} {
		if v := global(t, realm, name); !v.Truthy() {
			t.Errorf("aliasing %s writes: %s", name, v.ToString())
		}
	}
	// A property replaced in one alias is seen through every alias,
	// while the template object it replaced keeps its own stub.
	if err := realm.Run(`var old = ns.child; alias.child = {fresh: 1};
	var replaced = ns.child.fresh === 1 && child === old && child.x === 5;`, "t"); err != nil {
		t.Fatal(err)
	}
	if v := global(t, realm, "replaced"); !v.Truthy() {
		t.Error("replacing an aliased property broke identity")
	}
}

// TestSnapshotRealmsIsolated proves writes stay in the writing realm
// and never reach the sealed template.
func TestSnapshotRealmsIsolated(t *testing.T) {
	snap := cowTemplate().SnapshotGlobals()
	a, b := realmOf(t, snap), realmOf(t, snap)
	render := func(in *Interp) string {
		var parts []string
		for _, name := range []string{"ns", "list", "Ctor", "child"} {
			parts = append(parts, JSONString(global(t, in, name)))
		}
		return strings.Join(parts, "|")
	}
	pristine := render(b)
	if err := a.Run(cowWrites, "t"); err != nil {
		t.Fatal(err)
	}
	if render(a) == pristine {
		t.Fatal("writes had no effect in the writing realm")
	}
	if got := render(b); got != pristine {
		t.Errorf("realm b observed realm a's writes:\n got %s\nwant %s", got, pristine)
	}
	if got := render(realmOf(t, snap)); got != pristine {
		t.Errorf("template polluted: a fresh realm renders\n %s\nwant %s", got, pristine)
	}
}

// TestSealedTemplateRejectsWrites pins the immutability of a sealed
// graph: a write that bypasses the stubs is a bug and fails loudly.
func TestSealedTemplateRejectsWrites(t *testing.T) {
	tmpl := cowTemplate()
	ns := global(t, tmpl, "ns").Obj()
	tmpl.SnapshotGlobals()
	defer func() {
		if recover() == nil {
			t.Error("writing a sealed template object must panic")
		}
	}()
	ns.Set("a", Number(2))
}

// TestSnapshotFlattensStubs seals a template built on NewInterp, whose
// builtins are stubs over the builtins snapshot: the new snapshot must
// be self-contained (no object reads through to another snapshot) and
// keep working in realms.
func TestSnapshotFlattensStubs(t *testing.T) {
	tmpl := NewInterp()
	extra := NewObject()
	extra.Set("n", Number(1))
	tmpl.Global.Define("extra", ObjectValue(extra))
	snap := tmpl.SnapshotGlobals()

	seen := map[*Object]bool{}
	var walk func(v Value)
	walk = func(v Value) {
		if v.Kind() != KindObject || seen[v.obj] {
			return
		}
		o := v.obj
		seen[o] = true
		if o.base != nil || o.id == 0 {
			t.Errorf("snapshot holds an unsealed or stub object (class %q, keys %v)", o.Class, o.Keys())
		}
		for _, k := range o.order {
			walk(o.props[k])
		}
	}
	for _, v := range snap.vals {
		walk(v)
	}
	if len(seen) != snap.objects {
		t.Errorf("walked %d sealed objects; snapshot counts %d", len(seen), snap.objects)
	}

	realm := realmOf(t, snap)
	if err := realm.Run(`Math.pi = 3; var r = JSON.stringify({k: Math.floor(extra.n + 0.5), p: Math.pi});`, "t"); err != nil {
		t.Fatal(err)
	}
	if got := global(t, realm, "r").Str(); got != `{"k":1,"p":3}` {
		t.Errorf("r = %s", got)
	}
	fresh := realmOf(t, snap)
	if err := fresh.Run(`var r = typeof Math.pi;`, "t"); err != nil {
		t.Fatal(err)
	}
	if got := global(t, fresh, "r").Str(); got != "undefined" {
		t.Errorf("a fresh realm sees another realm's Math write: typeof Math.pi = %s", got)
	}
}

// TestSnapshotConcurrentRealms runs many realms over one snapshot from
// concurrent goroutines; under -race it proves reads through the shared
// template never race with another realm's writes.
func TestSnapshotConcurrentRealms(t *testing.T) {
	snap := cowTemplate().SnapshotGlobals()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				in := NewBareInterp()
				in.InstallSnapshot(snap)
				src := fmt.Sprintf(`ns.a = %d; alias.child.x = ns.a; var r = ns.child.x + ns.list.length;`, g*100+i)
				if err := in.Run(cowWrites+src, "t"); err != nil {
					t.Error(err)
					return
				}
				if r, _ := in.Global.Get("r"); r.Num() != float64(g*100+i)+3 {
					t.Errorf("goroutine %d: r = %v", g, r.ToString())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLazyGlobalsShadowedBeforeRead: a var declaration, a function
// declaration and a sloppy assignment that run before a snapshot
// global's first read each bind the name themselves and shadow the
// snapshot value, which is then never localized.
func TestLazyGlobalsShadowedBeforeRead(t *testing.T) {
	snap := cowTemplate().SnapshotGlobals()
	realm := realmOf(t, snap)
	if err := realm.Run(`var ns = 'var'; function child() { return 'function'; } Ctor = 'assigned';
	var r = [ns, child(), Ctor, alias.a].join(',');`, "t"); err != nil {
		t.Fatal(err)
	}
	if got := global(t, realm, "r").Str(); got != "var,function,assigned,1" {
		t.Errorf("r = %q; want var,function,assigned,1", got)
	}
	for _, name := range []string{"child", "Ctor"} {
		if stub := realm.Global.lazy.objs[snap.vals[name].obj.id-1]; stub != nil {
			t.Errorf("the snapshot value of the shadowed global %s was localized", name)
		}
	}
}

// TestLazyGlobalTypeof: typeof resolves a snapshot global nothing has
// read yet, and still answers "undefined" for a name no snapshot has.
func TestLazyGlobalTypeof(t *testing.T) {
	in := NewInterp()
	if err := in.Run(`var r = [typeof parseInt, typeof JSON, typeof NaN, typeof missing].join(',');`, "t"); err != nil {
		t.Fatal(err)
	}
	if got := global(t, in, "r").Str(); got != "function,object,number,undefined" {
		t.Errorf("r = %q; want function,object,number,undefined", got)
	}
}

// TestLazyAliasingWhicheverReadFirst: a template object reached under
// several names resolves to one realm object whichever name a script
// reads first, a global or a property path.
func TestLazyAliasingWhicheverReadFirst(t *testing.T) {
	snap := cowTemplate().SnapshotGlobals()
	for _, first := range []string{"ns", "alias", "child", "list", "alias.child", "list[1]"} {
		realm := realmOf(t, snap)
		if err := realm.Run(`var first = `+first+`;
		var same = ns === alias && ns.child === child && alias.child === child &&
			list[1] === child && ns.list === list;`, "t"); err != nil {
			t.Fatal(err)
		}
		if !global(t, realm, "same").Truthy() {
			t.Errorf("reading %s first broke aliasing", first)
		}
	}
}

// TestLazyRealmsIsolated: a realm's writes and declarations stay in it
// although another realm over the same snapshot first reads the globals
// only afterwards.
func TestLazyRealmsIsolated(t *testing.T) {
	snap := cowTemplate().SnapshotGlobals()
	const read = `var r = [alias.a, alias.b, alias.added1, list.length, child.x, Ctor.static, typeof planted].join('|');`
	a, b := realmOf(t, snap), realmOf(t, snap)
	if err := a.Run(cowWrites+`var planted = 1; ns = 'shadowed';`+read, "t"); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(read, "t"); err != nil {
		t.Fatal(err)
	}
	fresh := realmOf(t, snap)
	if err := fresh.Run(read, "t"); err != nil {
		t.Fatal(err)
	}
	want := global(t, fresh, "r").Str()
	if got := global(t, b, "r").Str(); got != want {
		t.Errorf("realm b observed realm a's writes:\n got %s\nwant %s", got, want)
	}
	if got := global(t, a, "r").Str(); got == want {
		t.Error("writes had no effect in the writing realm")
	}
}

// TestSnapshotOfLazyBuiltins: NewInterp binds its builtins on first
// read, and SnapshotGlobals binds every one never read before sealing,
// so a snapshot of a NewInterp that read one builtin has the names and
// values of one taken with every builtin installed up front.
func TestSnapshotOfLazyBuiltins(t *testing.T) {
	eager := NewBareInterp()
	eager.installBuiltins()
	want := eager.SnapshotGlobals()
	lazy := NewInterp()
	global(t, lazy, "Math")
	got := lazy.SnapshotGlobals()
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("names = %v\nwant %v", got.Names(), want.Names())
	}
	for _, name := range want.Names() {
		if g, w := describe(got.vals[name]), describe(want.vals[name]); g != w {
			t.Errorf("%s = %s\nwant %s", name, g, w)
		}
	}
	if got.objects != want.objects {
		t.Errorf("sealed objects = %d; want %d", got.objects, want.objects)
	}
}

// describe renders a value graph: scalars by type and value, functions
// by name, objects by class, callable and keys in Keys() order.
func describe(v Value) string {
	var b strings.Builder
	seen := map[*Object]bool{}
	var walk func(v Value)
	walk = func(v Value) {
		switch v.Kind() {
		case KindObject:
			o := v.Obj()
			if seen[o] {
				b.WriteString("<seen " + o.Class + ">")
				return
			}
			seen[o] = true
			fmt.Fprintf(&b, "%s{", o.Class)
			if o.Call != nil {
				b.WriteString("call " + o.Call.Name + "; ")
			}
			for _, k := range o.Keys() {
				pv, _ := o.Get(k)
				b.WriteString(k + ": ")
				walk(pv)
				b.WriteString(", ")
			}
			b.WriteString("}")
		case KindArray:
			b.WriteString("[")
			for _, e := range v.Arr().Elems {
				walk(e)
				b.WriteString(", ")
			}
			b.WriteString("]")
		default:
			fmt.Fprintf(&b, "%s(%s)", v.TypeOf(), v.ToString())
		}
	}
	walk(v)
	return b.String()
}

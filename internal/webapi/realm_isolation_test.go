package webapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"permodyssey/internal/script"
)

// TestRealmIsolation proves realms stamped from the shared surface
// snapshot cannot observe each other's mutations: global writes, host
// object writes, and handler registrations stay realm-local.
func TestRealmIsolation(t *testing.T) {
	a := topLevelRealm(t, "")
	b := topLevelRealm(t, "")
	if err := a.RunScript(`
	window.tag = 'realm-a';
	navigator.planted = 42;
	document.body.planted = 'body-a';
	location.planted = true;
	addEventListener('click', function () {});
	`, ""); err != nil {
		t.Fatal(err)
	}
	if err := b.RunScript(`
	window.sawTag = typeof window.tag;
	window.sawNav = typeof navigator.planted;
	window.sawBody = typeof document.body.planted;
	window.sawLoc = typeof location.planted;
	`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := b.In.Global.Get("window")
	for _, key := range []string{"sawTag", "sawNav", "sawBody", "sawLoc"} {
		if v, _ := win.Obj().Get(key); v.ToString() != "undefined" {
			t.Errorf("realm B observed realm A's %s: %q", key, v.ToString())
		}
	}
	if a.HandlerCount("click") != 1 || b.HandlerCount("click") != 0 {
		t.Errorf("handlers leaked: a=%d b=%d", a.HandlerCount("click"), b.HandlerCount("click"))
	}
	// A third realm built after the mutations must come out pristine —
	// the template itself was not written through.
	c := topLevelRealm(t, "")
	if err := c.RunScript(`window.sawTag = typeof window.tag;`, ""); err != nil {
		t.Fatal(err)
	}
	winC, _ := c.In.Global.Get("window")
	if v, _ := winC.Obj().Get("sawTag"); v.ToString() != "undefined" {
		t.Error("template polluted: fresh realm observed an earlier realm's global write")
	}
}

// TestRealmGlobalAliasing verifies intra-snapshot aliasing survives
// copy-on-write installation, before and after the realm writes through
// each alias: window, self, and globalThis are one object; location is
// shared between window, document, and the global binding.
func TestRealmGlobalAliasing(t *testing.T) {
	r := topLevelRealm(t, "")
	const probe = `
	window.aliases = (window === self) && (window === globalThis);
	window.locShared = (window.location === location) && (document.location === location);
	window.navShared = (window.navigator === navigator) && (self.navigator === navigator);
	window.docShared = (window.document === document) && (globalThis.document === document);
	`
	keys := []string{"aliases", "locShared", "navShared", "docShared"}
	if err := r.RunScript(probe+`window.href = location.href;`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := r.In.Global.Get("window")
	for _, key := range keys {
		if v, _ := win.Obj().Get(key); !v.Truthy() {
			t.Errorf("before writes: %s = %s; want true", key, v.ToString())
		}
	}
	if v, _ := win.Obj().Get("href"); v.ToString() != "https://example.org/" {
		t.Errorf("location.href = %q; want the frame URL", v.ToString())
	}
	if err := r.RunScript(`
	self.navigator.planted = 1;
	document.location.planted = 2;
	globalThis.marker = 3;
	navigator.permissions.planted = 4;
	`+probe+`
	window.seen = navigator.planted === 1 && location.planted === 2 &&
		window.marker === 3 && window.navigator.permissions.planted === 4;
	`, ""); err != nil {
		t.Fatal(err)
	}
	for _, key := range append(keys, "seen") {
		if v, _ := win.Obj().Get(key); !v.Truthy() {
			t.Errorf("after writes: %s = %s; want true", key, v.ToString())
		}
	}
}

// TestRealmAliasingWhicheverReadFirst: the surface globals are bound on
// first read, and the aliases of one surface object still resolve to one
// realm object whichever of them a script reads first.
func TestRealmAliasingWhicheverReadFirst(t *testing.T) {
	for _, first := range []string{"self", "globalThis", "document", "navigator.permissions", "document.location"} {
		r := topLevelRealm(t, "")
		if err := r.RunScript(`var first = `+first+`;
		var same = window === self && self === globalThis && window.navigator === navigator &&
			window.document === document && document.location === location &&
			self.navigator.permissions === navigator.permissions;`, ""); err != nil {
			t.Fatal(err)
		}
		if v, _ := r.In.Global.Get("same"); !v.Truthy() {
			t.Errorf("reading %s first broke aliasing", first)
		}
	}
}

// dumpGlobals renders the value graph of the named globals canonically,
// through the public accessors: objects and arrays are numbered in
// first-visit order so aliasing shows, keys appear in Keys() order, and
// functions by name. Two interpreters with equal dumps expose the same
// surface, in the same key order, with the same sharing.
func dumpGlobals(in *script.Interp, names []string) string {
	ids := map[any]int{}
	var b strings.Builder
	var walk func(v script.Value)
	walk = func(v script.Value) {
		switch v.Kind() {
		case script.KindObject:
			o := v.Obj()
			if id, ok := ids[o]; ok {
				fmt.Fprintf(&b, "@%d", id)
				return
			}
			ids[o] = len(ids) + 1
			fmt.Fprintf(&b, "#%d<%s", ids[o], o.Class)
			if o.Call != nil {
				b.WriteString(" call " + o.Call.Name)
			}
			b.WriteString(">{")
			for _, k := range o.Keys() {
				pv, _ := o.Get(k)
				b.WriteString(k + ":")
				walk(pv)
				b.WriteString(", ")
			}
			b.WriteString("}")
		case script.KindArray:
			a := v.Arr()
			if id, ok := ids[a]; ok {
				fmt.Fprintf(&b, "@%d", id)
				return
			}
			ids[a] = len(ids) + 1
			fmt.Fprintf(&b, "#%d[", ids[a])
			for _, e := range a.Elems {
				walk(e)
				b.WriteString(", ")
			}
			b.WriteString("]")
		default:
			fmt.Fprintf(&b, "%s(%s)", v.TypeOf(), v.ToString())
		}
	}
	for _, name := range names {
		v, _ := in.Global.Get(name)
		b.WriteString(name + " = ")
		walk(v)
		b.WriteString("\n")
	}
	return b.String()
}

// writeEverything returns a script that writes every object reachable
// from the named globals — each existing key overwritten, one key added
// — and then reassigns every global. Objects are written deepest first,
// so overwriting a parent's key never cuts the path to a child.
func writeEverything(in *script.Interp, names []string) string {
	type target struct {
		path string
		obj  *script.Object
	}
	seen := map[*script.Object]bool{}
	var targets []target
	var walk func(v script.Value, path string)
	walk = func(v script.Value, path string) {
		if v.Kind() != script.KindObject || seen[v.Obj()] {
			return
		}
		seen[v.Obj()] = true
		targets = append(targets, target{path, v.Obj()})
		for _, k := range v.Obj().Keys() {
			pv, _ := v.Obj().Get(k)
			walk(pv, path+"["+strconv.Quote(k)+"]")
		}
	}
	for _, name := range names {
		v, _ := in.Global.Get(name)
		walk(v, name)
	}
	var b strings.Builder
	for i := len(targets) - 1; i >= 0; i-- {
		for _, k := range targets[i].obj.Keys() {
			fmt.Fprintf(&b, "%s[%s] = 'overwritten';\n", targets[i].path, strconv.Quote(k))
		}
		fmt.Fprintf(&b, "%s.__planted = 'planted';\n", targets[i].path)
	}
	for _, name := range names {
		fmt.Fprintf(&b, "%s = 'reassigned';\n", name)
	}
	return b.String()
}

// TestRealmTemplateImmutable drives one realm through the probe corpus
// and a script that writes every surface object and reassigns every
// global. The shared sealed surface must still equal a freshly built,
// never-sealed one — the same objects, values, sharing and key order
// the old per-realm deep clone copied — and a new realm must render
// navigator, document, location and window exactly as before.
func TestRealmTemplateImmutable(t *testing.T) {
	snap := surfaceSnapshot()
	names := snap.Names()
	render := func() string {
		r := topLevelRealm(t, "")
		if err := r.RunScript(`window.__json = [JSON.stringify(navigator), JSON.stringify(document),
			JSON.stringify(location), JSON.stringify(window)].join('\n');`, ""); err != nil {
			t.Fatal(err)
		}
		win, _ := r.In.Global.Get("window")
		v, _ := win.Obj().Get("__json")
		return v.Str()
	}
	jsonBefore := render()

	r := topLevelRealm(t, "camera=(), geolocation=self")
	for i, src := range probeCorpus {
		if err := r.RunScript(src, fmt.Sprintf("https://cdn.example/probe%d.js", i)); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if err := r.FireEvent("click"); err != nil {
		t.Fatal(err)
	}
	if err := r.RunScript(writeEverything(r.In, names), ""); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.In.Global.Get("navigator"); v.Str() != "reassigned" {
		t.Fatalf("the write-everything script did not run to the end: navigator = %s", v.ToString())
	}

	fresh := script.NewInterp()
	installSurface(fresh)
	shared := script.NewBareInterp()
	shared.InstallSnapshot(snap)
	if got, want := dumpGlobals(shared, names), dumpGlobals(fresh, names); got != want {
		t.Errorf("sealed surface differs from a freshly built one after a realm wrote everything:\n got %s\nwant %s", got, want)
	}
	if got := render(); got != jsonBefore {
		t.Errorf("a new realm renders differently after another realm's writes:\n got %s\nwant %s", got, jsonBefore)
	}
}

// TestRealmsConcurrent builds and drives realms from concurrent
// goroutines, each writing the shared surface's objects: every probe
// must record exactly what it records alone, and under -race the run
// proves realms share the sealed surface without racing.
func TestRealmsConcurrent(t *testing.T) {
	progs := make([]*script.Compiled, len(probeCorpus))
	errs := make([]error, len(probeCorpus))
	for i, src := range probeCorpus {
		progs[i], errs[i] = script.CompileSource(`navigator.planted = 1; document.body.planted = 2; window.planted = 3;` + src)
	}
	run := func(i int) string {
		r := embeddedRealm(t, "", "camera; geolocation")
		err := errs[i]
		if err == nil {
			err = r.RunCompiled(progs[i], fmt.Sprintf("https://cdn.example/p%d.js", i))
		}
		recs, _ := json.Marshal(r.Rec.Invocations)
		return fmt.Sprintf("error=%v %s", err != nil, recs)
	}
	want := make([]string, len(probeCorpus))
	for i := range probeCorpus {
		want[i] = run(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range probeCorpus {
				if got := run(i); got != want[i] {
					t.Errorf("probe %d under concurrency:\n got %s\nwant %s", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRealmPerRealmState verifies the patched-in per-realm scalars and
// the call-time Browser/Version reads survive the template split.
func TestRealmPerRealmState(t *testing.T) {
	top := topLevelRealm(t, "")
	if err := top.RunScript(`
	window.ua = navigator.userAgent;
	window.secure = window.isSecureContext;
	window.origin = location.origin;
	`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := top.In.Global.Get("window")
	if v, _ := win.Obj().Get("ua"); v.ToString() != "Mozilla/5.0 (X11; Linux x86_64) Chrome/127.0.0.0" {
		t.Errorf("userAgent = %q", v.ToString())
	}
	if v, _ := win.Obj().Get("secure"); !v.Truthy() {
		t.Error("https frame must be a secure context")
	}
	if v, _ := win.Obj().Get("origin"); v.ToString() != "https://example.org" {
		t.Errorf("origin = %q", v.ToString())
	}

	emb := embeddedRealm(t, "", "")
	if err := emb.RunScript(`window.href = location.href;`, ""); err != nil {
		t.Fatal(err)
	}
	winE, _ := emb.In.Global.Get("window")
	if v, _ := winE.Obj().Get("href"); v.ToString() != "https://widget.example/embed" {
		t.Errorf("embedded href = %q", v.ToString())
	}
}

// TestServiceWorkerRegistrationsIndependent verifies register() hands
// out a fresh registration per call instead of a snapshot-shared
// singleton: a mutation through one realm's registration must not
// appear in another realm, and subscribe() still gates on context.
func TestServiceWorkerRegistrationsIndependent(t *testing.T) {
	a := topLevelRealm(t, "")
	b := topLevelRealm(t, "")
	if err := a.RunScript(`
	navigator.serviceWorker.register('/sw.js').then(function (reg) { reg.planted = 1; });
	navigator.serviceWorker.ready.then(function (reg) { reg.planted = 2; });
	`, ""); err != nil {
		t.Fatal(err)
	}
	if err := b.RunScript(`
	window.saw = 'none';
	navigator.serviceWorker.register('/sw.js').then(function (reg) {
		window.saw = typeof reg.planted;
		return reg.pushManager.subscribe();
	});
	navigator.serviceWorker.ready.then(function (reg) { window.sawReady = typeof reg.planted; });
	`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := b.In.Global.Get("window")
	if v, _ := win.Obj().Get("saw"); v.ToString() != "undefined" {
		t.Errorf("registration shared across realms: typeof planted = %q", v.ToString())
	}
	if v, _ := win.Obj().Get("sawReady"); v.ToString() != "undefined" {
		t.Errorf("ready registration shared across realms: typeof planted = %q", v.ToString())
	}
	if invs := b.Rec.ByKind(KindInvocation); len(invs) != 1 || invs[0].API != "pushManager.subscribe" || invs[0].Blocked {
		t.Errorf("subscribe via fresh registration: %+v", invs)
	}
}

// probeCorpus exercises the instrumented surface broadly — promise
// chains, callbacks, constructors, errors, handlers. It lives in
// testdata so the script package's fuzz targets seed from it too.
var probeCorpus = loadProbeCorpus()

func loadProbeCorpus() []string {
	raw, err := os.ReadFile("testdata/probe_corpus.json")
	if err != nil {
		panic(err)
	}
	var corpus []string
	if err := json.Unmarshal(raw, &corpus); err != nil {
		panic(err)
	}
	return corpus
}

// TestCompiledRealmRecordsIdentical runs every probe through a realm
// and requires its error and recorded invocations to match
// testdata/probe_invocations.golden.json byte for byte. The golden was
// recorded from the AST interpreter the compiler replaced — the
// zero-behavioral-diff acceptance gate.
func TestCompiledRealmRecordsIdentical(t *testing.T) {
	var want []struct {
		Err         string
		Invocations json.RawMessage
	}
	raw, err := os.ReadFile("testdata/probe_invocations.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(probeCorpus) {
		t.Fatalf("golden has %d probes, corpus %d", len(want), len(probeCorpus))
	}
	for i, src := range probeCorpus {
		r := topLevelRealm(t, "camera=(), geolocation=self")
		prog, err := script.CompileSource(src)
		if err == nil {
			err = r.RunCompiled(prog, fmt.Sprintf("https://cdn.example/probe%d.js", i))
		}
		var errText string
		if err != nil {
			errText = err.Error()
		}
		if errText != want[i].Err {
			t.Errorf("probe %d: error %q, golden %q", i, errText, want[i].Err)
		}
		if err := r.FireEvent("click"); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		got, err := json.Marshal(r.Rec.Invocations)
		if err != nil {
			t.Fatal(err)
		}
		var golden bytes.Buffer
		if err := json.Compact(&golden, want[i].Invocations); err != nil {
			t.Fatal(err)
		}
		if string(got) != golden.String() {
			t.Errorf("probe %d: recorded invocations differ from the golden\ngot:  %s\nwant: %s", i, got, golden.String())
		}
	}
}

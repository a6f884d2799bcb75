package browser

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"permodyssey/internal/memo"
	"permodyssey/internal/script"
)

// scriptBrowser returns a browser over fetcher with a script cache of
// at most maxBytes of script source (0 = unbounded).
func scriptBrowser(fetcher Fetcher, maxBytes int64) *Browser {
	opts := DefaultOptions()
	opts.ScriptCache = memo.New[memo.Key, *Script](maxBytes)
	return New(fetcher, opts)
}

// mustScript derives src's Script through b, failing the test on an
// error.
func mustScript(t *testing.T, b *Browser, src string) *Script {
	t.Helper()
	sc, err := b.scriptFor(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestScriptCache: one body derived twice shares one compiled program,
// and a body that fails to compile comes back through the cache with
// its error.
func TestScriptCache(t *testing.T) {
	b := scriptBrowser(MapFetcher{}, 0)
	a, again := mustScript(t, b, "var x = 1 + 2;"), mustScript(t, b, "var x = 1 + 2;")
	if a.Err != nil || a.Prog == nil || again.Prog != a.Prog {
		t.Fatalf("same body should share one compiled program: %+v vs %+v", a, again)
	}
	if broken := mustScript(t, b, "var broken = ;"); broken.Err == nil || broken.Prog != nil {
		t.Fatalf("want a parse error through the script cache, got %+v", broken)
	}
	if s := b.Opts.ScriptCache.Stats(); s.Hits != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 2 entries", s)
	}
}

// TestScriptCacheHitMiss: a repeated body is a hit that returns the
// cached program, and a new body is a miss with a program of its own.
func TestScriptCacheHitMiss(t *testing.T) {
	b := scriptBrowser(MapFetcher{}, 0)
	a, again := mustScript(t, b, "var x = 1 + 2;"), mustScript(t, b, "var x = 1 + 2;")
	if a.Err != nil || a.Prog == nil || again.Prog != a.Prog {
		t.Fatalf("same body should share one compiled program: %+v vs %+v", a, again)
	}
	if other := mustScript(t, b, "var y = 3;"); other.Prog == a.Prog {
		t.Error("distinct bodies share one compiled program")
	}
	if s := b.Opts.ScriptCache.Stats(); s.Misses != 2 || s.Hits != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 2 misses, 1 hit, 2 entries", s)
	}
}

// TestScriptCacheCompileErrorCached: a body that fails to compile is
// cached with its error, so it fails the same way without recompiling.
func TestScriptCacheCompileErrorCached(t *testing.T) {
	b := scriptBrowser(MapFetcher{}, 0)
	first, second := mustScript(t, b, "var = ;"), mustScript(t, b, "var = ;")
	if first.Err == nil || first.Prog != nil {
		t.Fatalf("want a parse error, got %+v", first)
	}
	if second.Err != first.Err {
		t.Errorf("error not cached: %v vs %v", first.Err, second.Err)
	}
	if s := b.Opts.ScriptCache.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the failure compiled once", s)
	}
}

// TestScriptCacheConcurrent hammers one body from many goroutines:
// exactly one compile happens, and under -race the shared program runs
// safely in private interpreters, the way crawl workers share one
// compiled widget script.
func TestScriptCacheConcurrent(t *testing.T) {
	b := scriptBrowser(MapFetcher{}, 0)
	src := `function f(n) { var total = 0; for (var i = 0; i < n; i++) { total += i; } return total; } var r = f(10);`
	const goroutines = 32
	progs := make([]*script.Compiled, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := b.scriptFor(context.Background(), src)
			if err != nil || sc.Err != nil {
				t.Error(err, sc.Err)
				return
			}
			progs[i] = sc.Prog
			in := script.NewInterp()
			if err := in.RunCompiled(sc.Prog, "https://cdn.example/lib.js"); err != nil {
				t.Error(err)
			}
			if v, _ := in.Global.Get("r"); v.Num() != 45 {
				t.Errorf("r = %v, want 45", v.Num())
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if progs[i] != progs[0] {
			t.Fatal("goroutines saw different programs for one body")
		}
	}
	s := b.Opts.ScriptCache.Stats()
	if s.Misses != 1 || s.Entries != 1 || s.Hits+s.Coalesced != goroutines-1 {
		t.Errorf("stats = %+v, want exactly one compile shared by %d others", s, goroutines-1)
	}
}

// TestScriptCacheEviction: a cache bounded to two bodies' bytes drops
// the least recently used body, which compiles again on its next
// sight.
func TestScriptCacheEviction(t *testing.T) {
	src := func(i int) string { return fmt.Sprintf("var x%d = %d;", i, i+10) }
	b := scriptBrowser(MapFetcher{}, 2*int64(len(src(0))))
	first := mustScript(t, b, src(0))
	mustScript(t, b, src(1))
	mustScript(t, b, src(2))
	if s := b.Opts.ScriptCache.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("want 2 entries and 1 eviction, got %+v", s)
	}
	mustScript(t, b, src(2))
	if s := b.Opts.ScriptCache.Stats(); s.Hits != 1 {
		t.Fatalf("recently used body not a hit: %+v", s)
	}
	again := mustScript(t, b, src(0))
	if s := b.Opts.ScriptCache.Stats(); s.Misses != 4 {
		t.Fatalf("evicted body should recompile (4 misses), got %+v", s)
	}
	if again == first || again.Prog == first.Prog {
		t.Fatal("evicted body returned the dropped program instead of a recompile")
	}
	in := script.NewInterp()
	if err := in.RunCompiled(again.Prog, "t"); err != nil {
		t.Fatal(err)
	}
	if v, _ := in.Global.Get("x0"); v.Num() != 10 {
		t.Fatalf("recompiled program ran wrong: x0 = %v", v.ToString())
	}
}

// TestScriptCacheRescanAfterEviction: the bound holds across page
// visits, and a page whose script body was evicted scans it again, its
// frame getting findings stamped with the script's URL.
func TestScriptCacheRescanAfterEviction(t *testing.T) {
	fetcher := MapFetcher{}
	lib := func(i int) string { return fmt.Sprintf("https://cdn.test/lib%d.js", i) }
	site := func(i int) string { return fmt.Sprintf("https://site%d.example/", i) }
	body := func(i int) string {
		return fmt.Sprintf("var v%d = %d; navigator.geolocation.getCurrentPosition(cb);", i, i)
	}
	for i := 0; i < 3; i++ {
		fetcher[site(i)] = page(fmt.Sprintf(`<script src="%s"></script>`, lib(i)), nil)
		fetcher[lib(i)] = &Response{Status: 200, Body: body(i)}
	}
	b := scriptBrowser(fetcher, 2*int64(len(body(0))))
	visit := func(i int) {
		t.Helper()
		res, err := b.Visit(context.Background(), site(i))
		if err != nil {
			t.Fatal(err)
		}
		fs := res.TopFrame().StaticFindings
		if len(fs) == 0 || fs[0].Permission != "geolocation" || fs[0].ScriptURL != lib(i) {
			t.Fatalf("site %d findings = %+v, want geolocation from %s", i, fs, lib(i))
		}
	}
	for i := 0; i < 3; i++ {
		visit(i)
	}
	if s := b.Opts.ScriptCache.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("want 2 entries and 1 eviction, got %+v", s)
	}
	visit(0)
	if s := b.Opts.ScriptCache.Stats(); s.Misses != 4 {
		t.Fatalf("evicted script should re-scan (4 misses), got %+v", s)
	}
}

// TestScriptCacheStampsFindings: frames including one script body from
// different URLs share one scan, and each frame's findings carry its
// own URL; the cached findings stay URL-less.
func TestScriptCacheStampsFindings(t *testing.T) {
	lib := `navigator.geolocation.getCurrentPosition(cb);`
	fetcher := MapFetcher{
		"https://site.example/": page(`<script src="https://cdn-a.test/lib.js"></script>
			<iframe src="https://widget.example/embed"></iframe>`, nil),
		"https://widget.example/embed": page(`<script src="https://cdn-b.test/lib.js"></script>`, nil),
		"https://cdn-a.test/lib.js":    {Status: 200, Body: lib},
		"https://cdn-b.test/lib.js":    {Status: 200, Body: lib},
	}
	b := scriptBrowser(fetcher, 0)
	res, err := b.Visit(context.Background(), "https://site.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 2 {
		t.Fatalf("frames: %d", len(res.Frames))
	}
	for i, want := range []string{"https://cdn-a.test/lib.js", "https://cdn-b.test/lib.js"} {
		fs := res.Frames[i].StaticFindings
		if len(fs) == 0 || fs[0].Permission != "geolocation" || fs[0].ScriptURL != want {
			t.Errorf("frame %d findings = %+v, want geolocation from %s", i, fs, want)
		}
	}
	if s := b.Opts.ScriptCache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("want 1 hit / 1 miss, got %+v", s)
	}
	if cached := mustScript(t, b, lib); cached.Findings[0].ScriptURL != "" {
		t.Errorf("a frame's URL leaked into the shared findings: %q", cached.Findings[0].ScriptURL)
	}
}

// TestScriptCacheCleanScript: a body with no findings is cached too,
// and its frames get nil findings.
func TestScriptCacheCleanScript(t *testing.T) {
	fetcher := MapFetcher{"https://site.example/": page(`<script>var a = 1;</script><script>var a = 1;</script>`, nil)}
	b := scriptBrowser(fetcher, 0)
	res, err := b.Visit(context.Background(), "https://site.example/")
	if err != nil {
		t.Fatal(err)
	}
	if fs := res.TopFrame().StaticFindings; fs != nil {
		t.Fatalf("clean script produced findings: %v", fs)
	}
	if s := b.Opts.ScriptCache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("want 1 hit / 1 miss for the clean script, got %+v", s)
	}
}

// TestFramesWithoutScriptsBuildNoRealm: a frame gets its realm when its
// first script runs, so a frame that runs none (no script, or only
// scripts that fail to load or compile) builds no realm and records
// nothing. When every frame got a realm and a load event, these visits
// allocated 1,049 and 1,450 times; without, 104 and 505 (about 600
// under -race, whose sync.Pool drops items).
func TestFramesWithoutScriptsBuildNoRealm(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pins need a quiet heap")
	}
	for _, tc := range []struct {
		name, frame string
		// limit bounds a visit's allocations, well below a realm per
		// frame (about 47 allocations each).
		limit float64
	}{
		{"empty", `<iframe srcdoc=""></iframe>`, 200},
		{"failing scripts", `<iframe srcdoc="&lt;script&gt;(&lt;/script&gt;&lt;script src=/gone.js&gt;&lt;/script&gt;"></iframe>`, 700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			page := page(strings.Repeat(tc.frame, 20), nil)
			b := scriptBrowser(MapFetcher{"https://site.example/": page}, 0)
			visit := func() {
				res, err := b.Visit(context.Background(), "https://site.example/")
				if err != nil || len(res.Frames) != 21 {
					t.Fatalf("visit: %v", err)
				}
				for _, fr := range res.Frames {
					if fr.Invocations != nil {
						t.Fatalf("frame %s recorded %v", fr.URL, fr.Invocations)
					}
				}
			}
			got := testing.AllocsPerRun(50, visit)
			t.Logf("%.0f allocs per visit", got)
			if got > tc.limit {
				t.Errorf("a visit of 20 frames that run no script allocates %.0f times; want <= %.0f", got, tc.limit)
			}
		})
	}
}

// TestDataBlockScriptsSkipped: a script element whose type names no
// JavaScript is a data block, which a browser neither fetches nor runs.
// It leaves no script URL, error, static finding or invocation, so a
// missing data file cannot mark the record Partial, while the page's
// classic script still runs.
func TestDataBlockScriptsSkipped(t *testing.T) {
	fetcher := MapFetcher{
		"https://site.example/": page(`
			<script type="application/ld+json">{"api": "navigator.getBattery()"}</script>
			<script type="text/template"><p>{{navigator.geolocation.getCurrentPosition()}}</p></script>
			<script type="text/plain" src="/notes.txt"></script>
			<script>navigator.permissions.query({name: 'notifications'});</script>`, nil),
	}
	res, err := New(fetcher, DefaultOptions()).Visit(context.Background(), "https://site.example/")
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopFrame()
	if top.ScriptURLs != nil || top.ScriptErrors != nil {
		t.Errorf("data blocks were loaded or run: URLs %q, errors %q", top.ScriptURLs, top.ScriptErrors)
	}
	for _, f := range top.StaticFindings {
		if f.Permission == "battery" || f.Permission == "geolocation" {
			t.Errorf("static finding from a data block: %+v", f)
		}
	}
	if len(top.Invocations) != 1 || top.Invocations[0].API != "navigator.permissions.query" {
		t.Errorf("invocations: %+v; want the classic script's one query", top.Invocations)
	}
}

// Package permodyssey's root benchmark harness regenerates every table
// and figure of the paper's evaluation (go test -bench=. -benchmem).
// Each Benchmark prints its table or experiment once to stderr and then
// measures the cost of recomputing it; BenchmarkReport prints the full
// report and times the whole report path over the shared crawl dataset.
// The crawl itself is performed once per process over a deterministic
// synthetic web.
package permodyssey

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"permodyssey/internal/analysis"
	"permodyssey/internal/browser"
	"permodyssey/internal/core"
	"permodyssey/internal/crawler"
	"permodyssey/internal/html"
	"permodyssey/internal/memo"
	"permodyssey/internal/origin"
	"permodyssey/internal/permissions"
	"permodyssey/internal/policy"
	"permodyssey/internal/script"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

const benchSeed = 20240823 // the paper's crawl began August 23, 2024

// benchSites sizes the shared dataset; the CI bench-smoke step shrinks
// it via the environment so `-benchtime 1x` stays fast.
var benchSites = envSites("PERMODYSSEY_BENCH_SITES", 1500)

func envSites(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

var (
	benchOnce sync.Once
	benchDS   *store.Dataset
	benchErr  error
	// benchReport keeps each timed report alive, so the compiler
	// cannot drop the call.
	benchReport analysis.ReportData
)

// benchDataset crawls the shared synthetic web once.
func benchDataset(b *testing.B) *store.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		cfg := synthweb.DefaultConfig()
		cfg.NumSites = benchSites
		cfg.Seed = benchSeed
		srv := synthweb.NewServer(cfg)
		srv.StallTime = 300 * time.Millisecond
		if benchErr = srv.Start(); benchErr != nil {
			return
		}
		defer srv.Close()
		br := browser.New(browser.NewHTTPFetcher(srv.Client(0)), browser.DefaultOptions())
		c := crawler.New(br, crawler.Config{Workers: 24, PerSiteTimeout: 150 * time.Millisecond})
		var targets []crawler.Target
		for _, s := range srv.Sites() {
			targets = append(targets, crawler.Target{Rank: s.Rank, URL: s.URL()})
		}
		benchDS = c.Crawl(context.Background(), targets)
		fmt.Fprintf(os.Stderr, "[bench] crawled %d sites: %v\n", benchSites, benchDS.FailureCounts())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

// printOnce emits a table to stderr exactly once per benchmark name.
var printed sync.Map

func printOnce(name, table string) {
	if _, loaded := printed.LoadOrStore(name, true); !loaded {
		fmt.Fprintf(os.Stderr, "\n[bench %s]\n%s\n", name, table)
	}
}

// BenchmarkTable1_CameraInterplay evaluates the eight header × allow
// configurations of Table 1 through the policy engine.
func BenchmarkTable1_CameraInterplay(b *testing.B) {
	exampleOrg := origin.MustParse("https://example.org")
	iframeCom := origin.MustParse("https://iframe.com")
	cases := []struct{ header, allow string }{
		{"", ""}, {"", "camera"},
		{"camera=()", "camera"}, {"camera=(self)", "camera"},
		{"camera=(*)", ""}, {"camera=(*)", "camera"},
		{`camera=(self "https://iframe.com")`, "camera"},
		{`camera=("https://iframe.com")`, "camera"},
	}
	var table string
	for i, tc := range cases {
		var declared policy.Policy
		if tc.header != "" {
			declared, _, _ = policy.ParsePermissionsPolicy(tc.header)
		}
		top := policy.NewTopLevel(exampleOrg, declared)
		allow, _ := policy.ParseAllowAttr(tc.allow)
		frame := policy.NewSubframe(top, policy.FrameSpec{
			SrcOrigin: iframeCom, DocumentOrigin: iframeCom, Allow: allow,
		}, policy.SpecActual)
		table += fmt.Sprintf("#%d header=%-38q allow=%-8q top=%v iframe=%v\n",
			i+1, tc.header, tc.allow, top.Allowed("camera"), frame.Allowed("camera"))
	}
	printOnce(b.Name(), table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tc := range cases {
			var declared policy.Policy
			if tc.header != "" {
				declared, _, _ = policy.ParsePermissionsPolicy(tc.header)
			}
			top := policy.NewTopLevel(exampleOrg, declared)
			allow, _ := policy.ParseAllowAttr(tc.allow)
			frame := policy.NewSubframe(top, policy.FrameSpec{
				SrcOrigin: iframeCom, DocumentOrigin: iframeCom, Allow: allow,
			}, policy.SpecActual)
			_ = frame.Allowed("camera")
		}
	}
}

// BenchmarkTable2_Characteristics regenerates the permission
// characteristics examples.
func BenchmarkTable2_Characteristics(b *testing.B) {
	names := []string{"camera", "geolocation", "gamepad", "notifications", "push"}
	var table string
	for _, n := range names {
		p, _ := permissions.Lookup(n)
		table += fmt.Sprintf("%-14s powerful=%-5v policy-controlled=%-5v default=%s\n",
			n, p.Powerful, p.PolicyControlled(), p.Default)
	}
	printOnce(b.Name(), table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			if _, ok := permissions.Lookup(n); !ok {
				b.Fatal("missing permission")
			}
		}
	}
}

// BenchmarkReport regenerates every table and figure of §4-§5 from
// the shared dataset (Tables 3-10/13, Figure 2, the failure taxonomy,
// the §4.2.2 directives and the §4.3.3 misconfigurations), printing the
// full report once with two ablations read off it, and times the whole
// report path: one fold over the records plus ReportData.
//
// The ablations: static-only vs dynamic-only vs hybrid detection (the
// design rationale of §3.1.1), and the first-occurrence rule of §4.1,
// raw invocation records versus deduplicated contexts.
func BenchmarkReport(b *testing.B) {
	ds := benchDataset(b)
	a := analysis.New(ds)
	rd := a.ReportData(0)
	raw := 0
	for _, rec := range ds.Successful() {
		for _, f := range rec.Page.Frames {
			raw += len(f.Invocations)
		}
	}
	contexts := rd.Table4Total.TotalContexts
	printOnce(b.Name(), a.FullReport()+fmt.Sprintf(
		"\nAblation: detection method\n"+
			"dynamic-only: %d websites\nstatic-only:  %d websites\nhybrid:       %d websites (+%d over dynamic alone)\n"+
			"\nAblation: first-occurrence dedup\n"+
			"raw invocation records:        %d\nfirst-occurrence contexts:     %d (%.1fx inflation avoided)\n",
		rd.Usage.WithAnyInvocation, rd.Static.Websites, rd.Hybrid.AnyActivity, rd.Hybrid.AnyActivity-rd.Usage.WithAnyInvocation,
		raw, contexts, float64(raw)/float64(max(1, contexts))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchReport = analysis.New(ds).ReportData(10)
	}
}

// BenchmarkTable11_SpecIssue probes the local-scheme inheritance bug in
// both specification modes.
func BenchmarkTable11_SpecIssue(b *testing.B) {
	out, err := core.RenderSpecIssue("https://example.org", "https://attacker.example")
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b.Name(), out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mode := range []policy.SpecMode{policy.SpecActual, policy.SpecExpected} {
			if _, err := core.ProbeSpecIssue("https://example.org", "https://attacker.example", mode); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable12_ManualValidation runs the Appendix A.3 interaction
// experiment (3 populations, no-interaction vs interaction pass).
func BenchmarkTable12_ManualValidation(b *testing.B) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = 300
	cfg.Seed = benchSeed + 1
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0
	v := core.ValidationExperiment{Web: cfg, SitesPerExperiment: 15}
	rows, err := v.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b.Name(), core.RenderValidation(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md design-choice studies) ----

// BenchmarkAblationLazyScroll crawls a small population with and
// without lazy-iframe scrolling, measuring the frame-coverage loss the
// paper's scrolling design avoids.
func BenchmarkAblationLazyScroll(b *testing.B) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = 200
	cfg.Seed = benchSeed + 2
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0
	run := func(scroll bool) int {
		srv := synthweb.NewServer(cfg)
		if err := srv.Start(); err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		opts := browser.DefaultOptions()
		opts.ScrollLazyIframes = scroll
		br := browser.New(browser.NewHTTPFetcher(srv.Client(0)), opts)
		c := crawler.New(br, crawler.Config{Workers: 16, PerSiteTimeout: 300 * time.Millisecond})
		var targets []crawler.Target
		for _, s := range srv.Sites() {
			targets = append(targets, crawler.Target{Rank: s.Rank, URL: s.URL()})
		}
		ds := c.Crawl(context.Background(), targets)
		frames := 0
		for _, r := range ds.Successful() {
			frames += len(r.Page.Frames)
		}
		return frames
	}
	withScroll := run(true)
	withoutScroll := run(false)
	printOnce(b.Name(), fmt.Sprintf(
		"frames with lazy-scrolling: %d\nframes without:             %d (%.1f%% coverage loss)\n",
		withScroll, withoutScroll, 100*float64(withScroll-withoutScroll)/float64(withScroll)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(true)
	}
}

// BenchmarkAblationOverpermissionThreshold sweeps the §5 prevalence
// threshold, showing the paper's 5% choice sits on a stable plateau.
func BenchmarkAblationOverpermissionThreshold(b *testing.B) {
	a := analysis.New(benchDataset(b))
	var table string
	for _, th := range []float64{0.01, 0.05, 0.20, 0.50, 0.90} {
		cfg := analysis.OverPermissionConfig{Threshold: th, MinInclusions: 3}
		rows, total := a.OverPermissioned(cfg, 0)
		table += fmt.Sprintf("threshold %4.0f%%: %3d widgets flagged, %4d affected websites\n",
			th*100, len(rows), total)
	}
	printOnce(b.Name(), table)
	cfg := analysis.DefaultOverPermissionConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.OverPermissioned(cfg, 0)
	}
}

// BenchmarkAblationInternalLinks measures the coverage the paper's
// landing-page-only scope gives up (§6.1): crawl the same population
// with and without internal-link following and compare the permissions
// discovered.
func BenchmarkAblationInternalLinks(b *testing.B) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = 250
	cfg.Seed = benchSeed + 4
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0
	run := func(follow int) *store.Dataset {
		srv := synthweb.NewServer(cfg)
		if err := srv.Start(); err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		br := browser.New(browser.NewHTTPFetcher(srv.Client(0)), browser.DefaultOptions())
		c := crawler.New(br, crawler.Config{Workers: 16, PerSiteTimeout: 5 * time.Second, FollowInternalLinks: follow})
		var targets []crawler.Target
		for _, s := range srv.Sites() {
			targets = append(targets, crawler.Target{Rank: s.Rank, URL: s.URL()})
		}
		return c.Crawl(context.Background(), targets)
	}
	withLinks := run(3)
	gain := analysis.New(withLinks).ReportData(0).InternalGain
	printOnce(b.Name(), fmt.Sprintf(
		"internal pages visited on %d sites; %d sites gained permissions only visible there (%v)\n",
		gain.SitesWithInternalPages, gain.SitesWithNewPermissions, gain.PermissionsGained))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(0)
	}
}

// ---- Crawl-at-scale: shared resource cache ----

// fetchCounter counts the HTTP fetches that actually reach the network
// layer, independent of any cache stacked above it.
type fetchCounter struct {
	inner browser.Fetcher
	n     atomic.Int64
}

func (f *fetchCounter) Fetch(ctx context.Context, rawURL string) (*browser.Response, error) {
	f.n.Add(1)
	return f.inner.Fetch(ctx, rawURL)
}

// crawlBench crawls the default-scale population once per iteration,
// with or without the shared fetch and script caches, and reports how
// many HTTP fetches and script parses the crawl actually performed.
// Compare BenchmarkCrawlCached against BenchmarkCrawlUncached: the
// caches collapse the per-site re-fetching and re-compiling of the
// Zipf-popular shared widget documents and CDN scripts.
func crawlBench(b *testing.B, cached bool) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = envSites("PERMODYSSEY_BENCH_CRAWL_SITES", cfg.NumSites)
	cfg.Seed = benchSeed + 5
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0

	srv := synthweb.NewServer(cfg)
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	var targets []crawler.Target
	for _, s := range srv.Sites() {
		targets = append(targets, crawler.Target{Rank: s.Rank, URL: s.URL()})
	}

	var fetches, parses, scripts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counter := &fetchCounter{inner: browser.NewHTTPFetcher(srv.Client(0))}
		var fetcher browser.Fetcher = counter
		opts := browser.DefaultOptions()
		if cached {
			fetcher = browser.NewCachingFetcher(counter, 0)
			opts.ScriptCache = memo.New[memo.Key, *browser.Script](0)
		}
		c := crawler.New(browser.New(fetcher, opts),
			crawler.Config{Workers: 24, PerSiteTimeout: 10 * time.Second})
		ds := c.Crawl(context.Background(), targets)
		if len(ds.Records) != cfg.NumSites {
			b.Fatal("short crawl")
		}
		fetches = counter.n.Load()
		if cached {
			cs := opts.ScriptCache.Stats()
			parses = int64(cs.Misses)
			scripts = int64(cs.Hits + cs.Misses + cs.Coalesced)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fetches), "fetches/op")
	if cached {
		b.ReportMetric(float64(parses), "parses/op")
		printOnce(b.Name(), fmt.Sprintf(
			"%d sites: %d HTTP fetches; %d scripts executed, %d parsed (cache)\n",
			cfg.NumSites, fetches, scripts, parses))
	} else {
		printOnce(b.Name(), fmt.Sprintf(
			"%d sites: %d HTTP fetches, every script parsed per inclusion (no cache)\n",
			cfg.NumSites, fetches))
	}
}

func BenchmarkCrawlUncached(b *testing.B) { crawlBench(b, false) }
func BenchmarkCrawlCached(b *testing.B)   { crawlBench(b, true) }

// ---- Interpreter: compiled execution ----

// interpSmall is a typical short probe: config objects, a recursive
// helper, string assembly.
const interpSmall = `
var cfg = {retries: 3, delay: 10, tag: 'probe'};
function backoff(n) { return n <= 0 ? cfg.delay : backoff(n - 1) * 2; }
var msg = cfg.tag + ':' + backoff(cfg.retries);
var parts = [];
for (var i = 0; i < 8; i++) { parts.push(msg.length + i); }
var out = JSON.stringify({msg: msg, sum: parts.length});
`

// interpLoop is the interpreter-bound workload: a hot loop inside a
// function scope, run on slot-resolved locals, its body's block frame
// allocated afresh each iteration. This is the shape of real widget
// code — analytics loops, array scans.
const interpLoop = `
var total = (function () {
	var sum = 0;
	var weight = 3;
	for (var i = 0; i < 2500; i++) {
		var a = i * 2 + 1;
		var b = a % 7;
		sum = sum + a * weight - b;
	}
	return sum;
})();
`

// interpWidget models a consent-widget script: closures over state,
// object graphs, try/catch, array methods, repeated small calls.
const interpWidget = `
var state = {granted: [], denied: [], errors: 0};
function makeChecker(name) {
	return function (allowed) {
		if (allowed) { state.granted.push(name); } else { state.denied.push(name); }
		return state.granted.length;
	};
}
var names = ['camera', 'microphone', 'geolocation', 'notifications', 'midi'];
var checkers = [];
for (var i = 0; i < names.length; i++) { checkers.push(makeChecker(names[i])); }
for (var round = 0; round < 40; round++) {
	for (var j = 0; j < checkers.length; j++) {
		try {
			checkers[j]((round + j) % 3 !== 0);
			if (round % 7 === 0) { throw {code: round}; }
		} catch (e) {
			state.errors++;
		}
	}
}
var summary = JSON.stringify({g: state.granted.length, d: state.denied.length, e: state.errors});
`

// interpBench executes one pre-compiled script per iteration on a fresh
// interpreter — the per-frame execution pattern of a crawl, where the
// program is shared via the compile cache and only execution state is
// per-realm.
func interpBench(b *testing.B, src string) {
	prog, err := script.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := script.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := script.NewInterp()
		if err := in.RunCompiled(cp, "https://cdn.example/w.js"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpretSmallCompiled(b *testing.B)  { interpBench(b, interpSmall) }
func BenchmarkInterpretLoopCompiled(b *testing.B)   { interpBench(b, interpLoop) }
func BenchmarkInterpretWidgetCompiled(b *testing.B) { interpBench(b, interpWidget) }

// ---- DOM: extraction throughput and walks ----

// genPage builds a deterministic synthetic document of roughly `blocks`
// content blocks, shaped like the synthetic web's pages: text runs,
// permission-bearing iframes, inline and external scripts, links,
// entity references, and the occasional tag soup.
func genPage(r *rand.Rand, blocks int) string {
	var sb strings.Builder
	sb.WriteString("<!doctype html><html><head><title>bench &amp; page</title></head><body>\n")
	for i := 0; i < blocks; i++ {
		switch r.Intn(6) {
		case 0:
			fmt.Fprintf(&sb, `<div class="row r%d"><p>block %d text with &quot;entities&quot; and more words to scan</p></div>`, i, i)
		case 1:
			fmt.Fprintf(&sb, `<iframe src="https://widget.example/embed/%d" allow="camera %d; microphone *" loading="lazy"></iframe>`, r.Intn(50), i)
		case 2:
			fmt.Fprintf(&sb, `<script src="https://cdn.example/lib%d.js"></script>`, r.Intn(20))
		case 3:
			fmt.Fprintf(&sb, `<script>var q%d = init(%d); if (q%d < %d) { track("<span>"); }</script>`, i, i, i, r.Intn(100))
		case 4:
			fmt.Fprintf(&sb, `<a href="/page/%d">internal</a><a href="https://other.example/%d">external</a>`, i, r.Intn(30))
		case 5:
			fmt.Fprintf(&sb, `<div><span>unclosed %d<b>soup`, i)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("</body></html>\n")
	return sb.String()
}

// parseCorpus generates n distinct documents of the given size.
func parseCorpus(n, blocks int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	docs := make([]string, n)
	for i := range docs {
		docs[i] = genPage(r, blocks)
	}
	return docs
}

// parseBenchCold extracts every document from scratch each iteration —
// what the crawl pays for every fetched document.
func parseBenchCold(b *testing.B, docs []string) {
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d))
	}
	b.SetBytes(bytes / int64(len(docs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = html.Extract(docs[i%len(docs)])
	}
}

func BenchmarkParseHTMLSmallCold(b *testing.B) { parseBenchCold(b, parseCorpus(16, 12, benchSeed)) }
func BenchmarkParseHTMLLargeCold(b *testing.B) { parseBenchCold(b, parseCorpus(4, 800, benchSeed)) }

// zipfSequence draws a Zipf-distributed access sequence over a corpus of 64
// distinct documents — the crawl's real body-popularity shape, where a
// few shared widget documents dominate fetches.
func zipfSequence(n int) ([]string, []int) {
	docs := parseCorpus(64, 40, benchSeed+7)
	r := rand.New(rand.NewSource(benchSeed + 8))
	z := rand.NewZipf(r, 1.3, 1, uint64(len(docs)-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return docs, seq
}

// BenchmarkParseHTMLZipfCold extracts every access of a Zipf sequence,
// as the crawl extracts every frame's document.
func BenchmarkParseHTMLZipfCold(b *testing.B) {
	docs, seq := zipfSequence(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = html.Extract(docs[seq[i%len(seq)]])
	}
}

// BenchmarkExtractThreeWalk vs SingleWalk: Parse plus the three
// FindAll-walk wrappers against Extract, which reads the same iframes,
// scripts and links in one tokenizer pass without building a tree.
func BenchmarkExtractThreeWalk(b *testing.B) {
	docs := parseCorpus(16, 40, benchSeed+9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := html.Parse(docs[i%len(docs)])
		_ = html.Iframes(tree)
		_ = html.Scripts(tree)
		_ = html.Links(tree)
	}
}

func BenchmarkExtractSingleWalk(b *testing.B) {
	docs := parseCorpus(16, 40, benchSeed+9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = html.Extract(docs[i%len(docs)])
	}
}

// ---- Crawl-at-scale: the crawl queue under chaos ----

// BenchmarkCrawlChaosScheduler crawls a fault-heavy population with
// retries on, once per iteration against a fresh server (flap counters
// restart), through the crawl queue's non-blocking retries. The fault
// mix is fail-fast and deterministic — resets and flapping hosts, the
// kinds that trigger retries — so the time measured is scheduling, not
// fault timing: backoffs wait on timers while the workers keep
// crawling.
func BenchmarkCrawlChaosScheduler(b *testing.B) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = envSites("PERMODYSSEY_BENCH_CHAOS_SITES", 300)
	cfg.Seed = benchSeed + 6
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0
	cfg.Chaos = synthweb.ChaosConfig{
		Enabled:      true,
		SiteRate:     0.4,
		FlapFailures: 2,
		Kinds:        []synthweb.Fault{synthweb.FaultReset, synthweb.FaultFlap},
	}

	var retries, requeued int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := synthweb.NewServer(cfg)
		if err := srv.Start(); err != nil {
			b.Fatal(err)
		}
		var targets []crawler.Target
		for _, s := range srv.Sites() {
			targets = append(targets, crawler.Target{Rank: s.Rank, URL: s.URL()})
		}
		br := browser.New(browser.NewHTTPFetcher(srv.Client(0)), browser.DefaultOptions())
		c := crawler.New(br, crawler.Config{
			Workers: 12, PerSiteTimeout: 2 * time.Second,
			MaxRetries: 2, RetryBackoff: 80 * time.Millisecond,
		})
		ds := c.Crawl(context.Background(), targets)
		srv.Close()
		if len(ds.Records) != cfg.NumSites {
			b.Fatal("short crawl")
		}
		st := c.Stats()
		retries, requeued = st.Retries, st.Requeued
	}
	b.StopTimer()
	b.ReportMetric(float64(retries), "retries/op")
	b.ReportMetric(float64(requeued), "requeued/op")
	printOnce(b.Name(), fmt.Sprintf("%d sites under chaos, scheduler (non-blocking deferral): %d retries, %d requeued\n",
		cfg.NumSites, retries, requeued))
}

// ---- Synthetic-web generation ----

// BenchmarkSynthwebPopulation builds a 20,000-site chaos population as
// a crawl's set-up does (synthweb.NewServer generates every site) and
// renders each healthy site's landing page as the server does per
// request: the cost of seeding a generator for every stream.
func BenchmarkSynthwebPopulation(b *testing.B) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = 20000
	cfg.Seed = benchSeed
	cfg.Chaos = synthweb.DefaultChaosConfig()
	b.ReportAllocs()
	pageBytes := 0
	for i := 0; i < b.N; i++ {
		srv := synthweb.NewServer(cfg)
		pageBytes = 0
		for _, s := range srv.Sites() {
			if s.Kind == synthweb.KindOK {
				pageBytes += len(cfg.RenderHTML(s))
			}
		}
	}
	b.ReportMetric(float64(pageBytes), "page-bytes/op")
}

// BenchmarkFullPipeline measures a complete small measurement
// (generate → serve → crawl → analyze), the end-to-end cost unit.
func BenchmarkFullPipeline(b *testing.B) {
	opts := core.DefaultMeasurementOptions()
	opts.Web.NumSites = 100
	opts.Web.Seed = benchSeed + 3
	opts.Crawl.Workers = 16
	opts.Crawl.PerSiteTimeout = 200 * time.Millisecond
	opts.StallTime = 400 * time.Millisecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.Run(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Dataset.Records) != 100 {
			b.Fatal("short crawl")
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

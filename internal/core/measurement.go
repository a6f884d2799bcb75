// Package core is the public face of the reproduction: the end-to-end
// measurement orchestrator (generate a synthetic web → serve it → crawl
// it → analyze it → render the paper's tables) and the developer tools
// the paper ships (§6.3): the Permissions-Policy header generator, the
// header/attribute linter, the least-privilege recommender, the
// caniuse-style support table, and the local-scheme specification-issue
// probe (§6.2).
package core

import (
	"context"
	"fmt"
	"io"
	"net/url"
	"time"

	"permodyssey/internal/analysis"
	"permodyssey/internal/browser"
	"permodyssey/internal/crawler"
	"permodyssey/internal/diskcache"
	"permodyssey/internal/html"
	"permodyssey/internal/script"
	"permodyssey/internal/static"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

// MeasurementOptions configures a full measurement run.
type MeasurementOptions struct {
	// Web is the synthetic-web population configuration.
	Web synthweb.Config
	// Crawl tunes the crawler.
	Crawl crawler.Config
	// BrowserOpts tunes the mini browser.
	BrowserOpts browser.Options
	// StallTime is how long timeout-class sites hang (must exceed the
	// crawl deadline to be classified as timeouts).
	StallTime time.Duration
	// DisableCache turns off the shared fetch, script-parse, and
	// static-findings caches. They are on by default: per-site documents
	// bypass the fetch cache (each site is visited once), while
	// cross-origin widget documents and CDN scripts — fetched for
	// thousands of sites — are served from it, each distinct script body
	// is parsed once per crawl, and its pattern scan runs once per crawl.
	// Caching is observationally transparent (TestCrawlDeterminism).
	DisableCache bool
	// DisableCompile turns off the compile-once script path: realms fall
	// back to executing parsed ASTs directly. Compilation is on by
	// default when caching is enabled — each distinct script body is
	// lowered once per crawl and every realm runs the shared compiled
	// program through pooled scope frames. Observationally transparent
	// (TestCrawlCompileEquivalence).
	DisableCompile bool
	// DisableDOMCache turns off the shared parsed-document (DOM) cache:
	// every frame then parses its own arena-backed document instead of
	// sharing one immutable parse per distinct body. On by default when
	// caching is enabled — the Zipf-popular third-party documents
	// embedded by thousands of sites tokenize once per crawl.
	// Observationally transparent (TestCrawlDOMCacheEquivalence).
	DisableDOMCache bool
	// CacheEntries caps each cache (fetch responses, parsed programs,
	// parsed documents, static findings) at this many entries, evicted
	// LRU. 0 = unbounded.
	CacheEntries int
	// CacheBytes caps the fetch cache's total cached body bytes and,
	// independently, the DOM cache's retained memory — each document's
	// source plus the arena slabs its tree pins — each evicted LRU
	// alongside the entry cap; a single body larger than the budget is
	// served but never retained. 0 = unbounded.
	CacheBytes int64
	// Breaker enables the per-host circuit breaker between the fetch
	// cache and the network when Threshold > 0: a host that fails
	// Threshold times in a row is refused (FailureBreakerOpen) until the
	// Cooldown passes and a half-open probe succeeds.
	Breaker crawler.BreakerConfig
	// MaxBodyBytes caps fetched response bodies; oversized bodies are
	// truncated and their records marked Partial. 0 = the fetcher's
	// 4 MiB default.
	MaxBodyBytes int64
	// CacheDir, when non-empty, roots a persistent content-addressed
	// resource archive (internal/diskcache) under the in-memory fetch
	// cache: every fetch outcome — responses and classified failures —
	// is written through, and a later run against the same directory
	// reads them back instead of refetching. Requires the cache enabled
	// (incompatible with DisableCache).
	CacheDir string
	// Offline switches the archive to strict replay: every fetch is
	// served from CacheDir, archived failures replay as their recorded
	// failure class, and a URL missing from the archive is an error
	// (classified unreachable) rather than a network fetch. Requires
	// CacheDir.
	Offline bool
	// Shard/Shards split the rank space across a fleet of crawler
	// processes: with Shards > 1 this process visits only ranks ≡ Shard
	// (mod Shards), and — when CacheDir is set — appends its archive
	// manifest lines to a per-shard manifest (manifest-<Shard>.jsonl)
	// so any number of processes can populate one shared archive
	// without interleaving writes. Each process streams its own
	// checkpoint JSONL with the usual resume semantics;
	// fleet.MergeDatasets and diskcache.MergeShards reconcile the
	// per-shard outputs into the dataset and archive a single-process
	// run would have produced. Shards <= 1 disables sharding.
	Shard, Shards int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// CrawlStats aggregates the observability counters of one run: what the
// fetch cache saved, what the parse cache saved, and what the crawler
// retried or resumed. Shard/Shards tag the counters with the rank
// partition that produced them (0/0 outside fleet mode), so the
// per-shard -stats-json files of a fleet crawl are self-describing.
type CrawlStats struct {
	Shard   int `json:"shard"`
	Shards  int `json:"shards"`
	Fetch   browser.CacheStats
	Parse   script.ParseStats
	Compile script.CompileStats
	DOM     html.ParseStats
	Static  static.CacheStats
	Crawl   crawler.Stats
	Breaker crawler.BreakerStats
}

// DefaultMeasurementOptions mirrors the paper's setup, scaled down.
func DefaultMeasurementOptions() MeasurementOptions {
	crawlCfg := crawler.DefaultConfig()
	crawlCfg.PerSiteTimeout = 500 * time.Millisecond
	return MeasurementOptions{
		Web:         synthweb.DefaultConfig(),
		Crawl:       crawlCfg,
		BrowserOpts: browser.DefaultOptions(),
		StallTime:   time.Second,
	}
}

// Measurement is a completed run.
type Measurement struct {
	Dataset  *store.Dataset
	Analysis *analysis.Analysis
	Stats    CrawlStats
	Elapsed  time.Duration
}

// Run executes the full pipeline.
func Run(ctx context.Context, opts MeasurementOptions) (*Measurement, error) {
	start := time.Now()
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}

	srv := synthweb.NewServer(opts.Web)
	if opts.StallTime > 0 {
		srv.StallTime = opts.StallTime
	}
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("starting synthetic web: %w", err)
	}
	defer srv.Close()
	logf("synthetic web: %d sites on %s (seed %d)", opts.Web.NumSites, srv.Addr(), opts.Web.Seed)

	stack, err := newCrawlStack(srv, opts)
	if err != nil {
		return nil, err
	}
	defer stack.close()

	logf("crawling %d sites with %d workers...", len(stack.targets), opts.Crawl.Workers)
	ds := stack.crawler.Crawl(ctx, stack.targets)

	m := &Measurement{
		Dataset:  ds,
		Analysis: analysis.New(ds),
		Elapsed:  time.Since(start),
		Stats:    stack.stats(),
	}
	logf("crawl finished in %s: %v", m.Elapsed.Round(time.Millisecond), ds.FailureCounts())
	logf("%s", m.Stats.Summary())
	return m, nil
}

// crawlStack is the assembled fetch/browse/crawl pipeline over one
// synthetic-web server: HTTP fetcher → circuit breaker → shared cache →
// browser → crawler, with the observability counters of each layer.
type crawlStack struct {
	crawler *crawler.Crawler
	targets []crawler.Target

	shard, shards int

	cache        *browser.CachingFetcher
	breaker      *crawler.BreakerFetcher
	scriptCache  *script.ParseCache
	compileCache *script.CompileCache
	domCache     *html.ParseCache
	staticCache  *static.Cache
	archive      *diskcache.Archive
}

// archiveClass adapts crawler.Classify into the diskcache failure
// filter: crawl-local conditions — cancellation, an open circuit
// breaker — are artifacts of this run, not site properties, and must
// not be archived as if replay should reproduce them.
func archiveClass(err error) string {
	switch c := crawler.Classify(err); c {
	case store.FailureNone, store.FailureCanceled, store.FailureBreakerOpen:
		return ""
	default:
		return string(c)
	}
}

// newCrawlStack builds the pipeline the measurement options describe
// against an already-started server.
func newCrawlStack(srv *synthweb.Server, opts MeasurementOptions) (*crawlStack, error) {
	if opts.Offline && opts.CacheDir == "" {
		return nil, fmt.Errorf("core: Offline requires CacheDir")
	}
	if opts.CacheDir != "" && opts.DisableCache {
		return nil, fmt.Errorf("core: CacheDir requires the cache enabled (incompatible with DisableCache)")
	}
	if opts.Shards > 1 && (opts.Shard < 0 || opts.Shard >= opts.Shards) {
		return nil, fmt.Errorf("core: Shard %d out of range for %d shards", opts.Shard, opts.Shards)
	}
	if opts.Shards <= 1 && opts.Shard != 0 {
		return nil, fmt.Errorf("core: Shard %d set without Shards", opts.Shard)
	}
	st := &crawlStack{shard: opts.Shard, shards: opts.Shards}
	httpf := browser.NewHTTPFetcher(srv.Client(0))
	if opts.MaxBodyBytes > 0 {
		httpf.MaxBodyBytes = opts.MaxBodyBytes
	}
	var fetcher browser.Fetcher = httpf
	if opts.Breaker.Threshold > 0 {
		// The breaker sits directly above the network, below the cache:
		// cache hits never count toward a host's health, every real
		// attempt does.
		st.breaker = crawler.NewBreakerFetcher(fetcher, opts.Breaker)
		fetcher = st.breaker
		// Hand the breaker to the crawl scheduler so visits to open
		// circuits are deferred to the probe time, not short-circuited.
		opts.Crawl.Breaker = st.breaker.Breaker
	}
	siteHosts := make(map[string]bool, opts.Web.NumSites)
	for _, s := range srv.Sites() {
		st.targets = append(st.targets, crawler.Target{Rank: s.Rank, URL: s.URL()})
		siteHosts[s.Host] = true
	}
	// Fleet mode: this process covers only its rank partition. The host
	// bypass set stays the full population — shared widget/CDN hosts are
	// what the cache is for, whichever shard fetches them.
	st.targets = crawler.PartitionTargets(st.targets, opts.Shard, opts.Shards)
	if !opts.DisableCache {
		st.cache = browser.NewByteBoundedCachingFetcher(fetcher, opts.CacheEntries, opts.CacheBytes)
		// Per-site documents (landing and internal pages) are fetched
		// once each — bypass them so cache memory stays bounded by the
		// shared widget/CDN population.
		st.cache.Cacheable = func(rawURL string) bool {
			u, err := url.Parse(rawURL)
			if err != nil {
				return false
			}
			return !siteHosts[u.Hostname()]
		}
		if opts.CacheDir != "" {
			// The disk archive sits under the in-memory cache and, unlike
			// it, also covers bypassed per-site documents — offline replay
			// needs every resource, not just the shared ones. In fleet
			// mode each process appends to its own manifest shard, so N
			// processes can share the directory without interleaving.
			shardName := ""
			if opts.Shards > 1 {
				shardName = fmt.Sprint(opts.Shard)
			}
			ar, err := diskcache.Open(opts.CacheDir, diskcache.Options{
				Offline:  opts.Offline,
				Classify: archiveClass,
				Shard:    shardName,
			})
			if err != nil {
				return nil, fmt.Errorf("core: opening resource archive: %w", err)
			}
			st.archive = ar
			st.cache.Disk = ar
		}
		fetcher = st.cache
		st.scriptCache = script.NewBoundedParseCache(opts.CacheEntries)
		st.staticCache = static.NewCache(nil, opts.CacheEntries)
		opts.BrowserOpts.ScriptCache = st.scriptCache
		opts.BrowserOpts.StaticCache = st.staticCache
		if !opts.DisableCompile {
			// Layered over the parse cache: a compile miss parses through
			// it, so parse counters stay live under compilation.
			st.compileCache = script.NewBoundedCompileCache(opts.CacheEntries, st.scriptCache.Parse)
			opts.BrowserOpts.CompileCache = st.compileCache
		}
		if !opts.DisableDOMCache {
			// The DOM cache mirrors the script pipeline's layering on the
			// HTML side: one immutable parsed document per distinct body,
			// shared by every frame that embeds it.
			st.domCache = html.NewParseCache(opts.CacheEntries, opts.CacheBytes)
			opts.BrowserOpts.DocCache = st.domCache
		}
	}
	b := browser.New(fetcher, opts.BrowserOpts)
	st.crawler = crawler.New(b, opts.Crawl)
	return st, nil
}

// close releases resources the stack holds open (the archive's manifest
// append handle).
func (st *crawlStack) close() {
	if st.archive != nil {
		st.archive.Close()
	}
}

// stats collects every layer's counters.
func (st *crawlStack) stats() CrawlStats {
	s := CrawlStats{Shard: st.shard, Shards: st.shards, Crawl: st.crawler.Stats()}
	if st.cache != nil {
		s.Fetch = st.cache.Stats()
		s.Parse = st.scriptCache.Stats()
		s.Static = st.staticCache.Stats()
	}
	if st.compileCache != nil {
		s.Compile = st.compileCache.Stats()
	}
	if st.domCache != nil {
		s.DOM = st.domCache.Stats()
	}
	if st.breaker != nil {
		s.Breaker = st.breaker.Breaker.Stats()
	}
	return s
}

// Summary renders the counters as one log-friendly line.
func (s CrawlStats) Summary() string {
	line := fmt.Sprintf(
		"visited %d (resumed %d, retries %d, partial %d, panics %d); sched: %d requeued, %d deferred (%d breaker), max ready %d, max host in-flight %d; fetch cache: %d hits, %d misses, %d coalesced, %d bypassed, %d errors, %d evictions (%s), %d entries (%s, %d unique bodies, %s deduped); parse cache: %d hits, %d misses, %d coalesced, %d evictions, %d entries; static cache: %d hits, %d misses, %d evictions",
		s.Crawl.Visited, s.Crawl.Resumed, s.Crawl.Retries, s.Crawl.Partial, s.Crawl.Panics,
		s.Crawl.Requeued, s.Crawl.Deferred, s.Crawl.BreakerDeferred,
		s.Crawl.MaxReadyDepth, s.Crawl.MaxHostInFlight,
		s.Fetch.Hits, s.Fetch.Misses, s.Fetch.Coalesced, s.Fetch.Bypassed,
		s.Fetch.Errors, s.Fetch.Evictions, byteSize(s.Fetch.BytesEvicted),
		s.Fetch.Entries, byteSize(s.Fetch.CachedBytes), s.Fetch.UniqueBodies, byteSize(s.Fetch.DedupedBytes),
		s.Parse.Hits, s.Parse.Misses, s.Parse.Coalesced, s.Parse.Evictions, s.Parse.Entries,
		s.Static.Hits, s.Static.Misses, s.Static.Evictions)
	if s.Compile != (script.CompileStats{}) {
		line += fmt.Sprintf("; compile cache: %d hits, %d misses, %d coalesced, %d evictions, %d entries",
			s.Compile.Hits, s.Compile.Misses, s.Compile.Coalesced, s.Compile.Evictions, s.Compile.Entries)
	}
	if s.DOM != (html.ParseStats{}) {
		line += fmt.Sprintf("; dom cache: %d hits, %d misses, %d coalesced, %d evictions, %d entries (%s)",
			s.DOM.Hits, s.DOM.Misses, s.DOM.Coalesced, s.DOM.Evictions, s.DOM.Entries,
			byteSize(s.DOM.CachedBytes))
	}
	if s.Breaker != (crawler.BreakerStats{}) {
		line += fmt.Sprintf("; breaker: %d trips, %d half-open probes, %d closes, %d reopens, %d short-circuits, %d open hosts",
			s.Breaker.Trips, s.Breaker.HalfOpenProbes, s.Breaker.Closes, s.Breaker.Reopens,
			s.Breaker.ShortCircuits, s.Breaker.OpenHosts)
	}
	if s.Fetch.Disk != (browser.ArchiveStats{}) {
		line += fmt.Sprintf("; archive: %d disk hits, %d writes, %d corrupt recovered, %d orphans swept, %s stored, %d entries (%d objects), %d network fetches",
			s.Fetch.Disk.Hits, s.Fetch.Disk.Writes, s.Fetch.Disk.CorruptRecovered, s.Fetch.Disk.OrphansSwept,
			byteSize(s.Fetch.Disk.BytesStored), s.Fetch.Disk.Entries, s.Fetch.Disk.Objects,
			s.Fetch.NetworkFetches)
	}
	return line
}

// byteSize renders n bytes human-readably.
func byteSize(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Report renders the full paper-style report.
func (m *Measurement) Report() string { return m.Analysis.FullReport() }

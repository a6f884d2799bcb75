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
	"permodyssey/internal/memo"
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
	// DisableCache turns off the two shared caches: fetch responses and
	// script artifacts. They are on by default: per-site documents
	// bypass the fetch cache (each site is visited once), while
	// cross-origin widget documents and CDN scripts — fetched for
	// thousands of sites — are served from it, and each distinct script
	// body is compiled and pattern-scanned once per crawl. Every
	// document is extracted for its own frame. Caching is
	// observationally transparent (TestCrawlCacheEquivalence).
	DisableCache bool
	// CacheBytes caps each of the two caches, independently, at this
	// many bytes of summed charge, evicted LRU.
	// Each value is charged the bytes it keeps alive: a fetched body's
	// length, a script's source length. A single value larger than the
	// budget is served but never retained. The default is
	// DefaultCacheBytes; 0 = unbounded.
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
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// CrawlStats aggregates the observability counters of one run: what the
// fetch and script caches saved, and what the crawler retried or
// resumed.
type CrawlStats struct {
	Fetch   browser.CacheStats
	Script  memo.Stats
	Crawl   crawler.Stats
	Breaker crawler.BreakerStats
}

// DefaultCacheBytes is the default byte bound of each crawl cache. The
// caches hold what many sites share — widget documents, CDN scripts
// and their compiled programs — which fits well within it, while a
// long crawl's one-off values are evicted instead of accumulating.
const DefaultCacheBytes = 64 << 20

// DefaultMeasurementOptions mirrors the paper's setup, scaled down.
func DefaultMeasurementOptions() MeasurementOptions {
	crawlCfg := crawler.DefaultConfig()
	crawlCfg.PerSiteTimeout = 500 * time.Millisecond
	return MeasurementOptions{
		Web:         synthweb.DefaultConfig(),
		Crawl:       crawlCfg,
		BrowserOpts: browser.DefaultOptions(),
		StallTime:   time.Second,
		CacheBytes:  DefaultCacheBytes,
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

	cache   *browser.CachingFetcher
	breaker *crawler.BreakerFetcher
	scripts *memo.Memo[memo.Key, *browser.Script]
	archive *diskcache.Archive
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
	st := &crawlStack{}
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
		// Hand the breaker to the crawl queue so visits to open
		// circuits are deferred to the probe time, not short-circuited.
		opts.Crawl.Breaker = st.breaker.Breaker
	}
	hosts := srv.Hosts()
	siteHosts := make(map[string]bool, len(hosts))
	for i, host := range hosts {
		st.targets = append(st.targets, crawler.Target{Rank: i + 1, URL: synthweb.Site{Host: host}.URL()})
		siteHosts[host] = true
	}
	if !opts.DisableCache {
		st.cache = browser.NewCachingFetcher(fetcher, opts.CacheBytes)
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
			// needs every resource, not just the shared ones.
			ar, err := diskcache.Open(opts.CacheDir, diskcache.Options{
				Offline:  opts.Offline,
				Classify: archiveClass,
			})
			if err != nil {
				return nil, fmt.Errorf("core: opening resource archive: %w", err)
			}
			st.archive = ar
			st.cache.Disk = ar
		}
		fetcher = st.cache
		// One compiled, scanned script per distinct body, shared by
		// every frame that embeds it.
		st.scripts = memo.New[memo.Key, *browser.Script](opts.CacheBytes)
		opts.BrowserOpts.ScriptCache = st.scripts
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
	s := CrawlStats{Crawl: st.crawler.Stats()}
	if st.cache != nil {
		s.Fetch = st.cache.Stats()
		s.Script = st.scripts.Stats()
	}
	if st.breaker != nil {
		s.Breaker = st.breaker.Breaker.Stats()
	}
	return s
}

// Summary renders the counters as one log-friendly line.
func (s CrawlStats) Summary() string {
	f := s.Fetch
	line := fmt.Sprintf(
		"visited %d (resumed %d, retries %d, partial %d, panics %d); sched: %d requeued, %d deferred (%d breaker)",
		s.Crawl.Visited, s.Crawl.Resumed, s.Crawl.Retries, s.Crawl.Partial, s.Crawl.Panics,
		s.Crawl.Requeued, s.Crawl.Deferred, s.Crawl.BreakerDeferred)
	line += memoSummary("fetch", memo.Stats{Hits: f.Hits, Misses: f.Misses, Coalesced: f.Coalesced,
		Evictions: f.Evictions, BytesEvicted: f.BytesEvicted, Entries: f.Entries, CachedBytes: f.CachedBytes})
	line += fmt.Sprintf(", %d bypassed, %d errors", f.Bypassed, f.Errors)
	line += memoSummary("script", s.Script)
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

// memoSummary renders one cache's counters for the summary line.
func memoSummary(name string, m memo.Stats) string {
	return fmt.Sprintf("; %s cache: %d hits, %d misses, %d coalesced, %d evictions (%s), %d entries (%s)",
		name, m.Hits, m.Misses, m.Coalesced, m.Evictions, byteSize(m.BytesEvicted), m.Entries, byteSize(m.CachedBytes))
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

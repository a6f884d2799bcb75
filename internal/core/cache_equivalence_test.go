package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
	"time"

	"permodyssey/internal/analysis"
	"permodyssey/internal/browser"
	"permodyssey/internal/memo"
	"permodyssey/internal/synthweb"
)

// equivalenceSites is the size of the chaos-seeded population both
// equivalence tests crawl.
const equivalenceSites = 120

// crawlEquivalencePopulation crawls the chaos-seeded population through
// the full measurement stack, with every shared cache on or with
// DisableCache, and returns the normalized records, the analysis report
// and the crawl stats.
func crawlEquivalencePopulation(t *testing.T, disableCache bool) ([]string, string, CrawlStats) {
	t.Helper()
	opts := chaosSoakOptions(equivalenceSites)
	// Timing-dependent failure classes (slow-loris, stalls) would make
	// the success set schedule-dependent; equivalence is about content.
	opts.Web.TimeoutRate = 0
	opts.Web.Chaos.Kinds = []synthweb.Fault{
		synthweb.FaultReset, synthweb.FaultMalformedHeader, synthweb.FaultOversizedHeader,
		synthweb.FaultRedirectLoop, synthweb.FaultFlap, synthweb.FaultOversizedBody,
	}
	opts.Crawl.PerSiteTimeout = 5 * time.Second
	opts.DisableCache = disableCache

	srv := synthweb.NewServer(opts.Web)
	srv.StallTime = opts.StallTime
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stack, err := newCrawlStack(srv, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.close()
	ds := stack.crawler.Crawl(context.Background(), stack.targets)
	if len(ds.Records) != equivalenceSites {
		t.Fatalf("records: %d", len(ds.Records))
	}
	m := &Measurement{Dataset: ds, Analysis: analysis.New(ds), Stats: stack.stats()}
	recs := make([]string, 0, len(ds.Records))
	for _, rec := range ds.Records {
		recs = append(recs, normalizeChaosRecord(t, rec))
	}
	return recs, m.Report(), m.Stats
}

// TestCrawlCompileEquivalence proves the compiled script path reproduces
// the AST interpreter it replaced through the full measurement stack,
// under a chaos-seeded population: a crawl with every cache on must
// match the goldens in testdata, frozen from that interpreter — the
// report byte for byte, the records by the SHA-256 of their normalized
// JSON lines.
func TestCrawlCompileEquivalence(t *testing.T) {
	recs, report, stats := crawlEquivalencePopulation(t, false)

	wantReport, err := os.ReadFile("testdata/crawl_cache_equivalence.report.golden")
	if err != nil {
		t.Fatal(err)
	}
	if report != string(wantReport) {
		t.Errorf("analysis report differs from the golden:\n%s", report)
	}
	wantSum, err := os.ReadFile("testdata/crawl_cache_equivalence.records.sha256")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(strings.Join(recs, "\n") + "\n"))
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(wantSum)) {
		t.Errorf("normalized records hash to %s, golden %s", got, strings.TrimSpace(string(wantSum)))
	}

	// The crawl must actually have compiled — and shared: every site
	// embeds common widget scripts, so hits must appear.
	if stats.Script.Misses == 0 || stats.Script.Hits == 0 {
		t.Errorf("crawl did not compile and share scripts: %+v", stats.Script)
	}
}

// TestCrawlCacheEquivalence proves the shared caches — fetch responses
// and script artifacts — are observationally transparent through the
// full measurement stack, under a chaos-seeded population: a crawl with
// every cache on and one with DisableCache produce identical records
// (after wall-clock normalization) and identical analysis reports.
// Shared widget documents and scripts exercise real cross-site hits.
func TestCrawlCacheEquivalence(t *testing.T) {
	plainRecs, plainReport, plainStats := crawlEquivalencePopulation(t, true)
	cachedRecs, cachedReport, cachedStats := crawlEquivalencePopulation(t, false)

	for i := range plainRecs {
		if plainRecs[i] != cachedRecs[i] {
			t.Errorf("record %d differs with caches on:\nuncached: %s\ncached:   %s",
				i, plainRecs[i], cachedRecs[i])
		}
	}
	if plainReport != cachedReport {
		t.Error("analysis reports differ between cached and uncached crawls")
	}

	// The cached run must have actually cached — and shared: every site
	// embeds common widget documents and scripts, so hits must appear.
	if cachedStats.Fetch.Misses == 0 || cachedStats.Fetch.Hits == 0 {
		t.Errorf("cached run did not fetch and share responses: %+v", cachedStats.Fetch)
	}
	if cachedStats.Script.Hits == 0 {
		t.Errorf("cached run never shared a script: %+v", cachedStats.Script)
	}
	if plainStats.Fetch != (browser.CacheStats{}) || plainStats.Script != (memo.Stats{}) {
		t.Errorf("DisableCache run still touched a cache: %+v", plainStats)
	}
}

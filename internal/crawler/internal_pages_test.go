package crawler

import (
	"context"
	"testing"
	"time"

	"permodyssey/internal/analysis"
	"permodyssey/internal/browser"
	"permodyssey/internal/synthweb"
)

// TestFollowInternalLinks lifts the landing-page-only limitation: the
// store-locator pages of ecommerce sites use geolocation that the
// landing page never shows; following links must surface it.
func TestFollowInternalLinks(t *testing.T) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = 400
	cfg.Seed = 31
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0
	srv := synthweb.NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	b := browser.New(browser.NewHTTPFetcher(srv.Client(0)), browser.DefaultOptions())
	c := New(b, Config{Workers: 16, PerSiteTimeout: 5 * time.Second, FollowInternalLinks: 3})
	var targets []Target
	for _, s := range srv.Sites() {
		targets = append(targets, Target{Rank: s.Rank, URL: s.URL()})
	}
	ds := c.Crawl(context.Background(), targets)

	withInternal := 0
	for _, rec := range ds.Successful() {
		withInternal += len(rec.InternalPages)
	}
	if withInternal == 0 {
		t.Fatal("internal pages must be visited")
	}

	gain := analysis.New(ds).ReportData(0).InternalGain
	t.Logf("internal-page gain: %+v", gain)
	if gain.SitesWithInternalPages == 0 {
		t.Fatal("no sites with internal pages analyzed")
	}
	if gain.PermissionsGained["geolocation"] == 0 {
		t.Errorf("store locators must reveal geolocation only on internal pages: %v", gain.PermissionsGained)
	}
	// The gain must be strictly additive: landing-page analysis results
	// are unchanged by following links (same tables from rec.Page).
	for _, rec := range ds.Successful() {
		if rec.Page == nil {
			t.Fatal("landing page result missing")
		}
	}
}

// TestFollowInternalLinksOffByDefault preserves the paper's scope.
func TestFollowInternalLinksOffByDefault(t *testing.T) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = 30
	cfg.Seed = 31
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0
	srv := synthweb.NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	b := browser.New(browser.NewHTTPFetcher(srv.Client(0)), browser.DefaultOptions())
	c := New(b, Config{Workers: 8, PerSiteTimeout: 5 * time.Second})
	var targets []Target
	for _, s := range srv.Sites() {
		targets = append(targets, Target{Rank: s.Rank, URL: s.URL()})
	}
	ds := c.Crawl(context.Background(), targets)
	for _, rec := range ds.Successful() {
		if len(rec.InternalPages) != 0 {
			t.Fatalf("internal pages visited without opt-in: %+v", rec.InternalPages)
		}
	}
}

package crawler

import (
	"context"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"permodyssey/internal/browser"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

// flakyFetcher serves a canned page, failing each URL a configured
// number of times first.
type flakyFetcher struct {
	mu       sync.Mutex
	failures map[string]int // remaining failures per URL; -1 = forever
	fail     func(url string) error
}

func (f *flakyFetcher) Fetch(_ context.Context, rawURL string) (*browser.Response, error) {
	f.mu.Lock()
	n := f.failures[rawURL]
	if n != 0 {
		if n > 0 {
			f.failures[rawURL] = n - 1
		}
		f.mu.Unlock()
		return nil, f.fail(rawURL)
	}
	f.mu.Unlock()
	return &browser.Response{
		Status: 200, FinalURL: rawURL,
		Body: "<html><body><p>ok</p></body></html>",
	}, nil
}

func timeoutErr(string) error { return context.DeadlineExceeded }

func TestRetryTransientFailure(t *testing.T) {
	f := &flakyFetcher{failures: map[string]int{"https://flaky.test/": 2}, fail: timeoutErr}
	b := browser.New(f, browser.DefaultOptions())
	c := New(b, Config{Workers: 1, PerSiteTimeout: time.Second,
		MaxRetries: 3, RetryBackoff: time.Millisecond})

	ds := c.Crawl(context.Background(), []Target{{Rank: 1, URL: "https://flaky.test/"}})
	rec := ds.Records[0]
	if !rec.OK() {
		t.Fatalf("record not OK after retries: failure=%q err=%q", rec.Failure, rec.Error)
	}
	if rec.Retries != 2 {
		t.Errorf("record retries = %d, want 2", rec.Retries)
	}
	if got := c.Stats().Retries; got != 2 {
		t.Errorf("stats retries = %d, want 2", got)
	}
}

func TestRetryExhausted(t *testing.T) {
	f := &flakyFetcher{failures: map[string]int{"https://down.test/": -1}, fail: timeoutErr}
	b := browser.New(f, browser.DefaultOptions())
	c := New(b, Config{Workers: 1, PerSiteTimeout: time.Second,
		MaxRetries: 2, RetryBackoff: time.Millisecond})

	ds := c.Crawl(context.Background(), []Target{{Rank: 1, URL: "https://down.test/"}})
	rec := ds.Records[0]
	if rec.Failure != store.FailureTimeout {
		t.Fatalf("failure = %q, want timeout", rec.Failure)
	}
	if rec.Retries != 2 {
		t.Errorf("record retries = %d, want 2 (budget exhausted)", rec.Retries)
	}
}

func TestNoRetryForPersistentFailure(t *testing.T) {
	dnsErr := func(url string) error {
		return &net.DNSError{Err: "no such host", Name: url, IsNotFound: true}
	}
	f := &flakyFetcher{failures: map[string]int{"https://gone.test/": -1}, fail: dnsErr}
	b := browser.New(f, browser.DefaultOptions())
	c := New(b, Config{Workers: 1, PerSiteTimeout: time.Second,
		MaxRetries: 3, RetryBackoff: time.Millisecond})

	ds := c.Crawl(context.Background(), []Target{{Rank: 1, URL: "https://gone.test/"}})
	rec := ds.Records[0]
	if rec.Failure != store.FailureUnreachable {
		t.Fatalf("failure = %q, want unreachable", rec.Failure)
	}
	if rec.Retries != 0 || c.Stats().Retries != 0 {
		t.Errorf("unreachable (persistent) was retried: rec=%d stats=%d",
			rec.Retries, c.Stats().Retries)
	}
}

// normalizeRecords strips wall-clock noise and serializes records for
// dataset equality checks.
func normalizeRecords(t *testing.T, ds *store.Dataset) []string {
	t.Helper()
	out := make([]string, 0, len(ds.Records))
	for _, rec := range ds.Records {
		rec.Elapsed = 0
		buf, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(buf))
	}
	return out
}

// TestCrawlResume proves interrupt-then-resume converges to the same
// dataset as one uninterrupted crawl: crawl half the targets, feed the
// partial dataset back through Config.Resume, and compare against a
// full reference run record by record.
func TestCrawlResume(t *testing.T) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = 40
	cfg.Seed = 13
	// Unreachable sites fail deterministically (DNS, no timing); the
	// timing-sensitive classes stay out so datasets compare exactly.
	cfg.UnreachableRate = 0.1
	cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0

	srv := synthweb.NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	newCrawler := func(resume *store.Dataset) *Crawler {
		b := browser.New(browser.NewHTTPFetcher(srv.Client(0)), browser.DefaultOptions())
		return New(b, Config{Workers: 8, PerSiteTimeout: 5 * time.Second, Resume: resume})
	}
	var targets []Target
	for _, s := range srv.Sites() {
		targets = append(targets, Target{Rank: s.Rank, URL: s.URL()})
	}

	full := newCrawler(nil).Crawl(context.Background(), targets)

	// "Interrupt" after half the targets, then resume over the full list.
	partial := newCrawler(nil).Crawl(context.Background(), targets[:20])
	resumed := newCrawler(partial)
	ds := resumed.Crawl(context.Background(), targets)

	if got := resumed.Stats().Resumed; got != 20 {
		t.Errorf("resumed = %d, want 20", got)
	}
	if got := resumed.Stats().Visited; got != 20 {
		t.Errorf("visited = %d, want 20", got)
	}
	want, got := normalizeRecords(t, full), normalizeRecords(t, ds)
	if len(want) != len(got) {
		t.Fatalf("record counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("record %d differs after resume:\nfull:    %s\nresumed: %s",
				i, want[i], got[i])
		}
	}
}

// TestResumeRecrawlsCanceledRecords is the regression test for the
// resume-skips-cancelled-ranks bug: before Classify learned about
// context.Canceled, a visit interrupted by crawl shutdown was recorded
// as FailureMinor — persistent — so resume carried the record over and
// never re-visited the site. Now the record carries FailureCanceled and
// resume drops it: the rank is re-crawled, while genuinely persistent
// failures from the prior run are still skipped.
func TestResumeRecrawlsCanceledRecords(t *testing.T) {
	prior := &store.Dataset{Records: []store.SiteRecord{
		{Rank: 1, URL: "https://a.test/", Failure: store.FailureCanceled, Error: "context canceled"},
		{Rank: 2, URL: "https://b.test/", Failure: store.FailureUnreachable, Error: "no such host"},
	}}
	// The live fetcher succeeds for every URL, so any rank that actually
	// gets re-visited produces an OK record — which is exactly how we
	// tell "re-crawled" from "carried over".
	f := &flakyFetcher{failures: map[string]int{}, fail: timeoutErr}
	b := browser.New(f, browser.DefaultOptions())
	c := New(b, Config{Workers: 2, PerSiteTimeout: time.Second, Resume: prior})

	ds := c.Crawl(context.Background(), []Target{
		{Rank: 1, URL: "https://a.test/"},
		{Rank: 2, URL: "https://b.test/"},
	})

	byRank := map[int]store.SiteRecord{}
	for _, r := range ds.Records {
		byRank[r.Rank] = r
	}
	if len(byRank) != 2 {
		t.Fatalf("got %d distinct ranks, want 2: %+v", len(byRank), ds.Records)
	}
	if rec := byRank[1]; !rec.OK() {
		t.Errorf("canceled rank 1 was not re-crawled: failure=%q err=%q", rec.Failure, rec.Error)
	}
	if rec := byRank[2]; rec.Failure != store.FailureUnreachable {
		t.Errorf("persistent rank 2 should carry over unreachable, got failure=%q", rec.Failure)
	}
	if got := c.Stats().Resumed; got != 1 {
		t.Errorf("resumed = %d, want 1 (only the persistent record)", got)
	}
	if got := c.Stats().Visited; got != 1 {
		t.Errorf("visited = %d, want 1 (only the canceled rank)", got)
	}
}

// TestCancelMidCrawlThenResume drives the bug end to end: cancel a
// crawl mid-flight against a hanging site, check the interrupted
// record's class is transient FailureCanceled, then resume and verify
// the site is measured for real.
func TestCancelMidCrawlThenResume(t *testing.T) {
	release := make(chan struct{})
	hang := newHangingFetcher(release)
	b := browser.New(hang, browser.DefaultOptions())
	c := New(b, Config{Workers: 1, PerSiteTimeout: time.Minute})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-hang.started()
		cancel()
	}()
	partial := c.Crawl(ctx, []Target{{Rank: 1, URL: "https://slow.test/"}})
	close(release)

	if len(partial.Records) != 1 {
		t.Fatalf("got %d records, want 1", len(partial.Records))
	}
	if got := partial.Records[0].Failure; got != store.FailureCanceled {
		t.Fatalf("interrupted visit classified %q, want %q", got, store.FailureCanceled)
	}
	if !partial.Records[0].Failure.Transient() {
		t.Fatal("canceled class must be transient")
	}

	f := &flakyFetcher{failures: map[string]int{}, fail: timeoutErr}
	rb := browser.New(f, browser.DefaultOptions())
	rc := New(rb, Config{Workers: 1, PerSiteTimeout: time.Second, Resume: partial})
	ds := rc.Crawl(context.Background(), []Target{{Rank: 1, URL: "https://slow.test/"}})
	if len(ds.Records) != 1 || !ds.Records[0].OK() {
		t.Fatalf("resume did not re-crawl the canceled rank: %+v", ds.Records)
	}
	if got := rc.Stats().Resumed; got != 0 {
		t.Errorf("resumed = %d, want 0 (canceled record must be dropped)", got)
	}
}

// TestCancelledRetryIsNotFinal: a visit that fails on its own just as
// the crawl is cancelled, with retries left, is not the site's verdict.
// It must be written as cancelled, so resume re-crawls it, not as the
// attempt's transient class, which resume would keep.
func TestCancelledRetryIsNotFinal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := fetcherFunc(func(context.Context, string) (*browser.Response, error) {
		cancel()
		return nil, errReset{}
	})
	c := New(browser.New(f, browser.DefaultOptions()), Config{Workers: 1,
		PerSiteTimeout: time.Second, MaxRetries: 2, RetryBackoff: time.Millisecond})
	target := []Target{{Rank: 1, URL: "https://a.test/"}}
	partial := c.Crawl(ctx, target)
	if len(partial.Records) != 1 || partial.Records[0].Failure != store.FailureCanceled {
		t.Fatalf("records %+v, want one cancelled record", partial.Records)
	}

	ok := &flakyFetcher{failures: map[string]int{}, fail: timeoutErr}
	rc := New(browser.New(ok, browser.DefaultOptions()), Config{Workers: 1,
		PerSiteTimeout: time.Second, Resume: partial})
	if ds := rc.Crawl(context.Background(), target); len(ds.Records) != 1 || !ds.Records[0].OK() {
		t.Fatalf("resume did not re-crawl the cancelled rank: %+v", ds.Records)
	}
}

// hangingFetcher blocks until released or the context dies, signalling
// once the first fetch has begun.
type hangingFetcher struct {
	startOnce sync.Once
	start     chan struct{}
	release   chan struct{}
}

func newHangingFetcher(release chan struct{}) *hangingFetcher {
	return &hangingFetcher{start: make(chan struct{}), release: release}
}

func (h *hangingFetcher) started() <-chan struct{} { return h.start }

func (h *hangingFetcher) Fetch(ctx context.Context, rawURL string) (*browser.Response, error) {
	h.startOnce.Do(func() { close(h.start) })
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-h.release:
		return &browser.Response{Status: 200, FinalURL: rawURL, Body: "<html></html>"}, nil
	}
}

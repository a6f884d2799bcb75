package crawler

import (
	"context"
	"fmt"
	"regexp"
	"sync"
	"testing"
	"time"

	"permodyssey/internal/browser"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

// stampingFetcher records when each fetch attempt arrives, failing the
// first failures attempts with a timeout-class error.
type stampingFetcher struct {
	mu       sync.Mutex
	stamps   []time.Time
	failures int
}

func (f *stampingFetcher) Fetch(_ context.Context, rawURL string) (*browser.Response, error) {
	f.mu.Lock()
	f.stamps = append(f.stamps, time.Now())
	n := len(f.stamps)
	f.mu.Unlock()
	if n <= f.failures {
		return nil, context.DeadlineExceeded
	}
	return &browser.Response{
		Status: 200, FinalURL: rawURL,
		Body: "<html><body><p>ok</p></body></html>",
	}, nil
}

// TestBackoffDeferralNeverEarly asserts the crawl queue honors retry
// deadlines: with idle workers standing by, a re-queued visit still
// never re-attempts before its exponential backoff has elapsed.
func TestBackoffDeferralNeverEarly(t *testing.T) {
	const backoff = 40 * time.Millisecond
	f := &stampingFetcher{failures: 2}
	b := browser.New(f, browser.DefaultOptions())
	c := New(b, Config{Workers: 8, PerSiteTimeout: time.Second,
		MaxRetries: 3, RetryBackoff: backoff})

	ds := c.Crawl(context.Background(), []Target{{Rank: 1, URL: "https://slow.test/"}})
	if rec := ds.Records[0]; !rec.OK() || rec.Retries != 2 {
		t.Fatalf("record: failure=%q retries=%d, want ok with 2 retries", rec.Failure, rec.Retries)
	}
	if len(f.stamps) != 3 {
		t.Fatalf("attempts: %d, want 3", len(f.stamps))
	}
	for i := 1; i < len(f.stamps); i++ {
		want := backoff << uint(i-1)
		if gap := f.stamps[i].Sub(f.stamps[i-1]); gap < want {
			t.Errorf("retry %d fired %v after the previous attempt, before its %v backoff", i, gap, want)
		}
	}
	if stats := c.Stats(); stats.Requeued != 2 || stats.Deferred != 2 {
		t.Errorf("requeued %d / deferred %d, want 2 / 2", stats.Requeued, stats.Deferred)
	}
}

// deadFetcher fails every fetch with an ephemeral-class error.
type deadFetcher struct{}

func (deadFetcher) Fetch(_ context.Context, _ string) (*browser.Response, error) {
	return nil, errReset{}
}

type errReset struct{}

func (errReset) Error() string   { return "read tcp 127.0.0.1:1->127.0.0.1:2: connection reset by peer" }
func (errReset) Timeout() bool   { return false }
func (errReset) Temporary() bool { return true }

// TestBreakerDeferral opens a dead host's circuit and asserts the
// scheduler deferred the retries that came up while it was open — and
// that the final record still carries the host's real failure class,
// not breaker-open.
func TestBreakerDeferral(t *testing.T) {
	bf := NewBreakerFetcher(deadFetcher{}, BreakerConfig{Threshold: 2, Cooldown: 100 * time.Millisecond})
	b := browser.New(bf, browser.DefaultOptions())
	c := New(b, Config{Workers: 4, PerSiteTimeout: time.Second,
		MaxRetries: 3, RetryBackoff: 20 * time.Millisecond,
		Breaker: bf.Breaker, DeferBreakerOpen: true})

	ds := c.Crawl(context.Background(), []Target{{Rank: 1, URL: "https://dead.test/"}})
	rec := ds.Records[0]
	// Attempts 1–2 fail and trip the circuit (threshold 2); the retries
	// become ready at 20ms and 40ms backoffs, both inside the 100ms
	// cooldown, so the scheduler must park them until the probe time —
	// where Allow admits them as half-open probes that observe the real
	// failure. Without deferral they would short-circuit to breaker-open.
	if rec.Failure != store.FailureEphemeral {
		t.Errorf("failure = %q, want ephemeral (the probe's real outcome)", rec.Failure)
	}
	if rec.Retries != 3 {
		t.Errorf("retries = %d, want 3 (budget exhausted)", rec.Retries)
	}
	stats := c.Stats()
	if stats.BreakerDeferred == 0 {
		t.Errorf("no breaker deferrals despite cooldown > backoff: %+v", stats)
	}
	if stats.Deferred != stats.Requeued+stats.BreakerDeferred {
		t.Errorf("deferred %d != requeued %d + breaker-deferred %d",
			stats.Deferred, stats.Requeued, stats.BreakerDeferred)
	}
	if sc := bf.Breaker.Stats().ShortCircuits; sc != 0 {
		t.Errorf("%d short-circuits burned; deferral should have absorbed them all", sc)
	}
}

// schedAddrPattern matches the ephemeral host:port pairs net errors
// embed — connection noise, different on every run.
var schedAddrPattern = regexp.MustCompile(`127\.0\.0\.1:\d+`)

// TestSchedulerDeterminismChaos runs the same seeded chaotic population
// twice through the crawl queue with retries on and asserts the two
// datasets are identical: parking and requeueing reorder work in time
// but must not change any record.
func TestSchedulerDeterminismChaos(t *testing.T) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = 60
	cfg.Seed = 17
	// Only the timing-independent classes, so records compare exactly.
	cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0
	cfg.Chaos = synthweb.ChaosConfig{
		Enabled:      true,
		SiteRate:     0.3,
		FlapFailures: 2,
		Kinds: []synthweb.Fault{
			synthweb.FaultReset, synthweb.FaultMalformedHeader,
			synthweb.FaultRedirectLoop, synthweb.FaultFlap,
		},
	}

	run := func() []string {
		srv := synthweb.NewServer(cfg)
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var targets []Target
		for _, s := range srv.Sites() {
			targets = append(targets, Target{Rank: s.Rank, URL: s.URL()})
		}
		b := browser.New(browser.NewHTTPFetcher(srv.Client(0)), browser.DefaultOptions())
		c := New(b, Config{Workers: 12, PerSiteTimeout: 2 * time.Second,
			MaxRetries: 3, RetryBackoff: 10 * time.Millisecond})
		recs := normalizeRecords(t, c.Crawl(context.Background(), targets))
		for i, r := range recs {
			recs[i] = schedAddrPattern.ReplaceAllString(r, "127.0.0.1:0")
		}
		return recs
	}

	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("run lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("record %d differs between runs:\n first:  %s\n second: %s", i, first[i], second[i])
		}
	}
}

// TestDueRetryGoesFirst: a retry whose backoff has passed is dispatched
// ahead of the fresh targets still waiting, instead of behind all of
// them. With one worker, rank 1's 10 ms backoff ends about five 2 ms
// visits in.
func TestDueRetryGoesFirst(t *testing.T) {
	targets := make([]Target, 200)
	for i := range targets {
		targets[i] = Target{Rank: i + 1, URL: fmt.Sprintf("https://site%d.test/", i+1)}
	}
	var mu sync.Mutex
	var fetched []string // in arrival order; the first is rank 1's
	f := fetcherFunc(func(_ context.Context, rawURL string) (*browser.Response, error) {
		mu.Lock()
		fetched = append(fetched, rawURL)
		n := len(fetched)
		mu.Unlock()
		if n == 1 {
			return nil, errReset{}
		}
		time.Sleep(2 * time.Millisecond)
		return &browser.Response{Status: 200, FinalURL: rawURL, Body: "<html><body><p>ok</p></body></html>"}, nil
	})
	c := New(browser.New(f, browser.DefaultOptions()), Config{Workers: 1,
		PerSiteTimeout: time.Second, MaxRetries: 1, RetryBackoff: 10 * time.Millisecond})

	ds := c.Crawl(context.Background(), targets)
	if rec := ds.Records[0]; !rec.OK() || rec.Retries != 1 {
		t.Fatalf("rank 1: failure=%q retries=%d, want ok with 1 retry", rec.Failure, rec.Retries)
	}
	for i, u := range fetched[1:] {
		if u == targets[0].URL && i+2 >= 50 {
			t.Errorf("rank 1's due retry was fetch %d of %d; it waited behind fresh targets (elapsed %v)",
				i+2, len(fetched), ds.Records[0].Elapsed)
		}
	}
}

// TestCancelAbandonsParkedEntry: cancelling a crawl while an entry is
// parked on a long backoff returns promptly and writes no record for
// it; the parked visit is abandoned, not waited for.
func TestCancelAbandonsParkedEntry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := fetcherFunc(func(_ context.Context, rawURL string) (*browser.Response, error) {
		if rawURL == "https://parked.test/" {
			return nil, errReset{}
		}
		// The one worker reaches rank 2 only after parking rank 1.
		cancel()
		return nil, context.Canceled
	})
	b := browser.New(f, browser.DefaultOptions())
	c := New(b, Config{Workers: 1, PerSiteTimeout: time.Second,
		MaxRetries: 1, RetryBackoff: time.Hour})
	var sunk []int
	c.Config.Sink = func(r store.SiteRecord) { sunk = append(sunk, r.Rank) }

	start := time.Now()
	ds := c.Crawl(ctx, []Target{
		{Rank: 1, URL: "https://parked.test/"},
		{Rank: 2, URL: "https://cancels.test/"},
	})
	if d := time.Since(start); d > time.Second {
		t.Errorf("Crawl returned %v after cancellation with an entry parked for an hour", d)
	}
	for _, r := range ds.Records {
		if r.Rank == 1 {
			t.Errorf("parked rank 1 got a record: failure=%q", r.Failure)
		}
	}
	if len(sunk) != 1 || sunk[0] != 2 {
		t.Errorf("sunk ranks %v, want [2]", sunk)
	}
	if st := c.Stats(); st.Requeued != 1 {
		t.Errorf("requeued %d, want 1", st.Requeued)
	}
}

// fetcherFunc adapts a function to browser.Fetcher.
type fetcherFunc func(ctx context.Context, rawURL string) (*browser.Response, error)

func (f fetcherFunc) Fetch(ctx context.Context, rawURL string) (*browser.Response, error) {
	return f(ctx, rawURL)
}

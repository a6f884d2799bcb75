package crawler

import (
	"context"
	"regexp"
	"sync"
	"testing"
	"time"

	"permodyssey/internal/browser"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

// hostCountingFetcher serves a canned page while tracking, per host, how
// many fetches are in flight at once.
type hostCountingFetcher struct {
	mu      sync.Mutex
	cur     map[string]int
	maxSeen map[string]int
}

func (f *hostCountingFetcher) Fetch(_ context.Context, rawURL string) (*browser.Response, error) {
	host := targetHost(rawURL)
	f.mu.Lock()
	f.cur[host]++
	if f.cur[host] > f.maxSeen[host] {
		f.maxSeen[host] = f.cur[host]
	}
	f.mu.Unlock()
	// Long enough that uncapped dispatch would demonstrably overlap.
	time.Sleep(5 * time.Millisecond)
	f.mu.Lock()
	f.cur[host]--
	f.mu.Unlock()
	return &browser.Response{
		Status: 200, FinalURL: rawURL,
		Body: "<html><body><p>ok</p></body></html>",
	}, nil
}

// TestHostConcurrencyCap floods two hosts with many more workers than
// the per-host cap allows and asserts no host ever exceeded it, while a
// control run without the cap proves the workload would have.
func TestHostConcurrencyCap(t *testing.T) {
	targets := make([]Target, 0, 24)
	for i := 0; i < 12; i++ {
		targets = append(targets,
			Target{Rank: 2*i + 1, URL: "https://a.test/" + string(rune('a'+i))},
			Target{Rank: 2*i + 2, URL: "https://b.test/" + string(rune('a'+i))})
	}
	run := func(hostConc int) (*hostCountingFetcher, Stats) {
		f := &hostCountingFetcher{cur: map[string]int{}, maxSeen: map[string]int{}}
		b := browser.New(f, browser.DefaultOptions())
		c := New(b, Config{Workers: 16, PerSiteTimeout: time.Second, HostConcurrency: hostConc})
		ds := c.Crawl(context.Background(), targets)
		if len(ds.Records) != len(targets) {
			t.Fatalf("records: %d, want %d", len(ds.Records), len(targets))
		}
		return f, c.Stats()
	}

	f, stats := run(3)
	for host, m := range f.maxSeen {
		if m > 3 {
			t.Errorf("host %s saw %d concurrent visits, cap 3", host, m)
		}
	}
	if stats.MaxHostInFlight > 3 {
		t.Errorf("MaxHostInFlight %d exceeds cap 3", stats.MaxHostInFlight)
	}

	// Control: unlimited dispatch of the same workload overlaps more,
	// so the capped run above was a real constraint, not a slow fetcher.
	f, stats = run(-1)
	over := 0
	for _, m := range f.maxSeen {
		if m > 3 {
			over++
		}
	}
	if over == 0 {
		t.Errorf("uncapped control never exceeded 3 concurrent visits per host: %v", f.maxSeen)
	}
	if stats.MaxHostInFlight <= 3 {
		t.Errorf("uncapped MaxHostInFlight %d, want > 3", stats.MaxHostInFlight)
	}
}

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

// TestBackoffDeferralNeverEarly asserts the scheduler's deferral heap
// honors retry deadlines: with idle workers standing by, a re-queued
// visit still never re-attempts before its exponential backoff has
// elapsed.
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
// twice through the scheduler — per-host caps on, retries on — and
// asserts the two datasets are identical: deferral, requeueing, and
// host caps reorder work in time but must not change any record.
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
			MaxRetries: 3, RetryBackoff: 10 * time.Millisecond, HostConcurrency: 2})
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

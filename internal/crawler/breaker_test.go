package crawler

import (
	"context"
	"errors"
	"testing"
	"time"

	"permodyssey/internal/browser"
	"permodyssey/internal/store"
)

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 20 * time.Millisecond})

	// Below threshold: stays closed.
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow("h.test"); !ok {
			t.Fatalf("closed circuit refused request %d", i)
		}
		b.Report("h.test", false)
	}
	if s := b.Stats(); s.Trips != 0 {
		t.Fatalf("tripped below threshold: %+v", s)
	}

	// Third consecutive failure: trips open.
	b.Allow("h.test")
	b.Report("h.test", false)
	if s := b.Stats(); s.Trips != 1 || s.OpenHosts != 1 {
		t.Fatalf("want 1 trip and 1 open host, got %+v", s)
	}
	if ok, _ := b.Allow("h.test"); ok {
		t.Fatal("open circuit allowed a request inside its cooldown")
	}
	if s := b.Stats(); s.ShortCircuits == 0 {
		t.Fatalf("short-circuit not counted: %+v", s)
	}

	// Other hosts are unaffected.
	if ok, _ := b.Allow("other.test"); !ok {
		t.Fatal("healthy host blocked by another host's open circuit")
	}

	// After the cooldown: exactly one half-open probe gets through.
	time.Sleep(25 * time.Millisecond)
	if ok, probe := b.Allow("h.test"); !ok || !probe {
		t.Fatalf("cooled-down circuit: allowed %v, probe %v; want its half-open probe", ok, probe)
	}
	if ok, _ := b.Allow("h.test"); ok {
		t.Fatal("second request allowed while a probe was in flight")
	}

	// Failed probe: re-opens for another cooldown.
	b.Report("h.test", false)
	if s := b.Stats(); s.Reopens != 1 || s.HalfOpenProbes != 1 {
		t.Fatalf("want 1 reopen after failed probe, got %+v", s)
	}
	if ok, _ := b.Allow("h.test"); ok {
		t.Fatal("re-opened circuit allowed a request")
	}

	// Successful probe: closes and forgets the host.
	time.Sleep(25 * time.Millisecond)
	if ok, probe := b.Allow("h.test"); !ok || !probe {
		t.Fatalf("re-cooled circuit: allowed %v, probe %v; want its probe", ok, probe)
	}
	b.Report("h.test", true)
	if s := b.Stats(); s.Closes != 1 || s.OpenHosts != 0 {
		t.Fatalf("want closed circuit after successful probe, got %+v", s)
	}
	if ok, _ := b.Allow("h.test"); !ok {
		t.Fatal("closed circuit refused a request")
	}
}

// TestBreakerProbeWithoutVerdict: a half-open probe cut off by its
// caller's context says nothing about the host, so the circuit must let
// the next request probe instead of short-circuiting for good.
func TestBreakerProbeWithoutVerdict(t *testing.T) {
	down := true
	f := fetcherFunc(func(ctx context.Context, rawURL string) (*browser.Response, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if down {
			return nil, errReset{}
		}
		return &browser.Response{Status: 200, FinalURL: rawURL, Body: "<html></html>"}, nil
	})
	bf := NewBreakerFetcher(f, BreakerConfig{Threshold: 1, Cooldown: 10 * time.Millisecond})
	if _, err := bf.Fetch(context.Background(), "https://h.test/"); err == nil {
		t.Fatal("want the reset that trips the circuit")
	}
	time.Sleep(12 * time.Millisecond)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bf.Fetch(cancelled, "https://h.test/"); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe under a cancelled context: %v, want context.Canceled", err)
	}

	down = false
	for i := 0; i < 3; i++ {
		if _, err := bf.Fetch(context.Background(), "https://h.test/"); err != nil {
			t.Errorf("fetch %d after the host recovered: %v", i, err)
		}
		time.Sleep(15 * time.Millisecond)
	}
	s := bf.Breaker.Stats()
	if s.ShortCircuits != 0 || s.HalfOpenProbes != 2 || s.Closes != 1 || s.OpenHosts != 0 {
		t.Errorf("want the verdictless probe to hand over to a second, closing one: %+v", s)
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 0})
	for i := 0; i < 100; i++ {
		if ok, _ := b.Allow("h.test"); !ok {
			t.Fatal("disabled breaker refused a request")
		}
		b.Report("h.test", false)
	}
	if s := b.Stats(); s != (BreakerStats{}) {
		t.Fatalf("disabled breaker counted something: %+v", s)
	}
}

func TestBreakerFetcherShortCircuits(t *testing.T) {
	f := &flakyFetcher{failures: map[string]int{"https://down.test/": -1},
		fail: func(string) error { return errors.New("read tcp: connection reset by peer") }}
	bf := NewBreakerFetcher(f, BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := bf.Fetch(ctx, "https://down.test/"); err == nil {
			t.Fatal("want fetch error")
		}
	}
	_, err := bf.Fetch(ctx, "https://down.test/")
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen after threshold, got %v", err)
	}
	if got := Classify(err); got != store.FailureBreakerOpen {
		t.Fatalf("Classify(short-circuit) = %q, want breaker-open", got)
	}
	// The short-circuited attempt never reached the inner fetcher.
	if s := bf.Breaker.Stats(); s.ShortCircuits != 1 {
		t.Fatalf("want 1 short-circuit, got %+v", s)
	}
	// A healthy host is unaffected.
	if _, err := bf.Fetch(ctx, "https://ok.test/"); err != nil {
		t.Fatalf("healthy host blocked: %v", err)
	}
}

func TestBreakerFetcherIgnoresCancellation(t *testing.T) {
	f := &flakyFetcher{failures: map[string]int{"https://slow.test/": -1},
		fail: func(string) error { return context.Canceled }}
	bf := NewBreakerFetcher(f, BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		if _, err := bf.Fetch(ctx, "https://slow.test/"); errors.Is(err, ErrCircuitOpen) {
			t.Fatal("cancellation opened the circuit")
		}
	}
	if s := bf.Breaker.Stats(); s.Trips != 0 {
		t.Fatalf("cancelled fetches tripped the breaker: %+v", s)
	}
}

// TestBreakerRecoversFlappingSite drives a full crawl against a host
// that fails enough to open its circuit, then recovers: the retry
// backoff must outlive the cooldown so a half-open probe lands and the
// site is measured after all.
func TestBreakerRecoversFlappingSite(t *testing.T) {
	f := &flakyFetcher{failures: map[string]int{"https://flap.test/": 2},
		fail: func(string) error { return errors.New("read tcp: connection reset by peer") }}
	bf := NewBreakerFetcher(f, BreakerConfig{Threshold: 2, Cooldown: time.Millisecond})
	b := browser.New(bf, browser.DefaultOptions())
	c := New(b, Config{Workers: 1, PerSiteTimeout: time.Second,
		MaxRetries: 4, RetryBackoff: 5 * time.Millisecond})

	ds := c.Crawl(context.Background(), []Target{{Rank: 1, URL: "https://flap.test/"}})
	rec := ds.Records[0]
	if !rec.OK() {
		t.Fatalf("flapping site not recovered: failure=%q err=%q", rec.Failure, rec.Error)
	}
	if rec.FirstAttemptFailure != store.FailureEphemeral {
		t.Errorf("FirstAttemptFailure = %q, want ephemeral", rec.FirstAttemptFailure)
	}
	s := bf.Breaker.Stats()
	if s.Trips != 1 {
		t.Errorf("want the circuit to trip once, got %+v", s)
	}
	if s.HalfOpenProbes == 0 || s.Closes == 0 {
		t.Errorf("want a successful half-open probe, got %+v", s)
	}
}

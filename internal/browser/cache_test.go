package browser

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingFetcher counts Fetch calls and can inject delays and errors.
type countingFetcher struct {
	calls atomic.Int64
	delay time.Duration
	// failures maps URLs to the number of times they fail before
	// succeeding; -1 fails forever.
	mu       sync.Mutex
	failures map[string]int
}

func (f *countingFetcher) Fetch(ctx context.Context, rawURL string) (*Response, error) {
	f.calls.Add(1)
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f.mu.Lock()
	n := f.failures[rawURL]
	if n != 0 {
		if n > 0 {
			f.failures[rawURL] = n - 1
		}
		f.mu.Unlock()
		return nil, errors.New("injected failure for " + rawURL)
	}
	f.mu.Unlock()
	return &Response{Status: 200, Body: "body of " + rawURL, FinalURL: rawURL}, nil
}

func TestCachingFetcherHitMiss(t *testing.T) {
	inner := &countingFetcher{}
	c := NewCachingFetcher(inner, 0)
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		resp, err := c.Fetch(ctx, "https://widget.example/w.js")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Body != "body of https://widget.example/w.js" {
			t.Fatalf("wrong body: %q", resp.Body)
		}
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("inner fetches = %d, want 1", got)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 4 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 4 hits, 1 entry", s)
	}
}

func TestCachingFetcherBypassPolicy(t *testing.T) {
	inner := &countingFetcher{}
	c := NewCachingFetcher(inner, 0)
	c.Cacheable = func(rawURL string) bool { return !strings.Contains(rawURL, "site") }
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := c.Fetch(ctx, "https://www.site000001.com/"); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.calls.Load(); got != 3 {
		t.Errorf("bypassed URL fetched %d times through cache, want 3", got)
	}
	s := c.Stats()
	if s.Bypassed != 3 || s.Hits != 0 || s.Misses != 0 {
		t.Errorf("stats = %+v, want 3 bypassed and nothing cached", s)
	}
}

func TestCachingFetcherErrorsNotCached(t *testing.T) {
	inner := &countingFetcher{failures: map[string]int{"https://flaky.example/": 2}}
	c := NewCachingFetcher(inner, 0)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := c.Fetch(ctx, "https://flaky.example/"); err == nil {
			t.Fatal("expected injected failure")
		}
	}
	if _, err := c.Fetch(ctx, "https://flaky.example/"); err != nil {
		t.Fatalf("third fetch should succeed: %v", err)
	}
	// Success is now cached.
	if _, err := c.Fetch(ctx, "https://flaky.example/"); err != nil {
		t.Fatal(err)
	}
	if got := inner.calls.Load(); got != 3 {
		t.Errorf("inner fetches = %d, want 3 (two failures + one success)", got)
	}
	s := c.Stats()
	if s.Errors != 2 || s.Misses != 3 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 2 errors, 3 misses, 1 hit", s)
	}
}

// TestCachingFetcherSingleflight drives many goroutines at the same
// slow URL and checks exactly one inner fetch happens, with every other
// caller either coalescing onto it or hitting the cache afterwards.
// Run under -race this also proves the cache is concurrency-safe.
func TestCachingFetcherSingleflight(t *testing.T) {
	inner := &countingFetcher{delay: 30 * time.Millisecond}
	c := NewCachingFetcher(inner, 0)
	const goroutines = 32

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Fetch(context.Background(), "https://cdn.example/lib.js")
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Body != "body of https://cdn.example/lib.js" {
				t.Errorf("wrong body: %q", resp.Body)
			}
		}()
	}
	wg.Wait()

	if got := inner.calls.Load(); got != 1 {
		t.Errorf("inner fetches = %d, want 1 (singleflight)", got)
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Coalesced != goroutines-1 {
		t.Errorf("hits (%d) + coalesced (%d) = %d, want %d",
			s.Hits, s.Coalesced, s.Hits+s.Coalesced, goroutines-1)
	}
}

// TestCachingFetcherLeaderFailureNotShared: a waiter must not inherit
// the leader's failure (which may stem from the leader's own per-site
// deadline); it retries the fetch itself.
func TestCachingFetcherLeaderFailureNotShared(t *testing.T) {
	inner := &countingFetcher{delay: 20 * time.Millisecond,
		failures: map[string]int{"https://once.example/": 1}}
	c := NewCachingFetcher(inner, 0)

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Fetch(context.Background(), "https://once.example/")
		}(i)
	}
	wg.Wait()

	// Exactly one goroutine was the first leader and absorbed the
	// injected failure; everyone else must have recovered.
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("%d goroutines failed, want exactly 1 (the first leader)", failed)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Errorf("entries = %d, want the eventual success cached", s.Entries)
	}
}

// panicOnceFetcher panics on its first Fetch and serves afterwards.
type panicOnceFetcher struct{ calls atomic.Int32 }

func (f *panicOnceFetcher) Fetch(_ context.Context, rawURL string) (*Response, error) {
	if f.calls.Add(1) == 1 {
		panic("inner fetcher exploded")
	}
	return &Response{Status: 200, Body: "body of " + rawURL, FinalURL: rawURL}, nil
}

// TestCachingFetcherPanicDoesNotWedge: an inner fetcher that panics
// must not leave its URL in flight. The panic reaches the caller (the
// crawler recovers it per visit), and the next Fetch of the URL fetches
// afresh instead of waiting out its whole deadline.
func TestCachingFetcherPanicDoesNotWedge(t *testing.T) {
	c := NewCachingFetcher(&panicOnceFetcher{}, 0)
	const u = "https://widget.example/w.js"
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the inner fetcher's panic did not reach the caller")
			}
		}()
		c.Fetch(context.Background(), u)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	resp, err := c.Fetch(ctx, u)
	if err != nil {
		t.Fatalf("fetch after a panicking fetch: %v", err)
	}
	if resp.Body != "body of "+u {
		t.Errorf("body = %q", resp.Body)
	}
}

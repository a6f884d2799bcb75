package browser

import (
	"context"
	"strings"
	"testing"
)

// TestCachingFetcherEviction: a cache bounded to two bodies' bytes
// holds two URLs, evicts least-recently-used, and re-fetches evicted
// URLs.
func TestCachingFetcherEviction(t *testing.T) {
	inner := &countingFetcher{}
	c := NewCachingFetcher(inner, 2*int64(len("body of https://a.test/")))
	ctx := context.Background()

	for _, u := range []string{"https://a.test/", "https://b.test/", "https://c.test/"} {
		if _, err := c.Fetch(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("want 2 entries and 1 eviction, got %+v", s)
	}

	// a.test was evicted (least recently used): fetching it again is a
	// real fetch; c.test is still a hit.
	calls := inner.calls.Load()
	if _, err := c.Fetch(ctx, "https://c.test/"); err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != calls {
		t.Error("recently-used entry was evicted")
	}
	if _, err := c.Fetch(ctx, "https://a.test/"); err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != calls+1 {
		t.Error("evicted entry served from cache")
	}
}

// sizedBodyFetcher serves a body of per-URL configured length.
type sizedBodyFetcher struct{ sizes map[string]int }

func (f sizedBodyFetcher) Fetch(_ context.Context, rawURL string) (*Response, error) {
	return &Response{Status: 200, Body: strings.Repeat("x", f.sizes[rawURL]), FinalURL: rawURL}, nil
}

// TestCachingFetcherByteBudget: the byte bound evicts as many entries
// as it takes to stay under budget, and accounts the bytes.
func TestCachingFetcherByteBudget(t *testing.T) {
	inner := sizedBodyFetcher{sizes: map[string]int{
		"https://a.test/": 400,
		"https://b.test/": 400,
		"https://c.test/": 700,
	}}
	c := NewCachingFetcher(inner, 1000)
	ctx := context.Background()

	for _, u := range []string{"https://a.test/", "https://b.test/", "https://c.test/"} {
		if _, err := c.Fetch(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	// 400+400+700 = 1500: a and b must both go to fit c's 700.
	s := c.Stats()
	if s.Evictions != 2 || s.BytesEvicted != 800 {
		t.Fatalf("want 2 evictions / 800 bytes evicted, got %+v", s)
	}
	if s.Entries != 1 || s.CachedBytes != 700 {
		t.Fatalf("want only c cached (700 B), got %+v", s)
	}
}

// TestCachingFetcherOversizedBodyNeverCached: a body alone bigger than
// the whole byte budget is served to the caller but not retained.
func TestCachingFetcherOversizedBodyNeverCached(t *testing.T) {
	inner := sizedBodyFetcher{sizes: map[string]int{
		"https://small.test/": 100,
		"https://huge.test/":  5000,
	}}
	c := NewCachingFetcher(inner, 1000)
	ctx := context.Background()

	if _, err := c.Fetch(ctx, "https://small.test/"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Fetch(ctx, "https://huge.test/")
	if err != nil || len(resp.Body) != 5000 {
		t.Fatalf("oversized body not served intact: %d bytes, %v", len(resp.Body), err)
	}
	s := c.Stats()
	if s.Entries != 0 || s.CachedBytes != 0 {
		t.Fatalf("oversized body (or its victims) retained: %+v", s)
	}
	if s.Evictions != 2 || s.BytesEvicted != 5100 {
		t.Fatalf("want 2 evictions / 5100 bytes (small + huge itself), got %+v", s)
	}
	// The huge URL stays fetchable — it just always misses.
	if _, err := c.Fetch(ctx, "https://huge.test/"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Misses; got != 3 {
		t.Errorf("misses = %d, want 3 (huge never cached)", got)
	}
}

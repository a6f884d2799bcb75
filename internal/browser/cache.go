package browser

import (
	"context"
	"sync/atomic"

	"permodyssey/internal/memo"
)

// CacheStats is a point-in-time snapshot of CachingFetcher counters.
type CacheStats struct {
	// Hits are lookups answered from the in-memory cache without
	// touching the disk archive or the inner fetcher.
	Hits uint64 `json:"hits"`
	// Misses are lookups that fell through the in-memory cache (to the
	// disk archive when one is attached, else to the inner fetcher).
	Misses uint64 `json:"misses"`
	// Coalesced are lookups that joined an in-flight fetch of the same
	// URL and shared its result (singleflight de-duplication).
	Coalesced uint64 `json:"coalesced"`
	// Bypassed are lookups the Cacheable policy routed past the
	// in-memory cache (per-site documents); they still consult the disk
	// archive when one is attached.
	Bypassed uint64 `json:"bypassed"`
	// Errors are fetches that failed; failures are never cached in
	// memory.
	Errors uint64 `json:"errors"`
	// Evictions are entries dropped to keep the cache under its byte
	// bound; BytesEvicted is the summed body bytes they were charged
	// for.
	Evictions    uint64 `json:"evictions"`
	BytesEvicted uint64 `json:"bytes_evicted"`
	// CachedBytes is the summed body length of the Entries cached URLs.
	CachedBytes uint64 `json:"cached_bytes"`
	Entries     uint64 `json:"entries"`
	// NetworkFetches counts calls that reached the inner fetcher — the
	// crawl's true network cost after both cache tiers. Offline replay
	// must leave it at zero.
	NetworkFetches uint64 `json:"network_fetches"`
	// Disk snapshots the persistent archive tier; zero when none is
	// attached.
	Disk ArchiveStats `json:"disk"`
}

// CachingFetcher wraps a Fetcher with a concurrency-safe, URL-keyed
// response memo. The crawl's hot path re-fetches the same Zipf-popular
// third-party widget documents and CDN scripts for thousands of sites;
// caching them collapses that to one fetch each. Keys are full URLs, so
// per-site documents would be cached per site anyway — but since each
// site is visited exactly once, the Cacheable policy lets the caller
// bypass the cache for them entirely and keep memory bounded by the
// shared-resource population.
//
// The memo supplies the caching rules: concurrent fetches of one URL
// share a single fetch; failures are never cached and never shared, so
// a waiter whose leader failed (for example to the leader's own
// per-site deadline) re-fetches under its own context; entries are
// evicted least-recently-used to stay under the byte bound.
//
// Cached *Response values are shared between callers and must be
// treated as read-only, like MapFetcher entries.
type CachingFetcher struct {
	Inner Fetcher
	// Cacheable decides whether a URL participates in the cache; nil
	// caches everything. The measurement pipeline passes a policy that
	// bypasses the per-site document hosts and caches everything else
	// (the cross-origin widget and CDN resources shared between sites).
	Cacheable func(rawURL string) bool
	// Disk, when non-nil, is a persistent read-through/write-through
	// tier consulted between the in-memory cache and the inner fetcher.
	// Unlike the in-memory tier it also serves Cacheable-bypassed URLs:
	// the per-site documents must be archived for offline replay, and
	// on disk they cost no crawl memory. In strict offline mode the
	// archive's Load returns an error on every miss and the inner
	// fetcher is never called.
	Disk ResponseArchive

	responses                        *memo.Memo[string, *Response]
	bypassed, errors, networkFetches atomic.Uint64
}

// NewCachingFetcher wraps inner with a cache holding at most maxBytes
// of summed body bytes (<= 0 = unbounded). A single body larger than
// maxBytes is served but never retained.
func NewCachingFetcher(inner Fetcher, maxBytes int64) *CachingFetcher {
	return &CachingFetcher{Inner: inner, responses: memo.New[string, *Response](maxBytes)}
}

// Fetch implements Fetcher.
func (c *CachingFetcher) Fetch(ctx context.Context, rawURL string) (*Response, error) {
	if c.Cacheable != nil && !c.Cacheable(rawURL) {
		c.bypassed.Add(1)
		return c.fetchThrough(ctx, rawURL)
	}
	return c.responses.Get(ctx, rawURL, func() (*Response, int64, error) {
		resp, err := c.fetchThrough(ctx, rawURL)
		if err != nil {
			c.errors.Add(1)
			return nil, 0, err
		}
		return resp, int64(len(resp.Body)), nil
	})
}

// fetchThrough consults the persistent archive tier, then the network.
// Successful network fetches are written through to the archive;
// failures are archived too (minus crawler-local conditions the archive
// filters out) so offline replay reproduces them.
func (c *CachingFetcher) fetchThrough(ctx context.Context, rawURL string) (*Response, error) {
	if c.Disk != nil {
		resp, err := c.Disk.Load(rawURL)
		if err != nil {
			return nil, err
		}
		if resp != nil {
			return resp, nil
		}
	}
	c.networkFetches.Add(1)
	resp, err := c.Inner.Fetch(ctx, rawURL)
	if c.Disk != nil {
		if err == nil {
			c.Disk.Store(rawURL, resp)
		} else {
			c.Disk.StoreFailure(rawURL, err)
		}
	}
	return resp, err
}

// Stats snapshots the cache counters.
func (c *CachingFetcher) Stats() CacheStats {
	m := c.responses.Stats()
	s := CacheStats{
		Hits:           m.Hits,
		Misses:         m.Misses,
		Coalesced:      m.Coalesced,
		Bypassed:       c.bypassed.Load(),
		Errors:         c.errors.Load(),
		Evictions:      m.Evictions,
		BytesEvicted:   m.BytesEvicted,
		CachedBytes:    m.CachedBytes,
		Entries:        m.Entries,
		NetworkFetches: c.networkFetches.Load(),
	}
	if c.Disk != nil {
		s.Disk = c.Disk.Stats()
	}
	return s
}

package static

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"permodyssey/internal/lru"
)

// CacheStats is a point-in-time snapshot of Cache counters.
type CacheStats struct {
	// Hits are script bodies answered from the cache; Misses are real
	// pattern scans.
	Hits   uint64
	Misses uint64
	// Evictions are entries dropped to keep the cache under its cap.
	Evictions uint64
	// Entries is the number of distinct script bodies currently cached.
	Entries uint64
}

// Cache memoizes Analyzer.Analyze keyed by script content, mirroring
// script.CompileCache: the same third-party widget script is included by
// thousands of sites, and its pattern scan — a walk over the full
// registry — is identical every time. Findings depend on the source
// alone except for the ScriptURL attribution field, so entries are
// stored URL-less and stamped per caller.
//
// The cache is LRU-bounded (0 = unbounded) so one-off inline scripts
// cannot grow it without limit across a multi-million-site crawl.
type Cache struct {
	analyzer *Analyzer

	mu      sync.Mutex
	entries *lru.Cache[[sha256.Size]byte, []Finding]

	hits, misses, evictions atomic.Uint64
}

// NewCache wraps analyzer with a findings cache holding at most
// maxEntries distinct script bodies (<= 0 = unbounded). A nil analyzer
// gets a fresh one over the full registry.
func NewCache(analyzer *Analyzer, maxEntries int) *Cache {
	if analyzer == nil {
		analyzer = NewAnalyzer()
	}
	return &Cache{
		analyzer: analyzer,
		entries:  lru.New[[sha256.Size]byte, []Finding](maxEntries),
	}
}

// Analyze returns the findings for src, scanning it on first sight and
// stamping scriptURL onto the (shared, otherwise read-only) results.
func (c *Cache) Analyze(src, scriptURL string) []Finding {
	sum := sha256.Sum256([]byte(src))
	c.mu.Lock()
	cached, ok := c.entries.Get(sum)
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		cached = c.analyzer.Analyze(src, "")
		c.mu.Lock()
		if _, _, _, _, evicted := c.entries.Add(sum, cached); evicted {
			c.evictions.Add(1)
		}
		c.mu.Unlock()
	} else {
		c.hits.Add(1)
	}
	if len(cached) == 0 {
		return nil
	}
	out := make([]Finding, len(cached))
	copy(out, cached)
	for i := range out {
		out[i].ScriptURL = scriptURL
	}
	return out
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := uint64(c.entries.Len())
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}

package script

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"permodyssey/internal/lru"
)

// CompileStats is a point-in-time snapshot of CompileCache counters.
type CompileStats struct {
	// Hits are sources answered from the cache; Misses are real
	// parse+compile runs.
	Hits   uint64
	Misses uint64
	// Coalesced are lookups that joined an in-flight compile of the same
	// source and shared its result.
	Coalesced uint64
	// Evictions are entries dropped to keep the cache under its cap.
	Evictions uint64
	// Entries is the number of distinct sources currently cached.
	Entries uint64
}

type compileEntry struct {
	done chan struct{}
	prog *Compiled
	err  error
}

// CompileCache memoizes Parse plus Compile keyed by source content, so
// each distinct script body — in a crawl, the handful of shared
// third-party widget and CDN scripts included by thousands of sites —
// is parsed and lowered exactly once per crawl. Compiled programs are
// immutable — every per-run mutable structure (frames, closures, this
// bindings) is allocated at execution time — so one cached *Compiled is
// safe to run concurrently from many realms. Failures are cached too:
// the same source always fails the same way.
//
// The cache is LRU-bounded (0 = unbounded): a chaos-heavy or
// multi-million-site crawl full of one-off inline scripts cannot grow
// it without limit. Evicting an in-flight entry is harmless — waiters
// hold the entry pointer; at worst the same source compiles twice.
type CompileCache struct {
	mu      sync.Mutex
	entries *lru.Cache[[sha256.Size]byte, *compileEntry]

	hits, misses, coalesced, evictions atomic.Uint64
}

// NewCompileCache creates an empty, unbounded cache; use
// NewBoundedCompileCache to cap it.
func NewCompileCache() *CompileCache {
	return NewBoundedCompileCache(0)
}

// NewBoundedCompileCache creates a cache holding at most maxEntries
// distinct sources (<= 0 = unbounded), evicted least-recently-used.
func NewBoundedCompileCache(maxEntries int) *CompileCache {
	return &CompileCache{entries: lru.New[[sha256.Size]byte, *compileEntry](maxEntries)}
}

// Compile returns the cached compiled program for src, parsing and
// lowering it on first sight. Concurrent first sights of the same
// source are de-duplicated: one caller compiles, the rest wait and
// share the result.
func (c *CompileCache) Compile(src string) (*Compiled, error) {
	sum := sha256.Sum256([]byte(src))
	c.mu.Lock()
	if e, ok := c.entries.Get(sum); ok {
		c.mu.Unlock()
		select {
		case <-e.done:
			c.hits.Add(1)
		default:
			<-e.done
			c.coalesced.Add(1)
		}
		return e.prog, e.err
	}
	e := &compileEntry{done: make(chan struct{})}
	if _, _, _, _, evicted := c.entries.Add(sum, e); evicted {
		c.evictions.Add(1)
	}
	c.mu.Unlock()

	c.misses.Add(1)
	var prog *Program
	if prog, e.err = Parse(src); e.err == nil {
		e.prog, e.err = Compile(prog)
	}
	close(e.done)
	return e.prog, e.err
}

// Stats snapshots the cache counters.
func (c *CompileCache) Stats() CompileStats {
	c.mu.Lock()
	entries := uint64(c.entries.Len())
	c.mu.Unlock()
	return CompileStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}

package html

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"permodyssey/internal/lru"
)

// ParsedDoc is one immutable parsed document: the DOM tree plus the
// three extractions the crawler needs, collected in a single pass
// during tree construction. A ParsedDoc may be shared concurrently by
// many frames and many crawl workers — nothing in it may be mutated.
//
// Ownership: the document's nodes live in a pooled arena. Every holder
// (the cache, plus each ParseCache.Parse / ParseDoc caller) owns one
// reference; Release drops it, and when the last reference goes the
// arena's chunks return to the pools. Holding Tree, or any *Node inside
// it, past Release is a use-after-release bug — the extracted value
// slices (Iframes, Scripts, Links) are plain strings and structs and
// stay valid forever.
type ParsedDoc struct {
	Tree    *Node
	Iframes []Iframe
	Scripts []Script
	Links   []string
	// SrcLen is the byte length of the parsed source, which the tree's
	// strings keep alive.
	SrcLen int
	// SlabBytes is the arena memory the tree pins until its last
	// release. SrcLen + SlabBytes is the cache's byte charge.
	SlabBytes int

	arena *arena
	refs  atomic.Int32
}

// ParseDoc parses src into an arena-backed document with the iframe,
// script, and link extractions built during the same walk. The caller
// owns one reference and must Release it when done with Tree.
func ParseDoc(src string) *ParsedDoc {
	a := newArena()
	var ex docExtract
	d := &ParsedDoc{SrcLen: len(src), arena: a}
	d.Tree = parseInto(src, a, &ex)
	d.SlabBytes = a.slabBytes()
	if len(ex.iframes) > 0 {
		d.Iframes = make([]Iframe, 0, len(ex.iframes))
		for _, el := range ex.iframes {
			d.Iframes = append(d.Iframes, iframeOf(el))
		}
	}
	if len(ex.scripts) > 0 {
		d.Scripts = make([]Script, 0, len(ex.scripts))
		for _, el := range ex.scripts {
			d.Scripts = append(d.Scripts, scriptOf(el))
		}
	}
	d.Links = ex.links
	d.refs.Store(1)
	return d
}

// Release drops the caller's reference; the last release returns the
// arena to the pools. Safe on a nil document (a skipped parse).
func (d *ParsedDoc) Release() {
	if d == nil || d.arena == nil {
		return
	}
	if d.refs.Add(-1) == 0 {
		a := d.arena
		// Poison the tree pointer so a use-after-release trips fast and
		// loudly instead of reading recycled nodes.
		d.arena, d.Tree = nil, nil
		a.release()
	}
}

// ParseStats is a point-in-time snapshot of ParseCache counters.
type ParseStats struct {
	// Hits are documents answered from the cache; Misses are real parses.
	Hits   uint64
	Misses uint64
	// Coalesced are lookups that joined an in-flight parse of the same
	// body and shared its result.
	Coalesced uint64
	// Evictions are entries dropped to keep the cache under its caps.
	Evictions uint64
	// Entries is the number of distinct documents currently cached;
	// CachedBytes their summed charge: source plus arena slabs, or just
	// the source while a parse is in flight.
	Entries     uint64
	CachedBytes uint64
}

// cacheEntry is one cache slot. Reference accounting must survive two
// races: readers arriving while the parse is still in flight (the doc
// pointer does not exist yet), and the entry being evicted in either
// state. holds counts references handed out before the parse completes;
// on completion it seeds the doc's refcount and the doc takes over.
type cacheEntry struct {
	done chan struct{}

	mu    sync.Mutex
	holds int32
	doc   *ParsedDoc
}

// addHold takes one reference on behalf of a reader.
func (e *cacheEntry) addHold() {
	e.mu.Lock()
	if e.doc != nil {
		e.doc.refs.Add(1)
	} else {
		e.holds++
	}
	e.mu.Unlock()
}

// dropHold releases one reference (the cache's, on eviction).
func (e *cacheEntry) dropHold() {
	e.mu.Lock()
	doc := e.doc
	if doc == nil {
		e.holds--
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	doc.Release()
}

// ParseCache memoizes ParseDoc keyed by document content, so a body
// fetched N times across a crawl — the Zipf-popular third-party widget
// documents embedded by thousands of sites — is tokenized and built
// exactly once. Cached documents are immutable and shared; eviction
// releases the cache's reference, and the arena recycles only after the
// last concurrent reader releases too (refcounted, so a reader can
// never see recycled nodes). Concurrent first sights of the same body
// are singleflighted: one caller parses, the rest wait and share.
//
// The cache is bounded both by entry count and by summed bytes (either
// <= 0 = that bound off), evicted least-recently-used, reusing the lru
// byte-accounting idiom of the fetch cache. An entry is charged its
// source length when the parse starts and re-charged with the arena
// slabs the finished document pins, so the byte bound covers the
// retained memory rather than only the source text.
type ParseCache struct {
	mu      sync.Mutex
	entries *lru.Cache[[sha256.Size]byte, *cacheEntry]

	hits, misses, coalesced, evictions atomic.Uint64
}

// NewParseCache creates an empty cache holding at most maxEntries
// documents and maxBytes summed charge (each <= 0 = unbounded).
func NewParseCache(maxEntries int, maxBytes int64) *ParseCache {
	return &ParseCache{entries: lru.NewWithBytes[[sha256.Size]byte, *cacheEntry](maxEntries, maxBytes)}
}

// Parse returns the parsed document for src, parsing on first sight.
// The caller owns one reference and must Release the document when done
// with its Tree (the extracted slices outlive the release).
func (c *ParseCache) Parse(src string) *ParsedDoc {
	sum := sha256.Sum256([]byte(src))
	c.mu.Lock()
	if e, ok := c.entries.Get(sum); ok {
		// Take the reference before leaving the lock: an eviction racing
		// with this lookup must not drop the document to zero while we
		// wait on it.
		e.addHold()
		c.mu.Unlock()
		select {
		case <-e.done:
			c.hits.Add(1)
		default:
			<-e.done
			c.coalesced.Add(1)
		}
		return e.doc
	}
	// holds = 2: the cache's reference plus this (parsing) caller's.
	e := &cacheEntry{done: make(chan struct{}), holds: 2}
	_, _, evicted := c.entries.AddWithSize(sum, e, int64(len(src)))
	c.mu.Unlock()
	for _, ev := range evicted {
		c.evictions.Add(1)
		ev.Value.dropHold()
	}
	c.misses.Add(1)

	doc := ParseDoc(src)
	e.mu.Lock()
	// Transfer the entry's holds — cache ref (unless already evicted),
	// this caller, and any waiters that queued mid-parse — onto the doc.
	doc.refs.Store(e.holds)
	e.doc = doc
	e.mu.Unlock()
	close(e.done)
	c.recharge(sum, e, int64(doc.SrcLen+doc.SlabBytes))
	return doc
}

// recharge replaces the provisional source-length charge of a freshly
// parsed entry with its full size, evicting to restore the bounds. An
// entry evicted mid-parse is left alone: its key may already name a
// newer entry.
func (c *ParseCache) recharge(sum [sha256.Size]byte, e *cacheEntry, size int64) {
	c.mu.Lock()
	var evicted []lru.Evicted[[sha256.Size]byte, *cacheEntry]
	if cur, ok := c.entries.Peek(sum); ok && cur == e {
		_, _, evicted = c.entries.AddWithSize(sum, e, size)
	}
	c.mu.Unlock()
	for _, ev := range evicted {
		c.evictions.Add(1)
		ev.Value.dropHold()
	}
}

// Stats snapshots the cache counters.
func (c *ParseCache) Stats() ParseStats {
	c.mu.Lock()
	entries := uint64(c.entries.Len())
	bytes := uint64(c.entries.Bytes())
	c.mu.Unlock()
	return ParseStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Coalesced:   c.coalesced.Load(),
		Evictions:   c.evictions.Load(),
		Entries:     entries,
		CachedBytes: bytes,
	}
}

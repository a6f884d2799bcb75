// Package memo is the one cache type the crawl memoizes through: the
// fetch responses keyed by URL, and the script artifacts keyed by
// content digest. A crawl meets the same few third-party widget
// documents and scripts on thousands of sites, so each layer builds a
// value once per key and shares it; a multi-million-site crawl also
// needs every such cache bounded.
package memo

import (
	"context"
	"crypto/sha256"
	"errors"
	"hash"
	"sync"
	"sync/atomic"
)

// Key is a content digest: the SHA-256 of a body.
type Key [sha256.Size]byte

// sumChunk is the size of the pieces Sum copies a string through on its
// way into the hash.
const sumChunk = 8 << 10

// hasher is a reusable SHA-256 state with Sum's scratch.
type hasher struct {
	h   hash.Hash
	buf [sumChunk]byte
	sum []byte
}

var hashers = sync.Pool{New: func() any { return &hasher{h: sha256.New()} }}

// Sum returns the content digest of s. The hash takes bytes, and a
// body can be megabytes, so s is fed through a pooled sumChunk buffer
// instead of being converted to one []byte copy of itself.
func Sum(s string) Key {
	hs := hashers.Get().(*hasher)
	hs.h.Reset()
	for len(s) > 0 {
		n := copy(hs.buf[:], s)
		hs.h.Write(hs.buf[:n])
		s = s[n:]
	}
	hs.sum = hs.h.Sum(hs.sum[:0])
	var k Key
	copy(k[:], hs.sum)
	hashers.Put(hs)
	return k
}

// Stats is a point-in-time snapshot of a Memo's counters. The fields
// are untagged, so their JSON keys are the field names.
type Stats struct {
	// Hits are lookups answered by a built value; Misses are builds.
	Hits   uint64
	Misses uint64
	// Coalesced are lookups that waited on a concurrent build of the
	// same key and shared its value.
	Coalesced uint64
	// Evictions are values dropped to restore the bound; BytesEvicted
	// is their summed charge.
	Evictions    uint64
	BytesEvicted uint64
	// Entries is the number of values retained; CachedBytes their
	// summed charge.
	Entries     uint64
	CachedBytes uint64
}

// errPanicked is the outcome waiters see when a build panicked; they
// retry like after any failed build.
var errPanicked = errors.New("memo: build panicked")

// entry is one key's value, built once.
type entry[K comparable, V any] struct {
	key   K
	value V
	size  int64
	err   error         // the build's outcome, written before done closes
	done  chan struct{} // closed once the build has finished

	// built marks a published value on the recency list; built, prev
	// and next are guarded by the memo's mu.
	built      bool
	prev, next *entry[K, V]
}

// Memo is a concurrency-safe, bounded map from keys to values built on
// first sight. It states each caching rule once:
//
//   - Concurrent first sights of a key share one build.
//   - A build error goes to that caller alone and is never cached:
//     waiters retry, one of them becoming the next builder. A build that
//     panics fails the same way for its waiters, and the panic goes on
//     to the builder's caller.
//   - A waiter gives up with its own context's error.
//   - The build reports each value's byte charge. Built values are
//     evicted least-recently-used to keep the summed charge within its
//     bound; a value alone over the bound is served but never retained.
//
// Values are shared by every caller that gets them and must be treated
// as read-only; an evicted value stays valid for whoever still has it.
type Memo[K comparable, V any] struct {
	maxBytes int64

	mu    sync.Mutex
	items map[K]*entry[K, V] // built and in-flight entries
	lru   entry[K, V]        // list sentinel: lru.next is the most recently used
	n     int                // built entries
	bytes int64              // their summed charge

	hits, misses, coalesced, evictions, bytesEvicted atomic.Uint64
}

// New returns an empty memo holding at most maxBytes of summed charge
// (<= 0 = unbounded).
func New[K comparable, V any](maxBytes int64) *Memo[K, V] {
	m := &Memo[K, V]{maxBytes: maxBytes, items: map[K]*entry[K, V]{}}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// Get returns the value for key, calling build on a miss. build
// returns the value and its byte charge. The error is the build's own
// when this caller built, or ctx's when it gave up waiting on another
// caller's build; the value is meaningful only with a nil error.
func (m *Memo[K, V]) Get(ctx context.Context, key K, build func() (V, int64, error)) (V, error) {
	for {
		m.mu.Lock()
		e, ok := m.items[key]
		if !ok {
			e = &entry[K, V]{key: key, done: make(chan struct{})}
			m.items[key] = e
			m.mu.Unlock()
			return m.build(e, build)
		}
		if e.built {
			unlink(e)
			m.pushFront(e)
			m.mu.Unlock()
			m.hits.Add(1)
			return e.value, nil
		}
		m.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
		if e.err == nil {
			m.coalesced.Add(1)
			return e.value, nil
		}
		// The builder failed, possibly to its own caller's deadline,
		// which says nothing about ours: look again, and build if no one
		// else has started.
	}
}

// build runs the caller's build for the in-flight entry e and
// publishes the outcome. e.err starts as errPanicked, so a panicking
// build is published as failed, waking its waiters, while the panic
// continues to the caller.
func (m *Memo[K, V]) build(e *entry[K, V], build func() (V, int64, error)) (V, error) {
	m.misses.Add(1)
	e.err = errPanicked
	defer m.publish(e)
	e.value, e.size, e.err = build()
	return e.value, e.err
}

// publish ends e's build. A built value joins the recency list and
// evicts least-recently-used values until the bound holds again; a
// failed entry leaves the map so the next Get rebuilds.
func (m *Memo[K, V]) publish(e *entry[K, V]) {
	m.mu.Lock()
	if e.err != nil {
		delete(m.items, e.key)
	} else {
		e.built = true
		m.pushFront(e)
		m.n++
		m.bytes += e.size
		for m.maxBytes > 0 && m.bytes > m.maxBytes {
			old := m.lru.prev
			unlink(old)
			delete(m.items, old.key)
			m.n--
			m.bytes -= old.size
			m.evictions.Add(1)
			m.bytesEvicted.Add(uint64(old.size))
		}
	}
	m.mu.Unlock()
	close(e.done)
}

// pushFront makes e the most recently used entry. Callers hold mu.
func (m *Memo[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink removes e from the recency list. Callers hold mu.
func unlink[K comparable, V any](e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

// Stats snapshots the memo's counters.
func (m *Memo[K, V]) Stats() Stats {
	m.mu.Lock()
	entries, bytes := m.n, m.bytes
	m.mu.Unlock()
	return Stats{
		Hits:         m.hits.Load(),
		Misses:       m.misses.Load(),
		Coalesced:    m.coalesced.Load(),
		Evictions:    m.evictions.Load(),
		BytesEvicted: m.bytesEvicted.Load(),
		Entries:      uint64(entries),
		CachedBytes:  uint64(bytes),
	}
}

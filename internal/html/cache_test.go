package html

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"permodyssey/internal/memo"
)

// docGet extracts src through the document memo, failing the test on
// an error.
func docGet(t testing.TB, docs *memo.Memo[memo.Key, Doc], src string) Doc {
	t.Helper()
	d, err := ExtractShared(context.Background(), docs, src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameDoc reports whether two Docs share one extraction (the same
// backing arrays), not merely equal contents.
func sameDoc(a, b Doc) bool {
	return len(a.Iframes) > 0 && len(b.Iframes) > 0 && &a.Iframes[0] == &b.Iframes[0]
}

func TestParseCacheHitMiss(t *testing.T) {
	c := NewDocMemo(0)
	srcA, srcB := `<iframe src="/a"></iframe>`, `<iframe src="/b"></iframe>`
	a, b, other := docGet(t, c, srcA), docGet(t, c, srcA), docGet(t, c, srcB)
	if !sameDoc(a, b) {
		t.Error("identical bodies must share one Doc")
	}
	if sameDoc(a, other) || other.Iframes[0].Src != "/b" {
		t.Error("distinct bodies must not share a Doc")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Errorf("stats: %+v", s)
	}
	// Each Doc is charged its extracted strings, "/a" and "/b", not its
	// source: it no longer aliases the source, so it keeps none alive.
	if want := uint64(len("/a") + len("/b")); s.CachedBytes != want {
		t.Errorf("cached bytes: %d, want the two extractions' %d", s.CachedBytes, want)
	}
}

func TestParseCacheSingleflight(t *testing.T) {
	c := NewDocMemo(0)
	const goroutines = 16
	src := `<div><iframe src="/shared" allow="camera"></iframe><script>w()</script></div>`
	docs := make([]Doc, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if docs[i], err = ExtractShared(context.Background(), c, src); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < goroutines; i++ {
		if !sameDoc(docs[i], docs[0]) {
			t.Fatal("concurrent first sights must share one Doc")
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses: %d (want 1: one caller extracts, the rest coalesce or hit)", s.Misses)
	}
	if s.Hits+s.Coalesced != goroutines-1 {
		t.Errorf("hits %d + coalesced %d != %d", s.Hits, s.Coalesced, goroutines-1)
	}
}

func TestParseCacheByteBound(t *testing.T) {
	c := NewDocMemo(64)
	docGet(t, c, `<p>tiny</p>`)
	// An entry alone larger than the budget is served but never retained.
	// The charge is the extraction, so the document is oversized by its
	// 200-byte href, not by its source.
	big := docGet(t, c, `<div><a href="/`+strings.Repeat("b", 199)+`">big</a></div>`)
	if len(big.Links) != 1 {
		t.Error("oversized document must still extract")
	}
	s := c.Stats()
	if s.CachedBytes > 64 {
		t.Errorf("byte bound violated: %d cached", s.CachedBytes)
	}
	if s.Evictions == 0 {
		t.Error("oversized insert must evict")
	}
}

// TestParseCacheConcurrentChurn hammers the cache with overlapping
// bodies, a tiny byte bound, and concurrent readers — the -race run
// proves the eviction accounting has no windows.
func TestParseCacheConcurrentChurn(t *testing.T) {
	const bound = 64
	c := NewDocMemo(bound)
	bodies := make([]string, 12)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`<div><iframe src="/w%d" allow="camera"></iframe><a href="/l%d">x</a></div>`, i, i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := (g*7 + i) % len(bodies)
				d, err := ExtractShared(context.Background(), c, bodies[n])
				if err != nil {
					t.Error(err)
					return
				}
				if len(d.Iframes) != 1 || len(d.Links) != 1 || d.Links[0] != fmt.Sprintf("/l%d", n) {
					t.Error("bad extraction under churn")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.CachedBytes > bound {
		t.Errorf("byte bound violated: %d cached", s.CachedBytes)
	}
	if s.Misses == 0 || s.Evictions == 0 {
		t.Errorf("churn stats implausible: %+v", s)
	}
}

package html

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestParseCacheHitMiss(t *testing.T) {
	c := NewParseCache(0, 0)
	a := c.Parse(`<iframe src="/a"></iframe>`)
	b := c.Parse(`<iframe src="/a"></iframe>`)
	if a != b {
		t.Error("identical bodies must share one ParsedDoc")
	}
	other := c.Parse(`<iframe src="/b"></iframe>`)
	if other == a {
		t.Error("distinct bodies must not share a ParsedDoc")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Errorf("stats: %+v", s)
	}
	if s.CachedBytes != uint64(a.SrcLen+a.SlabBytes+other.SrcLen+other.SlabBytes) {
		t.Errorf("cached bytes: %d", s.CachedBytes)
	}
	a.Release()
	b.Release()
	other.Release()
}

func TestParseCacheSingleflight(t *testing.T) {
	c := NewParseCache(0, 0)
	const goroutines = 16
	src := `<div><iframe src="/shared" allow="camera"></iframe><script>w()</script></div>`
	docs := make([]*ParsedDoc, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			docs[i] = c.Parse(src)
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if docs[i] != docs[0] {
			t.Fatal("concurrent first sights must share one ParsedDoc")
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses: %d (want 1: one caller parses, the rest coalesce or hit)", s.Misses)
	}
	if s.Hits+s.Coalesced != goroutines-1 {
		t.Errorf("hits %d + coalesced %d != %d", s.Hits, s.Coalesced, goroutines-1)
	}
	for _, d := range docs {
		d.Release()
	}
}

// TestParseCacheEvictionWhileReading pins the refcounting contract: an
// entry evicted while a reader still holds its document must not
// recycle the arena under the reader.
func TestParseCacheEvictionWhileReading(t *testing.T) {
	c := NewParseCache(1, 0) // every new body evicts the previous one
	src := `<div><iframe src="/held" allow="camera"></iframe></div>`
	held := c.Parse(src)
	want := Iframes(held.Tree)

	// Churn the cache: each parse evicts the prior entry.
	for i := 0; i < 20; i++ {
		d := c.Parse(fmt.Sprintf(`<iframe src="/churn%d"></iframe>`, i))
		d.Release()
	}
	if got := c.Stats().Evictions; got == 0 {
		t.Fatal("churn produced no evictions")
	}
	// The held document must still read correctly: its arena cannot have
	// been recycled while we hold a reference.
	if held.Tree == nil {
		t.Fatal("held document released under an active reader")
	}
	if got := Iframes(held.Tree); !reflect.DeepEqual(got, want) {
		t.Errorf("held document changed after eviction: %+v vs %+v", got, want)
	}
	held.Release()
	if held.Tree != nil {
		t.Error("last release must poison the tree")
	}
}

// TestParseCacheChargesSlabs pins the byte charge of a cached document
// to its source plus every arena slab it holds: a cached document pins
// at least one node, attr and kid slab (40 KB) however short its
// source, so charging the source alone let the byte bound under-count
// retained memory about a hundredfold.
func TestParseCacheChargesSlabs(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 300; i++ { // past one node slab
		fmt.Fprintf(&b, `<p class="c%d">x</p>`, i)
	}
	src := b.String()
	c := NewParseCache(0, 0)
	d := c.Parse(src)
	defer d.Release()
	a := d.arena
	slabs := len(a.nodes)*nodeChunkSize*int(unsafe.Sizeof(Node{})) +
		len(a.attrs)*attrChunkSize*int(unsafe.Sizeof(Attr{})) +
		len(a.kids)*kidChunkSize*int(unsafe.Sizeof(&Node{}))
	if len(a.nodes) < 2 || len(a.attrs) == 0 || len(a.kids) == 0 {
		t.Fatalf("slabs held: %d node, %d attr, %d kid; want >= 2, 1, 1", len(a.nodes), len(a.attrs), len(a.kids))
	}
	if d.SlabBytes != slabs {
		t.Errorf("SlabBytes = %d; want %d", d.SlabBytes, slabs)
	}
	if got, want := c.Stats().CachedBytes, uint64(len(src)+slabs); got != want {
		t.Errorf("charge = %d; want SrcLen %d + slabs %d = %d", got, len(src), slabs, want)
	}

	// A budget that fits one small document's full charge keeps one.
	one := ParseDoc(`<p>tiny1</p>`)
	budget := int64(one.SrcLen + one.SlabBytes)
	one.Release()
	bounded := NewParseCache(0, budget)
	bounded.Parse(`<p>tiny1</p>`).Release()
	bounded.Parse(`<p>tiny2</p>`).Release()
	if s := bounded.Stats(); s.Entries != 1 || s.CachedBytes > uint64(budget) {
		t.Errorf("budget %d: %d entries, %d bytes cached", budget, s.Entries, s.CachedBytes)
	}
}

func TestParseCacheByteBound(t *testing.T) {
	c := NewParseCache(0, 64)
	small := c.Parse(`<p>tiny</p>`)
	small.Release()
	// An entry alone larger than the budget is served but never retained.
	big := c.Parse(`<div>` + string(make([]byte, 200)) + `</div>`)
	if len(big.Tree.Children) == 0 {
		t.Error("oversized document must still parse")
	}
	big.Release()
	s := c.Stats()
	if s.CachedBytes > 64 {
		t.Errorf("byte bound violated: %d cached", s.CachedBytes)
	}
	if s.Evictions == 0 {
		t.Error("oversized insert must evict")
	}
}

// TestParseCacheConcurrentChurn hammers the cache with overlapping
// bodies, a tiny entry bound, and concurrent readers — the -race run
// proves the hold/eviction accounting has no windows.
func TestParseCacheConcurrentChurn(t *testing.T) {
	c := NewParseCache(4, 0)
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
				body := bodies[(g*7+i)%len(bodies)]
				d := c.Parse(body)
				if len(d.Iframes) != 1 || len(d.Links) != 1 {
					t.Error("bad extraction under churn")
					d.Release()
					return
				}
				if d.Tree == nil || d.Tree.First("iframe") == nil {
					t.Error("recycled tree observed under churn")
					d.Release()
					return
				}
				d.Release()
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > 4 {
		t.Errorf("entry bound violated: %d", s.Entries)
	}
	if s.Misses == 0 || s.Evictions == 0 {
		t.Errorf("churn stats implausible: %+v", s)
	}
}

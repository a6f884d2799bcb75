package memo

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// constant returns a build that yields v charged at size bytes.
func constant(v string, size int64) func() (string, int64, error) {
	return func() (string, int64, error) { return v, size, nil }
}

// mustGet gets key, failing the test on an error.
func mustGet(t *testing.T, m *Memo[string, string], key string, size int64) string {
	t.Helper()
	v, err := m.Get(context.Background(), key, constant("value of "+key, size))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// cached reports whether key is retained, without building or
// touching recency.
func cached(m *Memo[string, string], key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.items[key]
	return ok && e.built
}

// within fails the test unless ch delivers before the timeout.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not finish within 5s", what)
		panic("unreachable")
	}
}

func TestHitMiss(t *testing.T) {
	m := New[string, string](0)
	if got := mustGet(t, m, "a", 1); got != "value of a" {
		t.Fatalf("Get(a) = %q", got)
	}
	v, err := m.Get(context.Background(), "a", func() (string, int64, error) {
		t.Fatal("a cached key was rebuilt")
		return "", 0, nil
	})
	if err != nil || v != "value of a" {
		t.Fatalf("hit: %q, %v", v, err)
	}
	mustGet(t, m, "b", 2)
	want := Stats{Hits: 1, Misses: 2, Entries: 2, CachedBytes: 3}
	if s := m.Stats(); s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
}

// TestSingleflight drives many goroutines at one slow key: exactly one
// builds, and every other either coalesces onto that build or hits.
func TestSingleflight(t *testing.T) {
	m := New[string, string](0)
	const goroutines = 32
	var builds atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Get(context.Background(), "k", func() (string, int64, error) {
				builds.Add(1)
				time.Sleep(20 * time.Millisecond)
				return "shared", 6, nil
			})
			if err != nil || v != "shared" {
				t.Errorf("Get = %q, %v", v, err)
			}
		}()
	}
	wg.Wait()
	s := m.Stats()
	if builds.Load() != 1 || s.Misses != 1 {
		t.Errorf("%d builds, %d misses; want 1", builds.Load(), s.Misses)
	}
	if s.Hits+s.Coalesced != goroutines-1 {
		t.Errorf("hits %d + coalesced %d != %d", s.Hits, s.Coalesced, goroutines-1)
	}
}

// TestEvictionOrder: the byte bound evicts the least recently used
// key, and a hit counts as a use.
func TestEvictionOrder(t *testing.T) {
	m := New[string, string](20)
	mustGet(t, m, "a", 10)
	mustGet(t, m, "b", 10)
	mustGet(t, m, "a", 10) // b is now the least recently used
	mustGet(t, m, "c", 10)
	if cached(m, "b") || !cached(m, "a") || !cached(m, "c") {
		t.Fatal("want b evicted, a and c retained")
	}
	if s := m.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries, 1 eviction", s)
	}
	mustGet(t, m, "b", 0)
	if got := m.Stats().Misses; got != 4 {
		t.Errorf("misses = %d, want 4 (the evicted key rebuilt)", got)
	}
}

// TestByteBudgetEviction: the byte bound evicts least recently used
// values until the budget holds again, and accounts their charge.
func TestByteBudgetEviction(t *testing.T) {
	m := New[string, string](100)
	mustGet(t, m, "a", 40)
	mustGet(t, m, "b", 40)
	// 70 more bytes must push out both a and b: 150 over budget, still
	// 110 after a alone goes.
	mustGet(t, m, "c", 70)
	want := Stats{Misses: 3, Evictions: 2, BytesEvicted: 80, Entries: 1, CachedBytes: 70}
	if s := m.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// TestByteBudgetOversizedEntry: a value alone larger than the budget is
// served but never retained: it evicts everything, then itself.
func TestByteBudgetOversizedEntry(t *testing.T) {
	m := New[string, string](100)
	mustGet(t, m, "small", 30)
	if got := mustGet(t, m, "huge", 500); got != "value of huge" {
		t.Fatalf("oversized value not served: %q", got)
	}
	want := Stats{Misses: 2, Evictions: 2, BytesEvicted: 530}
	if s := m.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
	mustGet(t, m, "huge", 500)
	if got := m.Stats().Misses; got != 3 {
		t.Errorf("misses = %d, want 3 (huge never cached)", got)
	}
}

// TestChargeAtPublish: a value is charged what its build reports, once
// the build is done; an in-flight build holds no charge and no entry.
func TestChargeAtPublish(t *testing.T) {
	m := New[string, string](100)
	mustGet(t, m, "a", 60)
	started, finish := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := m.Get(context.Background(), "b", func() (string, int64, error) {
			close(started)
			<-finish
			return "b", 50, nil
		}); err != nil {
			t.Error(err)
		}
	}()
	within(t, started, "build start")
	if s := m.Stats(); s.Entries != 1 || s.CachedBytes != 60 {
		t.Errorf("during the build: %+v, want a alone charged", s)
	}
	close(finish)
	within(t, done, "build")
	if s := m.Stats(); s.Entries != 1 || s.CachedBytes != 50 || s.BytesEvicted != 60 {
		t.Errorf("after the build: %+v, want b's 50 bytes, a's 60 evicted", s)
	}
}

// TestErrorNotCached: a failed build is returned to its caller and
// never cached; the next Get builds again, and a success is cached.
func TestErrorNotCached(t *testing.T) {
	m := New[string, string](0)
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := m.Get(context.Background(), "k", func() (string, int64, error) { return "", 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err = %v, want boom", i, err)
		}
	}
	mustGet(t, m, "k", 1)
	mustGet(t, m, "k", 1)
	if s := m.Stats(); s.Misses != 3 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 3 misses, 1 hit, 1 entry", s)
	}
}

// TestLeaderFailureNotShared: a waiter must not inherit its builder's
// failure (which may stem from the builder's own deadline); it retries.
func TestLeaderFailureNotShared(t *testing.T) {
	m := New[string, string](0)
	var builds atomic.Int32
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = m.Get(context.Background(), "k", func() (string, int64, error) {
				time.Sleep(20 * time.Millisecond)
				if builds.Add(1) == 1 {
					return "", 0, errors.New("first build fails")
				}
				return "ok", 2, nil
			})
		}(i)
	}
	wg.Wait()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("%d callers failed, want exactly 1 (the first builder)", failed)
	}
	if s := m.Stats(); s.Entries != 1 {
		t.Errorf("entries = %d, want the eventual success cached", s.Entries)
	}
}

// TestWaiterContextCancel: a waiter gives up with its own context's
// error while the build goes on, and the build's value is still cached.
func TestWaiterContextCancel(t *testing.T) {
	m := New[string, string](0)
	started, finish := make(chan struct{}), make(chan struct{})
	built := make(chan error, 1)
	go func() {
		_, err := m.Get(context.Background(), "k", func() (string, int64, error) {
			close(started)
			<-finish
			return "v", 1, nil
		})
		built <- err
	}()
	within(t, started, "build start")
	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() {
		_, err := m.Get(ctx, "k", constant("unused", 0))
		waited <- err
	}()
	cancel()
	if err := within(t, waited, "canceled waiter"); !errors.Is(err, context.Canceled) {
		t.Errorf("waiter err = %v, want context.Canceled", err)
	}
	close(finish)
	if err := within(t, built, "build"); err != nil {
		t.Fatal(err)
	}
	mustGet(t, m, "k", 1)
	if s := m.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the value built once and then hit", s)
	}
}

// TestConcurrentChurn hammers a tiny memo with overlapping keys and
// concurrent readers: every reader gets its key's value, every value
// built is either retained or counted evicted, and -race shows the
// recency list and counters have no windows.
func TestConcurrentChurn(t *testing.T) {
	var built atomic.Uint64
	m := New[int, int](4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := (g*7 + i) % 12
				v, err := m.Get(context.Background(), key, func() (int, int64, error) {
					built.Add(1)
					return key, 1, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v != key {
					t.Errorf("key %d: read %d", key, v)
				}
			}
		}(g)
	}
	wg.Wait()
	s := m.Stats()
	if s.Entries > 4 || s.Evictions == 0 {
		t.Errorf("churn stats implausible: %+v", s)
	}
	if s.Misses != built.Load() || s.Evictions+s.Entries != built.Load() {
		t.Errorf("stats = %+v; want misses and evictions+entries = %d builds", s, built.Load())
	}
}

// waitProbe is a context that reports when Get first selects on its
// Done channel, which Get does only to wait on another caller's build.
type waitProbe struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitProbe) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestBuildPanic: a panicking build must not wedge its key. The panic
// reaches the builder's caller, a waiter blocked on that build rebuilds
// and gets its own value, and a later Get is a hit.
func TestBuildPanic(t *testing.T) {
	m := New[string, string](0)
	started, finish := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		m.Get(context.Background(), "k", func() (string, int64, error) {
			close(started)
			<-finish
			panic("build exploded")
		})
	}()
	within(t, started, "build start")
	probe := &waitProbe{Context: context.Background(), waiting: make(chan struct{})}
	waited := make(chan string, 1)
	go func() {
		v, err := m.Get(probe, "k", constant("rebuilt", 1))
		if err != nil {
			t.Error(err)
		}
		waited <- v
	}()
	within(t, probe.waiting, "waiter queueing on the build")
	close(finish)
	if r := within(t, recovered, "panicking build"); fmt.Sprint(r) != "build exploded" {
		t.Fatalf("builder's caller recovered %v, want the build's panic", r)
	}
	if got := within(t, waited, "waiter"); got != "rebuilt" {
		t.Fatalf("waiter got %q, want its own rebuilt value", got)
	}
	hit := make(chan string, 1)
	go func() {
		v, err := m.Get(context.Background(), "k", func() (string, int64, error) {
			return "", 0, errors.New("a cached key was rebuilt")
		})
		if err != nil {
			t.Error(err)
		}
		hit <- v
	}()
	if got := within(t, hit, "later Get"); got != "rebuilt" {
		t.Fatalf("later Get = %q, want the cached value", got)
	}
	if s := m.Stats(); s.Misses != 2 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 2 builds, 1 hit, 1 entry", s)
	}
}

// TestSumMatchesSHA256 pins Sum, which feeds the hash sumChunk bytes at
// a time, to one whole-string sha256.Sum256 at every piece boundary.
func TestSumMatchesSHA256(t *testing.T) {
	buf := make([]byte, 3*sumChunk+123)
	for i := range buf {
		buf[i] = byte(i*7 + i/251)
	}
	for _, n := range []int{0, 1, sumChunk - 1, sumChunk, sumChunk + 1, 2 * sumChunk, len(buf)} {
		if got, want := Sum(string(buf[:n])), Key(sha256.Sum256(buf[:n])); got != want {
			t.Errorf("Sum of %d bytes = %x, want %x", n, got, want)
		}
	}
}

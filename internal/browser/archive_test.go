package browser

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// stubArchive is an in-memory ResponseArchive for exercising the
// CachingFetcher disk tier without touching the filesystem.
type stubArchive struct {
	mu       sync.Mutex
	entries  map[string]*Response
	failures map[string]*ReplayedFailure
	offline  bool

	loads, stores, failureStores int
}

func newStubArchive() *stubArchive {
	return &stubArchive{entries: map[string]*Response{}, failures: map[string]*ReplayedFailure{}}
}

func (s *stubArchive) Load(rawURL string) (*Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	if r, ok := s.entries[rawURL]; ok {
		return r, nil
	}
	if f, ok := s.failures[rawURL]; ok && s.offline {
		return nil, f
	}
	if s.offline {
		return nil, fmt.Errorf("%w: %s", ErrNotArchived, rawURL)
	}
	return nil, nil
}

func (s *stubArchive) Store(rawURL string, resp *Response) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stores++
	s.entries[rawURL] = resp
}

func (s *stubArchive) StoreFailure(rawURL string, fetchErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failureStores++
	s.failures[rawURL] = &ReplayedFailure{Class: "ephemeral", Msg: fetchErr.Error()}
}

func (s *stubArchive) Stats() ArchiveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ArchiveStats{Entries: uint64(len(s.entries) + len(s.failures))}
}

func TestDiskTierReadThrough(t *testing.T) {
	inner := &countingFetcher{}
	c := NewCachingFetcher(inner, 0)
	disk := newStubArchive()
	disk.entries["https://cdn.test/lib.js"] = &Response{Status: 200, Body: "archived body"}
	c.Disk = disk

	got, err := c.Fetch(context.Background(), "https://cdn.test/lib.js")
	if err != nil || got.Body != "archived body" {
		t.Fatalf("Fetch = %v, %v; want the archived response", got, err)
	}
	if inner.calls.Load() != 0 {
		t.Errorf("inner fetches = %d, want 0 (disk hit)", inner.calls.Load())
	}
	if s := c.Stats(); s.NetworkFetches != 0 {
		t.Errorf("network fetches = %d, want 0", s.NetworkFetches)
	}
	// Second fetch is an in-memory hit: the disk tier is consulted once.
	if _, err := c.Fetch(context.Background(), "https://cdn.test/lib.js"); err != nil {
		t.Fatal(err)
	}
	if disk.loads != 1 {
		t.Errorf("disk loads = %d, want 1 (memory tier above disk)", disk.loads)
	}
}

func TestDiskTierWriteThrough(t *testing.T) {
	inner := &countingFetcher{}
	c := NewCachingFetcher(inner, 0)
	disk := newStubArchive()
	c.Disk = disk

	if _, err := c.Fetch(context.Background(), "https://cdn.test/lib.js"); err != nil {
		t.Fatal(err)
	}
	if disk.stores != 1 {
		t.Errorf("disk stores = %d, want 1", disk.stores)
	}
	if s := c.Stats(); s.NetworkFetches != 1 {
		t.Errorf("network fetches = %d, want 1", s.NetworkFetches)
	}
	// Failures are written through too, for offline failure replay.
	inner.failures = map[string]int{"https://down.test/": -1}
	if _, err := c.Fetch(context.Background(), "https://down.test/"); err == nil {
		t.Fatal("expected injected failure")
	}
	if disk.failureStores != 1 {
		t.Errorf("disk failure stores = %d, want 1", disk.failureStores)
	}
}

// TestDiskTierServesBypassedURLs: the Cacheable policy keeps per-site
// documents out of memory, but the disk tier still covers them —
// offline replay needs every resource.
func TestDiskTierServesBypassedURLs(t *testing.T) {
	inner := &countingFetcher{}
	c := NewCachingFetcher(inner, 0)
	c.Cacheable = func(string) bool { return false }
	disk := newStubArchive()
	c.Disk = disk

	for i := 0; i < 3; i++ {
		got, err := c.Fetch(context.Background(), "https://www.site1.com/")
		if err != nil || got == nil {
			t.Fatal(err)
		}
	}
	if inner.calls.Load() != 1 {
		t.Errorf("inner fetches = %d, want 1 (first write-through, then disk hits)", inner.calls.Load())
	}
	if s := c.Stats(); s.Bypassed != 3 || s.NetworkFetches != 1 {
		t.Errorf("stats = %+v, want 3 bypassed, 1 network fetch", s)
	}
}

func TestOfflineMissSurfacesError(t *testing.T) {
	inner := &countingFetcher{}
	c := NewCachingFetcher(inner, 0)
	disk := newStubArchive()
	disk.offline = true
	c.Disk = disk

	_, err := c.Fetch(context.Background(), "https://never.test/")
	if !errors.Is(err, ErrNotArchived) {
		t.Fatalf("offline miss error = %v, want ErrNotArchived", err)
	}
	if inner.calls.Load() != 0 {
		t.Errorf("offline miss reached the network: %d calls", inner.calls.Load())
	}
	if s := c.Stats(); s.NetworkFetches != 0 {
		t.Errorf("network fetches = %d, want 0 offline", s.NetworkFetches)
	}
}

func TestOfflineFailureReplaySurfaces(t *testing.T) {
	inner := &countingFetcher{}
	c := NewCachingFetcher(inner, 0)
	disk := newStubArchive()
	disk.offline = true
	disk.failures["https://slow.test/"] = &ReplayedFailure{Class: "timeout", Msg: "context deadline exceeded"}
	c.Disk = disk

	_, err := c.Fetch(context.Background(), "https://slow.test/")
	var rf *ReplayedFailure
	if !errors.As(err, &rf) || rf.Class != "timeout" {
		t.Fatalf("err = %v, want the replayed timeout", err)
	}
	if inner.calls.Load() != 0 {
		t.Errorf("failure replay reached the network: %d calls", inner.calls.Load())
	}
}

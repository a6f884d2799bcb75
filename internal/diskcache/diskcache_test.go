package diskcache

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"permodyssey/internal/browser"
)

func mustOpen(t *testing.T, dir string, opts Options) *Archive {
	t.Helper()
	a, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func resp(body string) *browser.Response {
	return &browser.Response{
		Status:   200,
		Header:   http.Header{"Content-Type": []string{"text/html"}},
		Body:     body,
		FinalURL: "https://final.test/",
	}
}

// classifyAll archives every failure under one class, for tests that
// don't care about the taxonomy.
func classifyAll(error) string { return "ephemeral" }

func TestRoundtripAndReopen(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{Classify: classifyAll})
	a.Store("https://a.test/", resp("body A"))
	a.Store("https://b.test/", resp("body B"))
	a.StoreFailure("https://down.test/", errors.New("connection reset"))

	check := func(a *Archive, label string) {
		t.Helper()
		got, err := a.Load("https://a.test/")
		if err != nil || got == nil {
			t.Fatalf("%s: Load(a) = %v, %v", label, got, err)
		}
		if got.Body != "body A" || got.Status != 200 || got.FinalURL != "https://final.test/" {
			t.Errorf("%s: Load(a) lost fields: %+v", label, got)
		}
		if got.Header.Get("Content-Type") != "text/html" {
			t.Errorf("%s: Load(a) lost headers: %v", label, got.Header)
		}
		// Online mode never serves archived failures: the site may be
		// healthy again, so the caller should re-fetch it.
		if got, err := a.Load("https://down.test/"); got != nil || err != nil {
			t.Errorf("%s: Load(down) = %v, %v; want nil, nil online", label, got, err)
		}
		// Unknown URL is a plain miss online.
		if got, err := a.Load("https://never.test/"); got != nil || err != nil {
			t.Errorf("%s: Load(never) = %v, %v; want nil, nil", label, got, err)
		}
	}
	check(a, "same process")
	if s := a.Stats(); s.Writes != 3 || s.Entries != 3 || s.Objects != 2 || s.BytesStored == 0 {
		t.Errorf("stats = %+v, want 3 writes, 3 entries, 2 objects", s)
	}
	a.Close()

	check(mustOpen(t, dir, Options{}), "after reopen")
}

func TestObjectDedupAcrossURLs(t *testing.T) {
	a := mustOpen(t, t.TempDir(), Options{})
	a.Store("https://cdn-a.test/lib.js", resp("shared body"))
	a.Store("https://cdn-b.test/lib.js", resp("shared body"))
	s := a.Stats()
	if s.Entries != 2 || s.Objects != 1 {
		t.Errorf("stats = %+v, want 2 entries sharing 1 object", s)
	}
	if want := uint64(len("shared body")); s.BytesStored != want {
		t.Errorf("bytes stored = %d, want %d (second store must not rewrite)", s.BytesStored, want)
	}
}

// TestManifestCompaction: append-during-crawl leaves one line per
// outcome, including overwrites; reopening compacts back to one line
// per URL with the last outcome winning.
func TestManifestCompaction(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{Classify: classifyAll})
	a.StoreFailure("https://x.test/", errors.New("reset"))
	a.Store("https://x.test/", resp("recovered"))
	a.Store("https://y.test/", resp("y"))
	a.Close()

	if got := manifestLines(t, dir); got != 3 {
		t.Fatalf("manifest has %d lines before compaction, want 3 (append-only)", got)
	}
	b := mustOpen(t, dir, Options{})
	if got := manifestLines(t, dir); got != 2 {
		t.Errorf("manifest has %d lines after reopen, want 2 (compacted)", got)
	}
	got, err := b.Load("https://x.test/")
	if err != nil || got == nil || got.Body != "recovered" {
		t.Errorf("Load(x) = %v, %v; want the later success to win", got, err)
	}
}

// TestTruncatedManifestTail: a crash mid-append leaves a partial final
// line; open drops it, keeps the complete prefix, and compacts.
func TestTruncatedManifestTail(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	a.Store("https://ok.test/", resp("intact"))
	a.Close()

	path := filepath.Join(dir, manifestName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"url":"https://torn.test/","hash":"ab`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b := mustOpen(t, dir, Options{})
	if got, err := b.Load("https://ok.test/"); err != nil || got == nil || got.Body != "intact" {
		t.Errorf("intact prefix lost after truncated tail: %v, %v", got, err)
	}
	if got, err := b.Load("https://torn.test/"); got != nil || err != nil {
		t.Errorf("truncated tail resurrected: %v, %v", got, err)
	}
	if got := manifestLines(t, dir); got != 1 {
		t.Errorf("manifest has %d lines after recovery, want 1", got)
	}
}

// TestCorruptLineDropped: a corrupt (non-JSON) interior line is
// dropped without losing its neighbours.
func TestCorruptLineDropped(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	a.Store("https://first.test/", resp("first"))
	a.Close()
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte("!!not json!!\n"), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	b := mustOpen(t, dir, Options{})
	if got, err := b.Load("https://first.test/"); err != nil || got == nil {
		t.Errorf("record after corrupt line lost: %v, %v", got, err)
	}
}

// TestCraftedManifestHash: a success line whose hash is not a SHA-256
// digest, or whose pack is not a name the writer gives its packs, is a
// corrupt line under online and offline Open and under Compact — never
// a panic in objectPath's slicing, never a path to a file outside the
// archive — and online Open compacts it away.
func TestCraftedManifestHash(t *testing.T) {
	precious := sha256.Sum256([]byte("precious"))
	for name, ref := range map[string]string{
		"short": `"hash":"a"`,
		// Resolves from objects/xx/ to root/victim.txt.
		"traversal": `"hash":"../../../victim.txt"`,
		// Resolves from objects/ to root/victim.txt, whose bytes match
		// the hash: admitting it would serve a file outside the archive.
		"pack traversal": fmt.Sprintf(`"hash":"%x","pack":"../../../victim.txt"`, precious),
	} {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "crawl", "archive")
			victim := filepath.Join(root, "victim.txt")
			if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
				t.Fatal(err)
			}
			a := mustOpen(t, dir, Options{})
			a.Store("https://ok.test/", resp("intact"))
			a.Close()
			crafted := fmt.Sprintf(`{"url":"https://crafted.test/",%s,"size":8,"status":200}`+"\n", ref)
			plant := func() { appendManifest(t, dir, crafted) }
			checkVictim := func(label string) {
				t.Helper()
				if raw, err := os.ReadFile(victim); err != nil || string(raw) != "precious" {
					t.Fatalf("%s: file outside the archive touched: %q, %v", label, raw, err)
				}
			}

			plant()
			off := mustOpen(t, dir, Options{Offline: true})
			if got, err := off.Load("https://crafted.test/"); got != nil || !errors.Is(err, browser.ErrNotArchived) {
				t.Errorf("offline Load(crafted) = %v, %v; want ErrNotArchived", got, err)
			}
			checkVictim("offline Load")

			if err := Compact(dir); err != nil {
				t.Fatal(err)
			}
			if got := manifestLines(t, dir); got != 1 {
				t.Errorf("manifest has %d lines after Compact, want the crafted line dropped and 1 intact URL", got)
			}
			checkVictim("Compact")

			plant()
			on := mustOpen(t, dir, Options{})
			if got, err := on.Load("https://crafted.test/"); got != nil || err != nil {
				t.Errorf("online Load(crafted) = %v, %v; want a miss", got, err)
			}
			checkVictim("online Load")
			if got, err := on.Load("https://ok.test/"); err != nil || got == nil || got.Body != "intact" {
				t.Errorf("Load(ok) = %v, %v", got, err)
			}
			if s := on.Stats(); s.Entries != 1 || s.CorruptRecovered != 0 {
				t.Errorf("stats = %+v, want 1 entry and no corrupt object", s)
			}
			if got := manifestLines(t, dir); got != 1 {
				t.Errorf("manifest has %d lines after online Open, want the crafted line compacted away", got)
			}
		})
	}
}

// TestCorruptObjectDegradesToMiss: a bit-flipped object fails hash
// verification, counts as a corrupt recovery, and becomes a miss so
// the caller re-fetches; the re-store repairs the archive.
func TestCorruptObjectDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	a.Store("https://x.test/", resp("pristine body"))
	flipObjectByte(t, dir)

	if got, err := a.Load("https://x.test/"); got != nil || err != nil {
		t.Fatalf("corrupt object served: %v, %v; want miss", got, err)
	}
	if s := a.Stats(); s.CorruptRecovered != 1 {
		t.Errorf("corrupt recoveries = %d, want 1", s.CorruptRecovered)
	}
	// The re-fetch path stores again and the archive heals.
	a.Store("https://x.test/", resp("pristine body"))
	if got, err := a.Load("https://x.test/"); err != nil || got == nil || got.Body != "pristine body" {
		t.Errorf("archive did not heal after re-store: %v, %v", got, err)
	}
}

// TestTruncatedObjectDegradesToMiss: a half-written object (wrong
// size) is a miss, not an error.
func TestTruncatedObjectDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	a.Store("https://x.test/", resp("a body long enough to truncate"))
	truncateObject(t, dir)
	if got, err := a.Load("https://x.test/"); got != nil || err != nil {
		t.Fatalf("truncated object served: %v, %v; want miss", got, err)
	}
	if s := a.Stats(); s.CorruptRecovered != 1 {
		t.Errorf("corrupt recoveries = %d, want 1", s.CorruptRecovered)
	}
}

// TestMissingObjectDegradesToMiss: the manifest references an object
// someone deleted; still a miss, never fatal.
func TestMissingObjectDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	a.Store("https://x.test/", resp("body"))
	removeObjects(t, dir)
	if got, err := a.Load("https://x.test/"); got != nil || err != nil {
		t.Fatalf("missing object: %v, %v; want miss", got, err)
	}
}

// TestLoadAllocatesBodyOnce pins the cost of a hit: the object is read
// straight into the response's string, so a 1 MiB hit allocates the
// body once, not a []byte and then its string copy (2.01x).
func TestLoadAllocatesBodyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pins need a quiet heap")
	}
	a := mustOpen(t, t.TempDir(), Options{})
	var sb strings.Builder
	for i := 0; sb.Len() < 1<<20; i++ {
		fmt.Fprintf(&sb, "<p>%d</p>", i)
	}
	body := sb.String()[:1<<20]
	a.Store("https://big.test/", resp(body))
	load := func() {
		got, err := a.Load("https://big.test/")
		if err != nil || got == nil || got.Body != body {
			t.Fatalf("1 MiB hit: err %v, served %v", err, got != nil)
		}
	}
	load()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	perHit := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.1 * float64(len(body)); perHit > limit {
		t.Errorf("a 1 MiB hit allocates %.0f B (%.2fx the body); want <= %.0f", perHit, perHit/float64(len(body)), limit)
	}
}

// TestFailedWriteRetiresPack: a write that fails indexes nothing and
// retires its pack — its tail may hold part of the body — and the next
// Store appends to a fresh pack while the retired one's entries load.
func TestFailedWriteRetiresPack(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	a.Store("https://a.test/", resp("in the first pack"))
	a.pack.Close() // the next write fails, as on a full disk
	a.Store("https://lost.test/", resp("never archived"))
	if got, err := a.Load("https://lost.test/"); got != nil || err != nil {
		t.Errorf("Load(lost) = %v, %v; want a miss", got, err)
	}
	a.Store("https://b.test/", resp("in the second pack"))
	if e := a.index["https://b.test/"]; e.Pack != packName(2) || e.Offset != 0 {
		t.Errorf("store after the failure at %s+%d, want the start of %s", e.Pack, e.Offset, packName(2))
	}
	for url, body := range map[string]string{"https://a.test/": "in the first pack", "https://b.test/": "in the second pack"} {
		if got, err := a.Load(url); err != nil || got == nil || got.Body != body {
			t.Errorf("Load(%s) = %v, %v; want %q", url, got, err, body)
		}
	}
}

// TestStoreAfterClose: a Store after Close archives nothing — no
// manifest line, no index entry, no pack — and a Load after Close
// misses.
func TestStoreAfterClose(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{Classify: classifyAll})
	a.Store("https://before.test/", resp("archived"))
	a.Close()
	a.Store("https://after.test/", resp("too late"))
	a.StoreFailure("https://failed-after.test/", errors.New("too late"))
	if got, err := a.Load("https://before.test/"); got != nil || err != nil {
		t.Errorf("Load after Close = %v, %v; want a miss", got, err)
	}
	if s := a.Stats(); s.Writes != 1 || s.Entries != 1 || s.BytesStored != uint64(len("archived")) {
		t.Errorf("stats = %+v, want only the store before Close", s)
	}
	if got := objectsEntries(t, dir); len(got) != 1 {
		t.Errorf("objects/ holds %q, want the one pack written before Close", got)
	}
	b := mustOpen(t, dir, Options{Offline: true})
	if got, err := b.Load("https://before.test/"); err != nil || got == nil || got.Body != "archived" {
		t.Errorf("Load(before) = %v, %v", got, err)
	}
	for _, url := range []string{"https://after.test/", "https://failed-after.test/"} {
		if got, err := b.Load(url); got != nil || !errors.Is(err, browser.ErrNotArchived) {
			t.Errorf("Load(%s) = %v, %v; want it never archived", url, got, err)
		}
	}
}

// TestLegacyArchiveReplays: an archive written before packs — one file
// per body under objects/xx/, manifest lines without a pack — replays
// offline, and a writer over it appends its new bodies to a pack while
// the old entries keep loading from their files.
func TestLegacyArchiveReplays(t *testing.T) {
	dir := t.TempDir()
	old := map[string]string{
		"https://old-a.test/": "legacy body A",
		"https://old-b.test/": "legacy body B",
	}
	var manifest strings.Builder
	for url, body := range old {
		sum := sha256.Sum256([]byte(body))
		hash := hex.EncodeToString(sum[:])
		path := filepath.Join(dir, objectsDir, hash[:2], hash[2:])
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&manifest, `{"url":%q,"hash":%q,"size":%d,"status":200,"gen":1}`+"\n", url, hash, len(body))
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(label string, want map[string]string) {
		t.Helper()
		ar := mustOpen(t, dir, Options{Offline: true})
		for url, body := range want {
			if got, err := ar.Load(url); err != nil || got == nil || got.Body != body {
				t.Errorf("%s: Load(%s) = %v, %v; want %q", label, url, got, err, body)
			}
		}
		ar.Close()
	}
	check("legacy archive", old)
	legacy := objectsEntries(t, dir)

	w := mustOpen(t, dir, Options{})
	w.Store("https://new.test/", resp("a body stored after packs"))
	w.Store("https://old-a.test/", resp("legacy body A")) // a re-fetch of an old body
	if e := w.index["https://new.test/"]; e.Pack != packName(1) {
		t.Errorf("new entry references pack %q, want %q", e.Pack, packName(1))
	}
	if s := w.Stats(); s.BytesStored != uint64(len("a body stored after packs")) {
		t.Errorf("bytes stored = %d, want only the new body appended", s.BytesStored)
	}
	w.Close()
	want := append(legacy, packName(1))
	sort.Strings(want)
	if got := objectsEntries(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("objects/ holds %q, want the legacy buckets plus one pack %q", got, want)
	}
	old["https://new.test/"] = "a body stored after packs"
	check("after a pack writer", old)
}

// TestPackRangeOutsidePack: a manifest line whose range does not fit in
// its pack — past its end, at an offset beyond it, or with an offset
// and size whose sum overflows — is a miss online and offline, refused
// before anything near its claimed size is allocated.
func TestPackRangeOutsidePack(t *testing.T) {
	const body = "the one body in the pack"
	sum := sha256.Sum256([]byte(body))
	for name, c := range map[string]struct{ offset, size int64 }{
		"runs past the end":   {0, 64 << 20},
		"starts past the end": {int64(len(body)) + 1, 1},
		"offset at MaxInt64":  {math.MaxInt64, 64 << 20},
		"size at MaxInt64":    {1, math.MaxInt64},
		"sum overflows":       {math.MaxInt64 - 32<<20, 64 << 20},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			a := mustOpen(t, dir, Options{})
			a.Store("https://ok.test/", resp(body))
			a.Close()
			appendManifest(t, dir, fmt.Sprintf(`{"url":"https://crafted.test/","hash":"%x","size":%d,"pack":%q,"offset":%d,"status":200}`+"\n",
				sum, c.size, packName(1), c.offset))
			for _, offline := range []bool{true, false} {
				ar := mustOpen(t, dir, Options{Offline: offline})
				if got, err := ar.Load("https://ok.test/"); err != nil || got == nil || got.Body != body {
					t.Fatalf("offline %v: Load(ok) = %v, %v", offline, got, err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				got, err := ar.Load("https://crafted.test/")
				runtime.ReadMemStats(&after)
				if got != nil || (offline && !errors.Is(err, browser.ErrNotArchived)) || (!offline && err != nil) {
					t.Errorf("offline %v: Load(crafted) = %v, %v; want a miss", offline, got, err)
				}
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
					t.Errorf("offline %v: refusing the range allocated %d bytes", offline, alloc)
				}
				ar.Close()
			}
		})
	}
}

func TestOfflineMissIsDistinguishable(t *testing.T) {
	a := mustOpen(t, t.TempDir(), Options{Offline: true})
	got, err := a.Load("https://never.test/")
	if got != nil {
		t.Fatalf("offline miss returned a response: %+v", got)
	}
	if !errors.Is(err, browser.ErrNotArchived) {
		t.Fatalf("offline miss error = %v, want wrap of ErrNotArchived", err)
	}
	if !strings.Contains(err.Error(), "https://never.test/") {
		t.Errorf("offline miss error should name the URL: %v", err)
	}
}

func TestOfflineReplaysArchivedFailures(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{Classify: func(error) string { return "timeout" }})
	a.Store("https://ok.test/", resp("fine"))
	a.StoreFailure("https://slow.test/", errors.New("context deadline exceeded"))
	a.Close()

	b := mustOpen(t, dir, Options{Offline: true})
	if got, err := b.Load("https://ok.test/"); err != nil || got == nil || got.Body != "fine" {
		t.Errorf("offline success replay: %v, %v", got, err)
	}
	_, err := b.Load("https://slow.test/")
	var rf *browser.ReplayedFailure
	if !errors.As(err, &rf) {
		t.Fatalf("offline failure replay error = %v, want *ReplayedFailure", err)
	}
	if rf.Class != "timeout" || !strings.Contains(rf.Msg, "deadline") {
		t.Errorf("replayed failure = %+v, want recorded class and message", rf)
	}
	if s := b.Stats(); s.Hits != 2 {
		t.Errorf("offline hits = %d, want 2 (failure replays count)", s.Hits)
	}
}

// TestOfflineWritesNothing: strict replay never modifies the archive —
// no stores, no failure stores, no compaction, even when the manifest
// has append churn that online open would compact away, and no lock.
func TestOfflineWritesNothing(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	a.Store("https://x.test/", resp("v1"))
	a.Store("https://x.test/", resp("v2")) // duplicate line: compaction bait
	a.Close()

	before, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	b := mustOpen(t, dir, Options{Offline: true, Classify: classifyAll})
	b.Store("https://new.test/", resp("nope"))
	b.StoreFailure("https://new2.test/", errors.New("nope"))
	if got, err := b.Load("https://new.test/"); got != nil || !errors.Is(err, browser.ErrNotArchived) {
		t.Errorf("offline Store took effect: %v, %v", got, err)
	}
	after, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("offline mode modified the manifest")
	}
	if s := b.Stats(); s.Writes != 0 {
		t.Errorf("offline writes = %d, want 0", s.Writes)
	}
	// Nor does it take the manifest lock: a writer can open alongside.
	mustOpen(t, dir, Options{}).Close()
}

// TestOfflineCorruptObjectIsMiss: offline cannot re-fetch, so a
// corrupt object is an ErrNotArchived miss — and the archive is left
// untouched for a later online repair.
func TestOfflineCorruptObjectIsMiss(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	a.Store("https://x.test/", resp("body"))
	a.Close()
	flipObjectByte(t, dir)

	b := mustOpen(t, dir, Options{Offline: true})
	_, err := b.Load("https://x.test/")
	if !errors.Is(err, browser.ErrNotArchived) {
		t.Fatalf("offline corrupt load error = %v, want ErrNotArchived", err)
	}
	if s := b.Stats(); s.CorruptRecovered != 1 {
		t.Errorf("corrupt recoveries = %d, want 1", s.CorruptRecovered)
	}
	if countObjects(t, dir) != 1 {
		t.Error("offline mode deleted the corrupt object")
	}
}

func TestStoreFailureSkipsCrawlLocalClasses(t *testing.T) {
	a := mustOpen(t, t.TempDir(), Options{Classify: func(err error) string {
		if errors.Is(err, context.Canceled) {
			return "" // crawl-local: not a site property
		}
		return "unreachable"
	}})
	a.StoreFailure("https://interrupted.test/", context.Canceled)
	a.StoreFailure("https://gone.test/", errors.New("no such host"))
	if s := a.Stats(); s.Entries != 1 || s.Writes != 1 {
		t.Errorf("stats = %+v, want only the unreachable failure archived", s)
	}
}

func TestStoreFailureNilClassify(t *testing.T) {
	a := mustOpen(t, t.TempDir(), Options{})
	a.StoreFailure("https://x.test/", errors.New("boom"))
	if s := a.Stats(); s.Entries != 0 {
		t.Errorf("nil Classify archived a failure: %+v", s)
	}
}

// TestConcurrentStoreLoad hammers one archive from many goroutines —
// the shape of several crawl workers sharing one stack — under -race.
// Every worker appends to the session's one pack, so it also pins what
// that must not change: one body shared by many URLs (the per-site
// /frame0.html and /about documents, identical across sites) is
// first-stored concurrently yet written once, the session leaves one
// pack and no per-body files, every line's body is in place, and each
// URL's generations stay strictly ordered.
func TestConcurrentStoreLoad(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{Classify: classifyAll})
	const shared = "<html><body><p>in-house frame</p></body></html>"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				url := fmt.Sprintf("https://r%d.test/", i%10)
				switch i % 3 {
				case 0:
					a.Store(url, resp(fmt.Sprintf("body %d", i%10)))
				case 1:
					if r, err := a.Load(url); err != nil {
						t.Errorf("Load(%s): %v", url, err)
					} else if r != nil && !strings.HasPrefix(r.Body, "body ") {
						t.Errorf("Load(%s) garbled body %q", url, r.Body)
					}
				case 2:
					a.StoreFailure(fmt.Sprintf("https://f%d.test/", i%10), errors.New("reset"))
				}
				frame := fmt.Sprintf("https://s%d-%d.test/frame0.html", g, i)
				a.Store(frame, resp(shared))
				if r, err := a.Load(frame); err != nil || r == nil || r.Body != shared {
					t.Errorf("Load(%s) right after its Store = %v, %v", frame, r, err)
				}
			}
			a.Store(fmt.Sprintf("https://own%d.test/", g), resp(fmt.Sprintf("own body %d", g)))
		}(g)
	}
	wg.Wait()
	a.Close()

	want := map[string]string{} // URL → body
	bodies := map[string]bool{}
	for i := 0; i < 10; i++ {
		want[fmt.Sprintf("https://r%d.test/", i)] = fmt.Sprintf("body %d", i)
	}
	for g := 0; g < 8; g++ {
		want[fmt.Sprintf("https://own%d.test/", g)] = fmt.Sprintf("own body %d", g)
		for i := 0; i < 50; i++ {
			want[fmt.Sprintf("https://s%d-%d.test/frame0.html", g, i)] = shared
		}
	}
	distinct := uint64(0)
	for _, body := range want {
		if !bodies[body] {
			bodies[body] = true
			distinct += uint64(len(body))
		}
	}
	if s := a.Stats(); s.BytesStored != distinct || s.Objects != uint64(len(bodies)) {
		t.Errorf("stats = %+v, want %d bytes stored in %d objects (each distinct body written once)", s, distinct, len(bodies))
	}
	if got := objectsEntries(t, dir); len(got) != 1 || got[0] != packName(1) {
		t.Errorf("objects/ holds %q, want the session's one pack %q", got, packName(1))
	}

	// The append-only manifest records each URL's stores in strictly
	// increasing generations.
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]uint64{}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if line == "" {
			continue
		}
		var e entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("manifest line %q: %v", line, err)
		}
		if e.Gen <= last[e.URL] {
			t.Errorf("%s: generation %d after %d", e.URL, e.Gen, last[e.URL])
		}
		last[e.URL] = e.Gen
	}

	b := mustOpen(t, dir, Options{})
	for url, body := range want {
		if got, err := b.Load(url); err != nil || got == nil || got.Body != body {
			t.Errorf("after reopen, Load(%s) = %v, %v; want %q", url, got, err, body)
		}
	}

	t.Run("load forgets only the current location", func(t *testing.T) {
		// A Load that finds a body bad forgets its location only while it
		// is still the digest's current one. A fresh copy that a Store
		// appended in the meantime stays current, so the re-fetch of every
		// URL that referenced the bad copy reuses it instead of appending
		// the body once more per stale reader.
		dir := t.TempDir()
		a := mustOpen(t, dir, Options{})
		body := strings.Repeat("<p>shared landing page</p>", 40<<10)
		for round := 0; round < 20; round++ {
			url := func(name string) string { return fmt.Sprintf("https://%s%d.test/", name, round) }
			a.Store(url("first"), resp(body))
			a.Store(url("second"), resp(body))
			e := a.index[url("first")]
			flipPackByte(t, dir, e.Pack, e.Offset)
			if got, _ := a.Load(url("first")); got != nil {
				t.Fatalf("round %d: corrupt body served", round)
			}
			before := a.Stats().BytesStored
			if round%2 == 0 {
				// In order: the fresh copy lands before the stale reader
				// of the bad one gives up.
				a.Store(url("third"), resp(body))
				if got, _ := a.Load(url("second")); got != nil {
					t.Fatalf("round %d: corrupt body served to a second URL", round)
				}
			} else {
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); a.Load(url("second")) }()
				go func() { defer wg.Done(); a.Store(url("third"), resp(body)) }()
				wg.Wait()
			}
			// The callers' re-fetches reuse the fresh copy.
			a.Store(url("first"), resp(body))
			a.Store(url("second"), resp(body))
			if got, want := a.Stats().BytesStored-before, uint64(len(body)); got != want {
				t.Fatalf("round %d: %d bytes appended after the corruption, want one fresh copy (%d)", round, got, want)
			}
			for _, name := range []string{"first", "second", "third"} {
				if got, err := a.Load(url(name)); err != nil || got == nil || got.Body != body {
					t.Fatalf("round %d: Load(%s) = %v, %v", round, name, got, err)
				}
			}
		}
	})
}

// TestTwoCrawlStacksOneArchive: two independent CachingFetchers (the
// two-crawler shape) share one archive; the second serves everything
// from disk without touching its own network.
func TestTwoCrawlStacksOneArchive(t *testing.T) {
	a := mustOpen(t, t.TempDir(), Options{})
	urls := []string{"https://a.test/", "https://b.test/", "https://c.test/"}

	first := browser.NewCachingFetcher(fetcherFunc(func(_ context.Context, u string) (*browser.Response, error) {
		return resp("body of " + u), nil
	}), 0)
	first.Disk = a
	for _, u := range urls {
		if _, err := first.Fetch(context.Background(), u); err != nil {
			t.Fatal(err)
		}
	}

	second := browser.NewCachingFetcher(fetcherFunc(func(_ context.Context, u string) (*browser.Response, error) {
		t.Errorf("second stack hit the network for %s", u)
		return nil, errors.New("network")
	}), 0)
	second.Disk = a
	for _, u := range urls {
		got, err := second.Fetch(context.Background(), u)
		if err != nil || got.Body != "body of "+u {
			t.Fatalf("second stack Fetch(%s) = %v, %v", u, got, err)
		}
	}
	if s := second.Stats(); s.NetworkFetches != 0 {
		t.Errorf("second stack network fetches = %d, want 0", s.NetworkFetches)
	}
}

type fetcherFunc func(ctx context.Context, rawURL string) (*browser.Response, error)

func (f fetcherFunc) Fetch(ctx context.Context, rawURL string) (*browser.Response, error) {
	return f(ctx, rawURL)
}

// --- filesystem fault helpers ---

// appendManifest appends raw lines to dir's manifest.
func appendManifest(t *testing.T, dir, lines string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(lines); err != nil {
		t.Fatal(err)
	}
}

func manifestLines(t *testing.T, dir string) int {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		n++
	}
	return n
}

func objectFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(filepath.Join(dir, objectsDir), func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			out = append(out, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func countObjects(t *testing.T, dir string) int { return len(objectFiles(t, dir)) }

// objectsEntries lists the names directly under objects/, sorted, with
// a trailing slash on directories.
func objectsEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, objectsDir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			name += "/"
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// flipPackByte inverts the byte at off in the named pack, in place.
func flipPackByte(t *testing.T, dir, pack string, off int64) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, objectsDir, pack), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func flipObjectByte(t *testing.T, dir string) {
	t.Helper()
	for _, path := range objectFiles(t, dir) {
		raw, err := os.ReadFile(path)
		if err != nil || len(raw) == 0 {
			t.Fatal("cannot corrupt object", path, err)
		}
		raw[0] ^= 0xFF
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no object to corrupt")
}

func truncateObject(t *testing.T, dir string) {
	t.Helper()
	for _, path := range objectFiles(t, dir) {
		if err := os.Truncate(path, 3); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no object to truncate")
}

func removeObjects(t *testing.T, dir string) {
	t.Helper()
	for _, path := range objectFiles(t, dir) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
}

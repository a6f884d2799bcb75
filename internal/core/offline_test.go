package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"permodyssey/internal/store"
)

// archiveOptions is a small population whose failure classes are all
// timing-free (no stall-based timeouts), so a warm crawl and its
// offline replay are deterministic enough to compare byte for byte.
func archiveOptions(t *testing.T, sites int) MeasurementOptions {
	t.Helper()
	opts := DefaultMeasurementOptions()
	opts.Web.NumSites = sites
	opts.Web.Seed = 11
	opts.Web.TimeoutRate = 0
	opts.Crawl.Workers = 16
	opts.Crawl.PerSiteTimeout = 5 * time.Second
	opts.Crawl.MaxRetries = 1
	opts.Crawl.RetryBackoff = time.Millisecond
	opts.CacheDir = t.TempDir()
	return opts
}

// TestOfflineReplayEquivalence is the acceptance test for the archive:
// a warm crawl with -cache-dir followed by an offline re-crawl of the
// same population produces an identical analysis report — failure
// classes and retry counts included, because failures are archived and
// replayed too — with zero fetches reaching the inner fetcher.
func TestOfflineReplayEquivalence(t *testing.T) {
	opts := archiveOptions(t, 250)

	warm, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats.Fetch
	if ws.Disk.Writes == 0 || ws.Disk.BytesStored == 0 {
		t.Fatalf("warm crawl archived nothing: %+v", ws.Disk)
	}
	if ws.NetworkFetches == 0 {
		t.Fatalf("warm crawl made no network fetches: %+v", ws)
	}

	opts.Offline = true
	replay, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rs := replay.Stats.Fetch
	if rs.NetworkFetches != 0 {
		t.Errorf("offline replay made %d network fetches, want 0", rs.NetworkFetches)
	}
	if rs.Disk.Hits == 0 {
		t.Errorf("offline replay had no disk hits: %+v", rs.Disk)
	}
	if rs.Disk.Writes != 0 {
		t.Errorf("offline replay wrote %d archive entries, want 0", rs.Disk.Writes)
	}

	warmJSON, err := warm.Analysis.JSON(10)
	if err != nil {
		t.Fatal(err)
	}
	replayJSON, err := replay.Analysis.JSON(10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warmJSON, replayJSON) {
		t.Errorf("analysis reports differ between warm crawl and offline replay:\nwarm failures:   %v\nreplay failures: %v",
			warm.Dataset.FailureCounts(), replay.Dataset.FailureCounts())
	}
}

// TestArchiveIsOnePack: a crawl into a fresh archive appends every
// body to one pack file, so objects/ holds that pack and nothing else —
// no per-body files, no bucket directories.
func TestArchiveIsOnePack(t *testing.T) {
	opts := archiveOptions(t, 120)
	m, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Stats.Fetch.Disk; d.Objects < 100 {
		t.Fatalf("crawl archived %d bodies, want a population's worth", d.Objects)
	}
	entries, err := os.ReadDir(filepath.Join(opts.CacheDir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range entries {
		names = append(names, de.Name())
	}
	if len(entries) != 1 || !entries[0].Type().IsRegular() || filepath.Ext(names[0]) != ".pack" {
		t.Errorf("objects/ holds %q, want one pack file", names)
	}
}

// TestOfflineEmptyArchive: replaying against an archive that never saw
// a crawl turns every site into a distinguishable unreachable failure
// instead of silently fetching from the network.
func TestOfflineEmptyArchive(t *testing.T) {
	opts := archiveOptions(t, 30)
	opts.Offline = true

	m, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats.Fetch.NetworkFetches; got != 0 {
		t.Errorf("empty-archive replay made %d network fetches, want 0", got)
	}
	for _, r := range m.Dataset.Records {
		if r.Failure != store.FailureUnreachable {
			t.Errorf("rank %d: failure = %q, want %q (archive miss)", r.Rank, r.Failure, store.FailureUnreachable)
		}
	}
}

// TestCorruptArchiveDegrades: flip a byte in each of several archived
// bodies, re-run the warm crawl against the damaged archive, and the
// measurement is unchanged — corruption costs re-fetches, never
// correctness.
func TestCorruptArchiveDegrades(t *testing.T) {
	opts := archiveOptions(t, 120)

	first, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	firstJSON, err := first.Analysis.JSON(10)
	if err != nil {
		t.Fatal(err)
	}

	// The manifest locates each body in its pack; corrupt five
	// distinct ones in the middle.
	raw, err := os.ReadFile(filepath.Join(opts.CacheDir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	type body struct {
		Pack   string `json:"pack"`
		Offset int64  `json:"offset"`
		Size   int64  `json:"size"`
	}
	seen := map[body]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var b body
		if err := json.Unmarshal(line, &b); err != nil {
			t.Fatal(err)
		}
		if b.Pack == "" || b.Size == 0 || seen[b] || len(seen) == 5 {
			continue
		}
		seen[b] = true
		f, err := os.OpenFile(filepath.Join(opts.CacheDir, "objects", b.Pack), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := make([]byte, 1)
		if _, err := f.ReadAt(c, b.Offset+b.Size/2); err != nil {
			t.Fatal(err)
		}
		c[0] ^= 0xFF
		if _, err := f.WriteAt(c, b.Offset+b.Size/2); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	corrupted := len(seen)
	if corrupted < 5 {
		t.Fatalf("corrupted %d bodies, want 5", corrupted)
	}

	second, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Stats.Fetch.Disk.CorruptRecovered; got < uint64(corrupted) {
		t.Errorf("corrupt recoveries = %d, want >= %d", got, corrupted)
	}
	secondJSON, err := second.Analysis.JSON(10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstJSON, secondJSON) {
		t.Errorf("corruption changed the measurement:\nfirst failures:  %v\nsecond failures: %v",
			first.Dataset.FailureCounts(), second.Dataset.FailureCounts())
	}
}

// TestArchiveOptionValidation: the option combinations that cannot
// work fail loudly instead of silently dropping the archive.
func TestArchiveOptionValidation(t *testing.T) {
	opts := DefaultMeasurementOptions()
	opts.Web.NumSites = 5
	opts.Offline = true
	if _, err := Run(context.Background(), opts); err == nil {
		t.Error("Offline without CacheDir should fail")
	}

	opts = DefaultMeasurementOptions()
	opts.Web.NumSites = 5
	opts.CacheDir = t.TempDir()
	opts.DisableCache = true
	if _, err := Run(context.Background(), opts); err == nil {
		t.Error("CacheDir with DisableCache should fail")
	}
}

package diskcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"permodyssey/internal/browser"
)

// TestOpenSameShardFailsFast is the regression test for the
// documented multi-process manifest corruption: two processes opening
// the same directory used to interleave appends silently; now the
// second Open fails fast with ErrLocked instead. The archive has one
// manifest, so the only case left is the unnamed shard.
func TestOpenSameShardFailsFast(t *testing.T) {
	t.Run("shard=", func(t *testing.T) {
		dir := t.TempDir()
		a := mustOpen(t, dir, Options{})
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
			t.Fatalf("second Open error = %v, want ErrLocked", err)
		}
		a.Close()
		// Close releases the lock; the next Open succeeds.
		mustOpen(t, dir, Options{})
	})
}

// TestStaleLockStolen: a lock file left by a dead process (or a torn
// write that never recorded a pid) must not wedge the archive forever.
func TestStaleLockStolen(t *testing.T) {
	for name, content := range map[string]string{
		"dead pid": "999999999\n", // beyond kernel.pid_max on any stock config
		"garbage":  "not a pid\n",
		"empty":    "",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			lock := filepath.Join(dir, lockName)
			if err := os.WriteFile(lock, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			a := mustOpen(t, dir, Options{})
			a.Store("https://x.test/", resp("stole the stale lock"))
			a.Close()
		})
	}
}

// TestLiveLockRespected: a lock naming a live pid (ours) is never
// stolen, and the error names the holder.
func TestLiveLockRespected(t *testing.T) {
	dir := t.TempDir()
	lock := filepath.Join(dir, lockName)
	if err := os.WriteFile(lock, []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("Open error = %v, want ErrLocked", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprint(os.Getpid())) {
		t.Errorf("error should name the holding pid: %v", err)
	}
}

// TestReconcileNewerGenerationWins is the regression test for the
// success-then-refail sequence across three runs on one manifest: run
// 1 archives a URL as a success; run 2 re-fetches it (say the object
// went corrupt, or the population drifted) and archives a failure;
// run 3 heals it. Each run's outcome carries a newer store generation
// and is what an offline Open serves, before and after Compact — an
// older outcome is never resurrected.
func TestReconcileNewerGenerationWins(t *testing.T) {
	dir := t.TempDir()
	const url = "https://wasgood.test/"
	succeeded := func(body string) func(*Archive) error {
		return func(ar *Archive) error {
			if got, err := ar.Load(url); err != nil || got == nil || got.Body != body {
				return fmt.Errorf("Load = %v, %v; want %q", got, err, body)
			}
			return nil
		}
	}
	failed := func(ar *Archive) error {
		var rf *browser.ReplayedFailure
		if got, err := ar.Load(url); !errors.As(err, &rf) {
			return fmt.Errorf("Load = %v, %v; want the archived failure", got, err)
		}
		return nil
	}
	runs := []struct {
		store func(*Archive)
		check func(*Archive) error
	}{
		{func(a *Archive) { a.Store(url, resp("stale success")) }, succeeded("stale success")},
		{func(a *Archive) { a.StoreFailure(url, errors.New("gone now")) }, failed},
		{func(a *Archive) { a.Store(url, resp("healed")) }, succeeded("healed")},
	}
	for i, run := range runs {
		a := mustOpen(t, dir, Options{Classify: classifyAll})
		run.store(a)
		if gen := a.index[url].Gen; gen != uint64(i+1) {
			t.Errorf("run %d stored generation %d, want %d", i+1, gen, i+1)
		}
		a.Close()
		for _, stage := range []string{"before Compact", "after Compact"} {
			if stage == "after Compact" {
				if err := Compact(dir); err != nil {
					t.Fatal(err)
				}
			}
			if err := run.check(mustOpen(t, dir, Options{Offline: true})); err != nil {
				t.Errorf("run %d, offline Open %s: %v", i+1, stage, err)
			}
		}
	}
}

// TestCompactTruncatedTail: compacting after a writer was SIGKILLed
// steals its lock, sweeps its temp files, drops its torn tail and any
// corrupt line, keeps every intact entry, and leaves one sorted line
// per URL that a second Compact and a reopen leave byte-identical. It
// writes no pack: the dead writer's stays as it was.
func TestCompactTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	a.Store("https://z.test/", resp("intact z"))
	a.Store("https://a.test/", resp("intact a"))
	a.Store("https://a.test/", resp("intact a")) // append churn
	a.Close()
	f, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("%%% not json %%%\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	orphanObj, orphanManifest := plantKillDebris(t, dir)
	deadPack := packBytes(t, dir, packName(1))

	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	if packBytes(t, dir, packName(1)) != deadPack {
		t.Error("Compact wrote to the dead writer's pack")
	}
	for _, p := range []string{orphanObj, orphanManifest, filepath.Join(dir, lockName)} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived Compact", p)
		}
	}
	compacted := manifestBytes(t, dir)
	lines := strings.Split(strings.TrimSuffix(compacted, "\n"), "\n")
	if len(lines) != 2 || !sort.StringsAreSorted(lines) {
		t.Errorf("compacted manifest = %q, want two lines sorted by URL", compacted)
	}
	if err := Compact(dir); err != nil || manifestBytes(t, dir) != compacted {
		t.Errorf("second Compact = %v or rewrote the manifest differently", err)
	}
	b := mustOpen(t, dir, Options{})
	for url, body := range map[string]string{"https://a.test/": "intact a", "https://z.test/": "intact z"} {
		if got, err := b.Load(url); err != nil || got == nil || got.Body != body {
			t.Errorf("Load(%s) = %v, %v; want %q", url, got, err, body)
		}
	}
	if got, err := b.Load("https://torn.test/"); got != nil || err != nil {
		t.Errorf("torn entry resurrected: %v, %v", got, err)
	}
	b.Close()
	if manifestBytes(t, dir) != compacted {
		t.Error("reopen after Compact modified the manifest")
	}
}

// TestCompactRefusesLiveWriter: compacting under a crawler that still
// holds the manifest would lose whatever it appends next; Compact must
// fail fast instead.
func TestCompactRefusesLiveWriter(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	a.Store("https://x.test/", resp("x"))
	if err := Compact(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("Compact under a live writer = %v, want ErrLocked", err)
	}
	a.Close()
	if err := Compact(dir); err != nil {
		t.Fatalf("Compact after Close: %v", err)
	}
}

// TestOpenRefusesShardManifests: a directory an older release's
// multi-process crawl left with per-shard manifests is refused by
// name — online, offline and by Compact — rather than opened as if
// the shards' URLs had never been archived.
func TestOpenRefusesShardManifests(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, Options{}).Close()
	line := `{"url":"https://sharded.test/","failure_class":"unreachable","gen":1}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "manifest-0.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Offline: true}} {
		if _, err := Open(dir, opts); err == nil || !strings.Contains(err.Error(), "manifest-0.jsonl") {
			t.Errorf("Open(%+v) = %v, want an error naming manifest-0.jsonl", opts, err)
		}
	}
	if err := Compact(dir); err == nil || !strings.Contains(err.Error(), "manifest-0.jsonl") {
		t.Errorf("Compact = %v, want an error naming manifest-0.jsonl", err)
	}
	if _, err := os.Stat(filepath.Join(dir, lockName)); !os.IsNotExist(err) {
		t.Errorf("refused Open left a lock behind: %v", err)
	}
}

func manifestBytes(t *testing.T, dir string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

package diskcache

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// deadPid is beyond kernel.pid_max on any stock config, so a temp file
// tagged with it always reads as crash debris.
const deadPid = 999999999

// plantKillDebris simulates the on-disk aftermath of SIGKILLing a
// crawler that was writing dir: its lock file (it never reached
// Close), part of a body at its pack's tail (the kill came between the
// body's append and its manifest line), a torn manifest tail (the
// append died mid-line), an orphaned temp object (an older release's
// Store died between CreateTemp and Rename), and an orphaned temp
// manifest (a compaction died mid-rewrite). dir must hold pack 1.
// Returns the orphan paths.
func plantKillDebris(t *testing.T, dir string) (orphanObj, orphanManifest string) {
	t.Helper()
	pack, err := os.OpenFile(filepath.Join(dir, objectsDir, packName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pack.WriteString("<html>a body the kill cut sh"); err != nil {
		t.Fatal(err)
	}
	pack.Close()
	if err := os.WriteFile(filepath.Join(dir, lockName), []byte(fmt.Sprintf("%d\n", deadPid)), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"url":"https://torn.test/","hash":"ab`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	bucket := filepath.Join(dir, objectsDir, "zz")
	if err := os.MkdirAll(bucket, 0o755); err != nil {
		t.Fatal(err)
	}
	orphanObj = filepath.Join(bucket, fmt.Sprintf(".obj-%d-123456", deadPid))
	orphanManifest = filepath.Join(dir, fmt.Sprintf(".manifest-%d-123456", deadPid))
	for _, p := range []string{orphanObj, orphanManifest} {
		if err := os.WriteFile(p, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return orphanObj, orphanManifest
}

// TestReopenAfterSIGKILLedWriter is the crash-recovery acceptance
// test: an archive whose writer died mid-append and mid-rename reopens
// cleanly — the dead writer's lock is stolen, the fsck sweeps both
// orphaned temp files and reports them, the torn manifest tail is
// dropped and compacted away, the intact entries survive, and the
// reopened archive keeps working: it appends to a fresh pack and
// leaves the dead writer's pack, tail bytes and all, as it was.
func TestReopenAfterSIGKILLedWriter(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	a.Store("https://intact.test/", resp("survived the kill"))
	a.Close()
	orphanObj, orphanManifest := plantKillDebris(t, dir)
	deadPack := packBytes(t, dir, packName(1))
	// A temp file tagged with a live pid (this process) must survive
	// the sweep: its writer may be mid-rename right now.
	liveTemp := filepath.Join(dir, objectsDir, "zz", fmt.Sprintf(".obj-%d-777", os.Getpid()))
	if err := os.WriteFile(liveTemp, []byte("mid-rename"), 0o644); err != nil {
		t.Fatal(err)
	}

	b := mustOpen(t, dir, Options{})
	if got := b.Stats().OrphansSwept; got != 2 {
		t.Errorf("OrphansSwept = %d, want 2", got)
	}
	for _, p := range []string{orphanObj, orphanManifest} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the fsck", p)
		}
	}
	if _, err := os.Stat(liveTemp); err != nil {
		t.Errorf("live writer's temp file was swept: %v", err)
	}
	if got, err := b.Load("https://intact.test/"); err != nil || got == nil || got.Body != "survived the kill" {
		t.Errorf("intact entry lost after crash recovery: %v, %v", got, err)
	}
	if got, err := b.Load("https://torn.test/"); got != nil || err != nil {
		t.Errorf("torn entry resurrected: %v, %v", got, err)
	}
	b.Store("https://after.test/", resp("post-recovery write"))
	b.Close()
	if packBytes(t, dir, packName(1)) != deadPack {
		t.Error("the reopened writer wrote to the dead writer's pack")
	}
	if e := b.index["https://after.test/"]; e.Pack != packName(2) || e.Offset != 0 {
		t.Errorf("post-recovery body at %s+%d, want the start of a fresh pack %s", e.Pack, e.Offset, packName(2))
	}

	// The reopen compacted the torn tail away: a third open sees a
	// clean manifest with both entries and nothing left to sweep.
	c := mustOpen(t, dir, Options{})
	if got := c.Stats().OrphansSwept; got != 0 {
		t.Errorf("second reopen swept %d orphans, want 0", got)
	}
	for _, url := range []string{"https://intact.test/", "https://after.test/"} {
		if got, err := c.Load(url); err != nil || got == nil {
			t.Errorf("Load(%s) after recovery = %v, %v", url, got, err)
		}
	}
}

// packBytes returns the contents of the named pack.
func packBytes(t *testing.T, dir, pack string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, objectsDir, pack))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestUntaggedTempAgeGate: a temp file with no pid tag (an older
// archive version's naming) is swept only once it is older than the
// orphanTTL — a fresh one might still be owned by a live writer we
// cannot identify.
func TestUntaggedTempAgeGate(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, Options{}).Close()
	bucket := filepath.Join(dir, objectsDir, "ab")
	if err := os.MkdirAll(bucket, 0o755); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(bucket, ".obj-123456")
	stale := filepath.Join(bucket, ".obj-654321")
	for _, p := range []string{fresh, stale} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * orphanTTL)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	a := mustOpen(t, dir, Options{})
	if got := a.Stats().OrphansSwept; got != 1 {
		t.Errorf("OrphansSwept = %d, want 1 (stale untagged temp only)", got)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale untagged temp survived")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh untagged temp swept: %v", err)
	}
}

// Package diskcache persists fetched resources as a content-addressed
// on-disk archive, the step that turns a crawl into a replayable
// dataset: objects are stored once by SHA-256 under
// objects/ab/cdef..., and a JSONL manifest maps each URL to its
// outcome — the object's hash plus status/headers for successes, the
// failure class and message for fetches that failed. A repeat crawl of
// the same population reads everything back and skips the network
// entirely; strict offline mode replays a finished crawl byte for
// byte, failures included, and turns every genuine miss into a
// distinguishable error instead of a network fetch (the
// archive-then-replay design Web Execution Bundles argues is what
// makes web measurements reproducible and auditable).
//
// The archive is built to survive the crawler dying on top of it:
// objects land via temp-file-plus-rename so a crash never leaves a
// half-written object under its final name; the manifest is appended
// one line per outcome and a truncated or corrupt tail is dropped on
// open (and compacted away); and a hash-mismatched, truncated, or
// missing object is treated as a miss and re-fetched — corruption
// degrades the archive, it never fails the crawl. A SIGKILLed writer
// additionally leaves debris with no live owner — temp object and
// manifest files mid-rename, a torn manifest tail, its lock file — so
// Open and Compact run a crash-consistency pass: the dead writer's
// lock is stolen, temp files are tagged with their writer's pid and
// swept once that pid is dead (age-gated for untagged strays), and the
// sweep's count is surfaced in ArchiveStats rather than silently
// absorbed.
//
// One process writes a directory at a time: a pid lock file next to
// manifest.jsonl makes a second writer's Open fail fast (ErrLocked)
// instead of interleaving appends. Offline readers take no lock.
package diskcache

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"permodyssey/internal/browser"
	"permodyssey/internal/memo"
)

const (
	manifestName = "manifest.jsonl"
	lockName     = manifestName + ".lock"
	objectsDir   = "objects"
)

// ErrLocked is wrapped by Open and Compact when the manifest's lock
// file is held by a live process: a second crawler appending the same
// manifest would interleave writes and corrupt it, so the late arrival
// fails fast instead.
var ErrLocked = errors.New("diskcache: manifest locked")

// entry is one manifest line: the archived outcome of fetching URL.
// Exactly one of Hash (success; the body lives in the object store) or
// FailureClass (archived failure) is set.
type entry struct {
	URL           string      `json:"url"`
	Hash          string      `json:"hash,omitempty"`
	Size          int64       `json:"size,omitempty"`
	Status        int         `json:"status,omitempty"`
	Header        http.Header `json:"header,omitempty"`
	FinalURL      string      `json:"final_url,omitempty"`
	BodyTruncated bool        `json:"body_truncated,omitempty"`
	FailureClass  string      `json:"failure_class,omitempty"`
	FailureMsg    string      `json:"failure_msg,omitempty"`
	// Gen is the URL's store generation, strictly increasing across
	// re-stores of the same URL even across runs (each Open seeds the
	// counter from the manifest). Load's corrupt-object recovery
	// compares it, so dropping a bad entry never drops the re-archived
	// one a concurrent Store has put in its place. Entries from
	// pre-generation manifests carry Gen 0.
	Gen uint64 `json:"gen,omitempty"`
}

// validHash reports whether h is a SHA-256 digest in the form objectPath
// expects: 64 lowercase hex characters. Manifests are untrusted input,
// and any other string would either panic objectPath's slicing or, with
// path separators, name a file outside the archive.
func validHash(h string) bool {
	if len(h) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Options tunes an Archive.
type Options struct {
	// Offline switches the archive to strict replay: loads serve
	// archived responses and replay archived failures, every miss
	// (including a corrupt object) returns an error wrapping
	// browser.ErrNotArchived, and nothing on disk is modified — no
	// compaction, no lock file, so any number of offline readers can
	// share the directory with each other and with its writer.
	Offline bool
	// Classify maps a failed fetch to the failure-taxonomy class
	// (store.FailureClass string) archived with it. Returning "" skips
	// archiving that failure — crawler-local conditions such as
	// cancellation or an open circuit breaker are not site properties
	// and must not poison replay. nil disables failure archiving.
	Classify func(err error) string
}

// Archive is a content-addressed resource archive rooted at one
// directory. Safe for concurrent use by any number of crawl stacks in
// one process; one writing process per directory, enforced by the
// manifest lock.
//
// Locking: mu guards the index, the generation counters and the
// manifest append handle, and is held only to append a line and update
// the index; no object file is read or written under it. An object file
// is created, repaired or removed only under the lock of its objects/xx
// bucket, so each distinct body is written once per process while
// writers of different objects proceed in parallel. Readers take no
// lock: an object appears by rename, whole or not at all.
type Archive struct {
	dir      string
	offline  bool
	classify func(err error) string

	mu       sync.Mutex
	index    map[string]entry
	gens     map[string]uint64 // per-URL generation high-water mark
	manifest *os.File          // append handle; nil when offline or closed
	unlock   func()            // releases the manifest lock; nil when offline or closed

	buckets [256]sync.Mutex // one per objects/xx directory, indexed by the hash's first byte

	hits, writes, corrupt, bytesStored atomic.Uint64
	orphansSwept                       atomic.Uint64
}

// Open loads (or creates) the archive rooted at dir. The manifest is
// read tolerantly — a truncated tail or corrupt line from an
// interrupted crawl is dropped, and later lines for a URL win. Online,
// Open first takes the manifest lock — a second process fails fast
// (ErrLocked) rather than interleaving appends; a lock left by a dead
// process is stolen — then sweeps temp objects and temp manifests
// orphaned by dead writers (counted in ArchiveStats.OrphansSwept), and
// compacts the manifest back to one line per URL when the read had to
// drop or collapse anything, before the append handle opens. In
// offline mode nothing is written — no lock, no sweep, no compaction.
func Open(dir string, opts Options) (*Archive, error) {
	a := &Archive{
		dir:      dir,
		offline:  opts.Offline,
		classify: opts.Classify,
		gens:     map[string]uint64{},
	}
	if err := refuseShards(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, objectsDir), 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	if a.offline {
		index, _, err := loadManifest(dir)
		if err != nil {
			return nil, err
		}
		a.setIndex(index)
		return a, nil
	}
	unlock, err := acquireLock(filepath.Join(dir, lockName))
	if err != nil {
		return nil, err
	}
	a.orphansSwept.Add(uint64(sweepOrphans(dir)))
	index, ls, err := loadManifest(dir)
	if err == nil && !ls.clean() {
		err = rewriteManifest(dir, index)
	}
	if err == nil {
		if a.manifest, err = os.OpenFile(filepath.Join(dir, manifestName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			err = fmt.Errorf("diskcache: %w", err)
		}
	}
	if err != nil {
		unlock()
		return nil, err
	}
	a.unlock = unlock
	a.setIndex(index)
	return a, nil
}

// setIndex installs the entries read from the manifest and seeds each
// URL's generation counter from them, so this run's re-stores append
// strictly newer generations.
func (a *Archive) setIndex(index map[string]entry) {
	a.index = index
	for url, e := range index {
		a.gens[url] = e.Gen
	}
}

// Compact rewrites dir's manifest as one line per URL, sorted by URL:
// the byte-deterministic form a sealed bundle holds. It opens the
// archive as its writer, so it takes the lock (ErrLocked while a live
// writer holds it), sweeps and reads exactly as Open does. Running it
// again changes nothing.
func Compact(dir string) error {
	a, err := Open(dir, Options{})
	if err != nil {
		return err
	}
	defer a.Close()
	return rewriteManifest(dir, a.index)
}

// refuseShards fails when dir holds per-shard manifests
// (manifest-*.jsonl), which older releases wrote for multi-process
// crawls. This release reads only manifest.jsonl, so opening such a
// directory would make offline replay turn every URL those shards hold
// into an unreachable failure.
func refuseShards(dir string) error {
	shards, err := filepath.Glob(filepath.Join(dir, "manifest-*.jsonl"))
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	if len(shards) > 0 {
		for i, s := range shards {
			shards[i] = filepath.Base(s)
		}
		return fmt.Errorf("diskcache: %s holds shard manifests from an older release (%s); merge them into %s with that release first",
			dir, strings.Join(shards, ", "), manifestName)
	}
	return nil
}

// loadStats describes how tolerant a manifest read had to be.
type loadStats struct {
	// lines counts the well-formed entries read; dups how many of them
	// re-stated a URL already seen (append-during-crawl churn).
	lines, dups int
	// corrupt counts undecodable lines dropped; torn marks a final line
	// with no trailing newline — the classic tail a killed writer leaves.
	corrupt int
	torn    bool
}

// clean reports whether the manifest was already one well-formed line
// per URL — nothing dropped, nothing duplicated, so no compaction is
// owed.
func (s loadStats) clean() bool { return s.dups == 0 && s.corrupt == 0 && !s.torn }

// loadManifest reads dir's manifest (readManifest); a missing file is
// an empty clean manifest.
func loadManifest(dir string) (map[string]entry, loadStats, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return map[string]entry{}, loadStats{}, nil
	}
	if err != nil {
		return nil, loadStats{}, fmt.Errorf("diskcache: %w", err)
	}
	defer f.Close()
	return readManifest(f)
}

// readManifest parses manifest lines tolerantly: later duplicates of a
// URL win, and undecodable lines — including success entries whose hash
// is not a SHA-256 digest — and a truncated tail are dropped (counted in
// loadStats). Only a read error other than EOF fails it.
func readManifest(r io.Reader) (m map[string]entry, ls loadStats, err error) {
	m = map[string]entry{}
	br := bufio.NewReader(r)
	for {
		line, readErr := br.ReadBytes('\n')
		if n := len(line); n > 0 && line[n-1] == '\n' {
			var e entry
			if json.Unmarshal(line, &e) == nil && e.URL != "" && (e.Hash == "" || validHash(e.Hash)) {
				if _, dup := m[e.URL]; dup {
					ls.dups++
				}
				m[e.URL] = e
				ls.lines++
			} else {
				ls.corrupt++ // corrupt line: drop it
			}
		} else if n > 0 {
			ls.torn = true // truncated tail from an interrupted crawl
		}
		if readErr == io.EOF {
			return m, ls, nil
		}
		if readErr != nil {
			return nil, ls, fmt.Errorf("diskcache: %w", readErr)
		}
	}
}

// orphanTTL is the age past which a temp file with no pid tag (written
// by an older archive version) is presumed crash debris. Pid-tagged
// temps don't need the age gate: the tag decides ownership exactly.
const orphanTTL = time.Hour

// tempPattern names a temp file for os.CreateTemp with this process's
// pid embedded (".obj-1234-*"), so a crash-consistency sweep can tell a
// dead writer's debris from a live writer's rename-in-progress.
func tempPattern(kind string) string {
	return fmt.Sprintf(".%s-%d-*", kind, os.Getpid())
}

// tempOrphaned reports whether a temp file named name (already known to
// carry a ".obj-" or ".manifest-" prefix) is crash debris safe to
// remove: its embedded writer pid is dead, or — when the name carries
// no pid tag — its mtime predates the orphanTTL age gate.
func tempOrphaned(name string, modTime time.Time) bool {
	rest := name[strings.IndexByte(name, '-')+1:]
	if pidStr, _, ok := strings.Cut(rest, "-"); ok {
		if pid, err := strconv.Atoi(pidStr); err == nil && pid > 0 {
			return !pidAlive(pid)
		}
	}
	return time.Since(modTime) > orphanTTL
}

// sweepOrphans is the crash-consistency GC over dir: temp manifest
// files in the root (a compaction killed mid-rewrite) and temp object
// files under objects/ (a Store killed mid-rename) whose owning writer
// is provably gone are removed. Files whose owner is still alive are
// untouched. Returns the number of orphans removed.
func sweepOrphans(dir string) int {
	removed := sweepDir(dir, ".manifest-")
	buckets, err := os.ReadDir(filepath.Join(dir, objectsDir))
	if err != nil {
		return removed
	}
	for _, b := range buckets {
		if b.IsDir() {
			removed += sweepDir(filepath.Join(dir, objectsDir, b.Name()), ".obj-")
		}
	}
	return removed
}

// sweepDir removes orphaned temp files with the given prefix directly
// inside dir, counting only removals that succeeded (a concurrent
// sweeper may get there first).
func sweepDir(dir, prefix string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, de := range entries {
		if de.IsDir() || !strings.HasPrefix(de.Name(), prefix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		if tempOrphaned(de.Name(), info.ModTime()) && os.Remove(filepath.Join(dir, de.Name())) == nil {
			removed++
		}
	}
	return removed
}

// rewriteManifest atomically replaces dir's manifest with entries, one
// line per URL, sorted by URL so the result is byte-deterministic.
func rewriteManifest(dir string, entries map[string]entry) error {
	tmp, err := os.CreateTemp(dir, tempPattern("manifest"))
	if err != nil {
		return fmt.Errorf("diskcache: compacting: %w", err)
	}
	bw := bufio.NewWriter(tmp)
	err = writeManifest(bw, entries)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("diskcache: compacting: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("diskcache: compacting: %w", err)
	}
	return nil
}

// writeManifest encodes entries one line per URL, sorted by URL.
func writeManifest(w io.Writer, entries map[string]entry) error {
	urls := make([]string, 0, len(entries))
	for url := range entries {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	enc := json.NewEncoder(w)
	for _, url := range urls {
		if err := enc.Encode(entries[url]); err != nil {
			return err
		}
	}
	return nil
}

// acquireLock takes the manifest lock at path, failing fast (ErrLocked)
// when a live process holds it. The lock file records the holder's
// pid; a lock whose pid is dead — a crawler that crashed without
// Close — is stolen so resume never needs manual cleanup. Returns the
// release func.
func acquireLock(path string) (release func(), err error) {
	for attempt := 0; attempt < 4; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("diskcache: %w", err)
		}
		raw, readErr := os.ReadFile(path)
		if readErr != nil {
			// Raced with the holder's release; retry the create.
			continue
		}
		pid, parseErr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if parseErr == nil && pidAlive(pid) {
			return nil, fmt.Errorf("%w: %s held by pid %d (another crawler is appending this archive; wait for it to finish, or remove the lock if that process is gone)",
				ErrLocked, path, pid)
		}
		// Stale: the recorded holder is dead (or the file is garbage
		// from a torn write). Steal it and retry the exclusive create.
		os.Remove(path)
	}
	return nil, fmt.Errorf("%w: %s (lock contention)", ErrLocked, path)
}

// pidAlive reports whether pid is a live process we could signal. A
// permission error still means "alive" — it exists, it just isn't ours.
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = p.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// Load implements browser.ResponseArchive. Online, it returns
// (nil, nil) for anything it cannot serve — unarchived URLs, archived
// failures (the site may be healthy again; re-fetch it), and corrupt
// or truncated objects, which are dropped so the re-fetch rewrites
// them. Offline, archived failures replay as *browser.ReplayedFailure
// and every miss is an error wrapping browser.ErrNotArchived.
func (a *Archive) Load(rawURL string) (*browser.Response, error) {
	a.mu.Lock()
	e, ok := a.index[rawURL]
	a.mu.Unlock()
	if !ok {
		return a.miss(rawURL)
	}

	if e.Hash == "" {
		if a.offline {
			a.hits.Add(1)
			return nil, &browser.ReplayedFailure{Class: e.FailureClass, Msg: e.FailureMsg}
		}
		return nil, nil
	}
	if body, ok := a.readObject(e.Hash, e.Size); ok {
		a.hits.Add(1)
		return &browser.Response{
			Status:        e.Status,
			Header:        e.Header,
			Body:          body,
			FinalURL:      e.FinalURL,
			BodyTruncated: e.BodyTruncated,
		}, nil
	}
	// Corrupt, truncated, or missing object: degrade to a miss so the
	// caller re-fetches. Online, drop the index entry — unless a
	// concurrent Store already re-archived the URL (generation check) —
	// and the bad object, so the re-fetch rewrites both.
	a.corrupt.Add(1)
	if !a.offline {
		a.mu.Lock()
		if cur, ok := a.index[rawURL]; ok && cur.Gen == e.Gen {
			delete(a.index, rawURL)
		}
		a.mu.Unlock()
		a.removeCorrupt(e.Hash, e.Size)
	}
	return a.miss(rawURL)
}

// readObject returns the object's content if it is intact: size bytes
// long and hashing to its name. The content is read through a stack
// chunk into the string's own buffer, allocated once at size (which the
// file's size vouches for before anything is allocated); os.ReadFile
// and a string conversion would allocate the body twice.
func (a *Archive) readObject(hash string, size int64) (string, bool) {
	f, err := os.Open(objectPath(a.dir, hash))
	if err != nil {
		return "", false
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil || fi.Size() != size {
		return "", false
	}
	var b strings.Builder
	b.Grow(int(size))
	var chunk [32 << 10]byte
	for {
		n, err := f.Read(chunk[:])
		if int64(b.Len()+n) > size {
			return "", false // grew since the Stat
		}
		b.Write(chunk[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", false
		}
	}
	body := b.String()
	sum := memo.Sum(body)
	return body, int64(len(body)) == size && hex.EncodeToString(sum[:]) == hash
}

// removeCorrupt deletes an object Load found bad. It re-checks the
// object under its bucket lock and deletes it only if it is still bad:
// a Store of the same body under another URL may have repaired it since
// Load's read, and that Store's manifest line references it.
func (a *Archive) removeCorrupt(hash string, size int64) {
	mu := a.bucket(hash)
	mu.Lock()
	defer mu.Unlock()
	if _, ok := a.readObject(hash, size); !ok {
		os.Remove(objectPath(a.dir, hash))
	}
}

// miss is the no-entry outcome: nil online, distinguishable offline.
func (a *Archive) miss(rawURL string) (*browser.Response, error) {
	if a.offline {
		return nil, fmt.Errorf("%w: %s", browser.ErrNotArchived, rawURL)
	}
	return nil, nil
}

// Store implements browser.ResponseArchive: the object lands first
// (temp file + rename under its bucket lock; skipped when an intact
// copy of the same content already exists), then the manifest line
// under mu. A disk error degrades the archive silently — the crawl
// itself already has the response.
func (a *Archive) Store(rawURL string, resp *browser.Response) {
	if a.offline || resp == nil {
		return
	}
	sum := memo.Sum(resp.Body)
	e := entry{
		URL:           rawURL,
		Hash:          hex.EncodeToString(sum[:]),
		Size:          int64(len(resp.Body)),
		Status:        resp.Status,
		Header:        resp.Header,
		FinalURL:      resp.FinalURL,
		BodyTruncated: resp.BodyTruncated,
	}
	if err := a.writeObject(e.Hash, resp.Body); err != nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.appendLocked(e)
}

// StoreFailure implements browser.ResponseArchive: a failed fetch is
// archived with its taxonomy class so offline replay reproduces the
// failure. Crawler-local conditions (Classify returns "") are skipped.
func (a *Archive) StoreFailure(rawURL string, fetchErr error) {
	if a.offline || a.classify == nil || fetchErr == nil {
		return
	}
	class := a.classify(fetchErr)
	if class == "" {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.appendLocked(entry{URL: rawURL, FailureClass: class, FailureMsg: fetchErr.Error()})
}

// writeObject stores body under its content hash, atomically, holding
// only the hash's bucket lock: concurrent first stores of one body
// queue there, so the body is written once, while other objects are
// written in parallel. An existing object of the right size is trusted
// (content addressing: same hash, same bytes); a wrong-sized one — a
// truncated write from a crash — is repaired by the rename.
func (a *Archive) writeObject(hash, body string) error {
	mu := a.bucket(hash)
	mu.Lock()
	defer mu.Unlock()
	path := objectPath(a.dir, hash)
	if fi, err := os.Stat(path); err == nil && fi.Size() == int64(len(body)) {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tempPattern("obj"))
	if err != nil {
		return err
	}
	if _, err := tmp.WriteString(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	a.bytesStored.Add(uint64(len(body)))
	return nil
}

// appendLocked stamps e with the URL's next store generation, writes
// one manifest line, and updates the index. The generation comes from
// the high-water mark rather than the live index entry so that a
// corrupt-object deletion (Load's recovery path) can never reset the
// counter and let a re-store repeat the generation Load compares. Each
// line is a single Write call, so a crash mid-append corrupts at most
// the tail — which Open drops. Callers hold a.mu.
func (a *Archive) appendLocked(e entry) {
	e.Gen = a.gens[e.URL] + 1
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	if a.manifest != nil {
		if _, err := a.manifest.Write(append(line, '\n')); err != nil {
			return
		}
	}
	a.gens[e.URL] = e.Gen
	a.index[e.URL] = e
	a.writes.Add(1)
}

// bucket returns the lock of hash's objects/xx directory.
func (a *Archive) bucket(hash string) *sync.Mutex {
	b, _ := strconv.ParseUint(hash[:2], 16, 8)
	return &a.buckets[b]
}

// objectPath names hash's object file inside the archive at dir. hash
// must pass validHash.
func objectPath(dir, hash string) string {
	return filepath.Join(dir, objectsDir, hash[:2], hash[2:])
}

// Stats implements browser.ResponseArchive.
func (a *Archive) Stats() browser.ArchiveStats {
	a.mu.Lock()
	entries := uint64(len(a.index))
	hashes := map[string]struct{}{}
	for _, ix := range a.index {
		if ix.Hash != "" {
			hashes[ix.Hash] = struct{}{}
		}
	}
	a.mu.Unlock()
	return browser.ArchiveStats{
		Hits:             a.hits.Load(),
		Writes:           a.writes.Load(),
		CorruptRecovered: a.corrupt.Load(),
		OrphansSwept:     a.orphansSwept.Load(),
		BytesStored:      a.bytesStored.Load(),
		Entries:          entries,
		Objects:          uint64(len(hashes)),
	}
}

// Close releases the manifest append handle and the manifest lock.
// Stores after Close still update the in-memory index and object store
// but no longer reach the manifest; close the archive only once the
// crawl is done with it.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var err error
	if a.manifest != nil {
		err = a.manifest.Close()
		a.manifest = nil
	}
	if a.unlock != nil {
		a.unlock()
		a.unlock = nil
	}
	return err
}

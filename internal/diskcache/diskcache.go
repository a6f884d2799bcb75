// Package diskcache persists fetched resources as a content-addressed
// on-disk archive, the step that turns a crawl into a replayable
// dataset: each distinct body is stored once, appended to a pack file
// under objects/, and a JSONL manifest maps each URL to its outcome —
// the body's SHA-256, size, pack and offset plus status/headers for
// successes, the failure class and message for fetches that failed. A
// repeat crawl of the same population reads everything back and skips
// the network entirely; strict offline mode replays a finished crawl
// byte for byte, failures included, and turns every genuine miss into
// a distinguishable error instead of a network fetch (the
// archive-then-replay design Web Execution Bundles argues is what
// makes web measurements reproducible and auditable). Like a WARC
// archive, it appends records to a few large files and indexes them
// by offset: a crawl creates one pack instead of one file per body,
// and a load is one positioned read through a shared handle.
//
// The archive is built to survive the crawler dying on top of it:
// each writing session appends to a fresh pack of its own, and a body
// lands in its pack before the manifest line that references it, so a
// crash leaves at most unreferenced bytes at a pack's tail; no code
// writes to a pack an earlier session or a failed write left behind.
// The manifest is appended one line per outcome and a truncated or
// corrupt tail is dropped on open (and compacted away); a body whose
// bytes no longer match its size and hash is treated as a miss and
// re-fetched, and the re-fetch appends a fresh copy — corruption
// degrades the archive, it never fails the crawl. A SIGKILLed writer
// also leaves its lock file, and a compaction killed mid-rewrite its
// temp manifest, so Open and Compact run a crash-consistency pass: the
// dead writer's lock is stolen, temp files are tagged with their
// writer's pid and swept once that pid is dead (age-gated for untagged
// strays), and the sweep's count is surfaced in ArchiveStats rather
// than silently absorbed.
//
// Archives written before packs stored each body as its own file,
// objects/ab/cdef...; a manifest entry without a pack still reads that
// file, so those archives and the bundles sealed from them replay.
// Nothing writes that layout any more.
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
	packExt      = ".pack"
	// maxPack is the largest pack number: at most nine digits, so no
	// manifest can name an over-long file.
	maxPack = 999_999_999
)

// ErrLocked is wrapped by Open and Compact when the manifest's lock
// file is held by a live process: a second crawler appending the same
// manifest would interleave writes and corrupt it, so the late arrival
// fails fast instead.
var ErrLocked = errors.New("diskcache: manifest locked")

// entry is one manifest line: the archived outcome of fetching URL.
// Exactly one of Hash (success; the body is stored in the archive) or
// FailureClass (archived failure) is set.
type entry struct {
	URL  string `json:"url"`
	Hash string `json:"hash,omitempty"`
	Size int64  `json:"size,omitempty"`
	// Pack and Offset locate the body: Size bytes at Offset in
	// objects/<Pack>. An entry without a pack was written before packs,
	// and its body is the file objectPath names.
	Pack          string      `json:"pack,omitempty"`
	Offset        int64       `json:"offset,omitempty"`
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

// packName names the n-th pack under objects/.
func packName(n int) string { return strconv.Itoa(n) + packExt }

// packNumber returns n when name is packName(n) for some n in
// 1..maxPack, and 0 for any other name. Manifests are untrusted input:
// a name with a separator, a dot-dot or extra characters would let a
// manifest line read a file outside the archive's packs.
func packNumber(name string) int {
	digits, ok := strings.CutSuffix(name, packExt)
	n, err := strconv.Atoi(digits)
	if !ok || err != nil || n < 1 || n > maxPack || packName(n) != name {
		return 0
	}
	return n
}

// valid reports whether e is a manifest line this archive could have
// written: a URL, a digest-shaped hash on successes, and a body
// reference that is either absent (a pre-pack entry) or names a pack
// with a non-negative offset and size.
func (e *entry) valid() bool {
	if e.URL == "" || (e.Hash != "" && !validHash(e.Hash)) || e.Size < 0 || e.Offset < 0 {
		return false
	}
	if e.Pack == "" {
		return e.Offset == 0
	}
	return packNumber(e.Pack) > 0
}

// loc is where a body's bytes live: Offset in a pack, or, with no
// pack, the pre-pack object file named by its hash.
type loc struct {
	pack   string
	offset int64
}

// keyOf decodes a manifest hash to its digest. The hash passed
// validHash, so decoding cannot fail.
func keyOf(hash string) memo.Key {
	var k memo.Key
	hex.Decode(k[:], []byte(hash))
	return k
}

// Options tunes an Archive.
type Options struct {
	// Offline switches the archive to strict replay: loads serve
	// archived responses and replay archived failures, every miss
	// (including a corrupt body) returns an error wrapping
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
// Locking: mu guards the index, the generation counters, the manifest
// append handle and the packs' shared read handles, and is held only to
// append a line, update the index or look up a handle (opening it on
// first use); no body is read or written under it. packMu guards this session's pack and the
// digest-to-location map, and is held across each append to the pack,
// so each distinct body is written once per process and no two appends
// interleave. No code holds both locks but Close. Readers take no lock
// while they read: a body is appended before the manifest line that
// references it, and a pack is never rewritten.
type Archive struct {
	dir      string
	offline  bool
	classify func(err error) string

	mu       sync.Mutex
	index    map[string]entry
	gens     map[string]uint64    // per-URL generation high-water mark
	manifest *os.File             // append handle; nil when offline or closed
	unlock   func()               // releases the manifest lock; nil when offline or closed
	readers  map[string]*packFile // shared read handles, by pack name

	packMu   sync.Mutex
	locs     map[memo.Key]loc // where each stored digest's bytes live
	pack     *os.File         // this session's pack; nil before the first Store and after a failed write
	packName string
	packSize int64
	lastPack int // highest pack number any session used

	// closed is set by Close while it holds both mu and packMu, so
	// either lock reads it.
	closed bool

	hits, writes, corrupt, bytesStored atomic.Uint64
	orphansSwept                       atomic.Uint64
}

// packFile is a shared read handle on one pack.
type packFile struct {
	f *os.File
	// size is the pack's length at the last Stat. A pack only grows, so
	// a range inside it needs no new Stat.
	size atomic.Int64
}

// Open loads (or creates) the archive rooted at dir. The manifest is
// read tolerantly — a truncated tail or corrupt line from an
// interrupted crawl is dropped, and later lines for a URL win. Online,
// Open first takes the manifest lock — a second process fails fast
// (ErrLocked) rather than interleaving appends; a lock left by a dead
// process is stolen — then sweeps temp manifests (and older releases'
// temp objects) orphaned by dead writers (counted in
// ArchiveStats.OrphansSwept), and compacts the manifest back to one
// line per URL when the read had to drop or collapse anything, before
// the append handle opens. No pack is created until the first Store.
// In offline mode nothing is written — no lock, no sweep, no
// compaction.
func Open(dir string, opts Options) (*Archive, error) {
	a := &Archive{
		dir:      dir,
		offline:  opts.Offline,
		classify: opts.Classify,
		gens:     map[string]uint64{},
		readers:  map[string]*packFile{},
		locs:     map[memo.Key]loc{},
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
		a.index = index
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

// setIndex installs the entries read from the manifest for a writer.
// It seeds each URL's generation counter, so this run's re-stores
// append strictly newer generations; each stored digest's location, so
// a body archived by an earlier run is not appended again; and the
// highest pack number in the manifest or under objects/, so this
// session's pack takes a name no earlier session used.
func (a *Archive) setIndex(index map[string]entry) {
	a.index = index
	for url, e := range index {
		a.gens[url] = e.Gen
		if e.Hash != "" {
			a.locs[keyOf(e.Hash)] = loc{e.Pack, e.Offset}
			a.lastPack = max(a.lastPack, packNumber(e.Pack))
		}
	}
	// A listing error leaves the manifest's highest number; O_EXCL still
	// refuses a name that is taken.
	files, _ := os.ReadDir(filepath.Join(a.dir, objectsDir))
	for _, f := range files {
		a.lastPack = max(a.lastPack, packNumber(f.Name()))
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
// URL win, and undecodable lines — including entries that fail
// entry.valid, such as a hash that is not a SHA-256 digest or a pack
// reference the writer could not have made — and a truncated tail are
// dropped (counted in loadStats). Only a read error other than EOF
// fails it.
func readManifest(r io.Reader) (m map[string]entry, ls loadStats, err error) {
	m = map[string]entry{}
	br := bufio.NewReader(r)
	for {
		line, readErr := br.ReadBytes('\n')
		if n := len(line); n > 0 && line[n-1] == '\n' {
			var e entry
			if json.Unmarshal(line, &e) == nil && e.valid() {
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

// tempPattern names a temp manifest for os.CreateTemp with this
// process's pid embedded (".manifest-1234-*"), so a crash-consistency
// sweep can tell a dead writer's debris from a live writer's
// rename-in-progress.
func tempPattern() string {
	return fmt.Sprintf(".manifest-%d-*", os.Getpid())
}

// tempOrphaned reports whether a temp file named name (already known to
// carry a ".manifest-" prefix, or the ".obj-" prefix of the temp
// objects older releases wrote) is crash debris safe to remove: its embedded writer pid is dead, or — when the name carries
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
// files under objects/xx/ (an older release's Store killed mid-rename)
// whose owning writer is provably gone are removed. Files whose owner is still alive are
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
	tmp, err := os.CreateTemp(dir, tempPattern())
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
// failures (the site may be healthy again; re-fetch it), and bodies
// whose bytes are missing, short or fail their hash, whose entries are
// dropped so the re-fetch archives them afresh. Offline, archived
// failures replay as *browser.ReplayedFailure and every miss is an
// error wrapping browser.ErrNotArchived. Loads after Close miss.
func (a *Archive) Load(rawURL string) (*browser.Response, error) {
	a.mu.Lock()
	e, ok := a.index[rawURL]
	ok = ok && !a.closed
	var pf *packFile
	if ok && e.Pack != "" {
		pf = a.readerLocked(e.Pack)
	}
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
	if body, ok := a.read(e, pf); ok {
		a.hits.Add(1)
		return &browser.Response{
			Status:        e.Status,
			Header:        e.Header,
			Body:          body,
			FinalURL:      e.FinalURL,
			BodyTruncated: e.BodyTruncated,
		}, nil
	}
	// Missing, short or corrupt body: degrade to a miss so the caller
	// re-fetches. Online, drop the index entry — unless a concurrent
	// Store already re-archived the URL (generation check) — and forget
	// the body's location while it is still the digest's current one,
	// so the re-fetch appends a fresh copy. The bad bytes stay where
	// they are: nothing rewrites a pack.
	a.corrupt.Add(1)
	if !a.offline {
		a.mu.Lock()
		if cur, ok := a.index[rawURL]; ok && cur.Gen == e.Gen {
			delete(a.index, rawURL)
		}
		a.mu.Unlock()
		key := keyOf(e.Hash)
		a.packMu.Lock()
		if cur, ok := a.locs[key]; ok && cur == (loc{e.Pack, e.Offset}) {
			delete(a.locs, key)
		}
		a.packMu.Unlock()
	}
	return a.miss(rawURL)
}

// readerLocked returns the shared read handle on pack, opening it on
// first use; nil when the pack cannot be opened. Callers hold a.mu.
func (a *Archive) readerLocked(pack string) *packFile {
	if pf := a.readers[pack]; pf != nil {
		return pf
	}
	f, err := os.Open(filepath.Join(a.dir, objectsDir, pack))
	if err != nil {
		return nil
	}
	pf := &packFile{f: f}
	a.readers[pack] = pf
	return pf
}

// read returns e's body if it is intact: Size bytes that hash to
// e.Hash, at e.Offset in the pack pf reads, or, for a pre-pack entry,
// the whole of its object file. The range is checked against the
// file's size, without overflow, before anything is allocated.
func (a *Archive) read(e entry, pf *packFile) (string, bool) {
	if e.Pack == "" {
		f, err := os.Open(objectPath(a.dir, e.Hash))
		if err != nil {
			return "", false
		}
		defer f.Close()
		if fi, err := f.Stat(); err != nil || fi.Size() != e.Size {
			return "", false
		}
		return readRange(f, 0, e.Size, e.Hash)
	}
	if pf == nil {
		return "", false
	}
	if size := pf.size.Load(); e.Offset > size || e.Size > size-e.Offset {
		fi, err := pf.f.Stat()
		if err != nil || e.Offset > fi.Size() || e.Size > fi.Size()-e.Offset {
			return "", false
		}
		pf.size.Store(fi.Size())
	}
	return readRange(pf.f, e.Offset, e.Size, e.Hash)
}

// readRange reads size bytes at off in f and reports whether they hash
// to hash. The bytes are read through a stack chunk into the string's
// own buffer, allocated once at size; reading into a []byte and
// converting it would allocate the body twice.
func readRange(f *os.File, off, size int64, hash string) (string, bool) {
	var b strings.Builder
	b.Grow(int(size))
	var chunk [32 << 10]byte
	for int64(b.Len()) < size {
		want := int(min(size-int64(b.Len()), int64(len(chunk))))
		if n, _ := f.ReadAt(chunk[:want], off+int64(b.Len())); n < want {
			return "", false
		}
		b.Write(chunk[:want])
	}
	body := b.String()
	sum := memo.Sum(body)
	return body, hex.EncodeToString(sum[:]) == hash
}

// miss is the no-entry outcome: nil online, distinguishable offline.
func (a *Archive) miss(rawURL string) (*browser.Response, error) {
	if a.offline {
		return nil, fmt.Errorf("%w: %s", browser.ErrNotArchived, rawURL)
	}
	return nil, nil
}

// Store implements browser.ResponseArchive: the body is appended to
// this session's pack unless the archive already holds its digest, then
// the manifest line lands under mu. A disk error degrades the archive
// silently — the crawl itself already has the response. A Store after
// Close archives nothing.
func (a *Archive) Store(rawURL string, resp *browser.Response) {
	if a.offline || resp == nil {
		return
	}
	sum := memo.Sum(resp.Body)
	l, ok := a.place(sum, resp.Body)
	if !ok {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.appendLocked(entry{
		URL:           rawURL,
		Hash:          hex.EncodeToString(sum[:]),
		Size:          int64(len(resp.Body)),
		Pack:          l.pack,
		Offset:        l.offset,
		Status:        resp.Status,
		Header:        resp.Header,
		FinalURL:      resp.FinalURL,
		BodyTruncated: resp.BodyTruncated,
	})
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

// place returns where the body with digest key lives, appending it to
// this session's pack when the archive holds no copy. A known location
// is trusted, as content addressing allows; Load forgets one that turns
// out bad. The session's first append creates its pack, under a number
// no earlier session used (O_EXCL; the manifest lock keeps other
// writers out). A failed write retires the pack — its tail may hold a
// partial body — and the next append creates a fresh one.
func (a *Archive) place(key memo.Key, body string) (loc, bool) {
	a.packMu.Lock()
	defer a.packMu.Unlock()
	if a.closed {
		return loc{}, false
	}
	if l, ok := a.locs[key]; ok {
		return l, true
	}
	for a.pack == nil {
		if a.lastPack >= maxPack {
			return loc{}, false
		}
		a.lastPack++
		name := packName(a.lastPack)
		f, err := os.OpenFile(filepath.Join(a.dir, objectsDir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return loc{}, false
		}
		a.pack, a.packName, a.packSize = f, name, 0
	}
	if _, err := a.pack.WriteString(body); err != nil {
		a.pack.Close()
		a.pack = nil
		return loc{}, false
	}
	l := loc{a.packName, a.packSize}
	a.packSize += int64(len(body))
	a.locs[key] = l
	a.bytesStored.Add(uint64(len(body)))
	return l, true
}

// appendLocked stamps e with the URL's next store generation, writes
// one manifest line, and updates the index; after Close it does
// nothing. The generation comes from the high-water mark rather than
// the live index entry so that a corrupt-body deletion (Load's
// recovery path) can never reset the counter and let a re-store repeat
// the generation Load compares. Each line is a single Write call, so a
// crash mid-append corrupts at most the tail — which Open drops.
// Callers hold a.mu.
func (a *Archive) appendLocked(e entry) {
	if a.manifest == nil {
		return
	}
	e.Gen = a.gens[e.URL] + 1
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	if _, err := a.manifest.Write(append(line, '\n')); err != nil {
		return
	}
	a.gens[e.URL] = e.Gen
	a.index[e.URL] = e
	a.writes.Add(1)
}

// objectPath names the pre-pack object file of hash inside the archive
// at dir. hash must pass validHash.
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

// Close releases the manifest append handle, the manifest lock, this
// session's pack and the packs' read handles. Stores after Close
// archive nothing and Loads after Close miss; close the archive only
// once the crawl is done with it.
func (a *Archive) Close() error {
	a.packMu.Lock()
	defer a.packMu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	var err error
	if a.manifest != nil {
		err = a.manifest.Close()
		a.manifest = nil
	}
	if a.pack != nil {
		err = errors.Join(err, a.pack.Close())
		a.pack = nil
	}
	for _, pf := range a.readers {
		pf.f.Close()
	}
	a.readers = nil
	if a.unlock != nil {
		a.unlock()
		a.unlock = nil
	}
	a.closed = true
	return err
}

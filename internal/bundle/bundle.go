// Package bundle seals a finished crawl into a Web Execution Bundle:
// one self-contained, versioned directory (or tarball) holding
// everything needed to re-run the paper's analysis without re-running
// the crawl — the crawl configuration (population size, seed, era,
// chaos profile, raw flags), the output dataset JSONL, the crawl-time
// analysis report, the content-addressed resource archive (compacted
// manifest plus objects, i.e. diskcache.Compact output), the tool and
// dataset-schema versions, and a content digest over the lot and over
// that provenance, optionally HMAC-signed. The design follows Hantke
// et al.'s argument that archived, verifiable crawl evidence is what
// makes web measurements reproducible: `permreport -from-bundle`
// verifies the digest and re-runs analysis only — no browser, no
// network, no script interpreter — and two bundles from different crawl
// eras diff into a longitudinal drift report.
//
// A bundle is deterministic end to end: sealing the same crawl twice
// produces byte-identical contents and therefore the same digest. No
// timestamps are recorded anywhere — not in bundle.json, not in the
// tarball (entries are sorted, mtimes zeroed) — because a bundle's
// identity is its evidence, not when it was boxed.
package bundle

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"permodyssey/internal/store"
)

// FormatVersion is the bundle layout version Seal writes to
// bundle.json. Version 2 extends the digest from the file listing to
// the manifest's own provenance (see Manifest.digest). Open also
// accepts version 1, whose digest covers the file listing only, and
// refuses any other version.
const FormatVersion = 2

// Well-known paths inside a bundle, relative to its root.
const (
	ManifestName = "bundle.json"
	DatasetName  = "dataset.jsonl"
	ReportName   = "report.txt"
	ArchiveDir   = "archive"
)

// ErrVerify wraps every verification failure — a tampered file, a
// missing or extra file, a digest or signature mismatch — so callers
// can distinguish "bundle is lying" from "bundle is unreadable".
var ErrVerify = errors.New("bundle: verification failed")

// Config records how the sealed crawl was produced. Enough to re-run
// the same crawl from scratch (population knobs) and to label the
// bundle in a longitudinal diff (era).
type Config struct {
	// Sites and Seed pin the synthetic population.
	Sites int   `json:"sites"`
	Seed  int64 `json:"seed"`
	// Era is the synthweb calibration year (0 = the default,
	// present-day population).
	Era int `json:"era,omitempty"`
	// Chaos marks a fault-injected crawl; ChaosFaults is the injected
	// fault-kind list ("" = all kinds).
	Chaos       bool   `json:"chaos,omitempty"`
	ChaosFaults string `json:"chaos_faults,omitempty"`
	// Flags is the raw command line the sealing tool was invoked with,
	// for provenance beyond the structured fields above.
	Flags []string `json:"flags,omitempty"`
}

// FileEntry is one sealed file: its slash-separated path relative to
// the bundle root, content hash, and size.
type FileEntry struct {
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// Manifest is bundle.json: the bundle's self-description and the
// digest that seals it.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	Tool          string `json:"tool"`
	ToolVersion   string `json:"tool_version"`
	// DatasetSchema is store.SchemaVersion at seal time.
	DatasetSchema int    `json:"dataset_schema"`
	Config        Config `json:"config"`
	// Records is the sealed dataset's record count.
	Records int `json:"records"`
	// Files lists every sealed file except bundle.json itself, sorted
	// by path.
	Files []FileEntry `json:"files"`
	// Digest is the hex SHA-256 of the canonical file listing and, from
	// version 2, of the fields above (see digest): it commits to every
	// byte of every sealed file and to what the bundle says about
	// itself.
	Digest string `json:"digest"`
	// Signature is hex HMAC-SHA256(key, Digest) when the bundle was
	// sealed with a key, binding the digest to a secret the verifier
	// must present.
	Signature string `json:"signature,omitempty"`
}

// Spec is everything Seal needs from the sealing tool.
type Spec struct {
	// DatasetPath is the crawl's output JSONL, copied into the bundle.
	DatasetPath string
	// ArchiveDir is the crawl's resource archive root, compacted first
	// (diskcache.Compact) when the bundle must be byte-deterministic:
	// Seal copies manifest.jsonl and objects/ as they are, and refuses
	// the per-shard manifests of older releases.
	ArchiveDir string
	// Report is the crawl-time analysis report, byte-exact as the
	// sealing tool printed it — the replay gate diffs against it.
	Report string
	// Tool/ToolVersion identify the sealer (e.g. "permcrawl",
	// core.ToolVersion).
	Tool        string
	ToolVersion string
	Config      Config
	Records     int
	// Key, when non-empty, HMAC-signs the digest.
	Key string
}

// Bundle is an opened bundle rooted at a directory (possibly a
// temporary extraction of a tarball — Close removes it).
type Bundle struct {
	Dir      string
	Manifest Manifest
	tmp      string // extraction dir to remove on Close; "" for plain dirs
}

// Seal writes the bundle for spec at path. A path ending in .tar.gz or
// .tgz seals to a deterministic tarball; anything else seals to a
// directory, which must not already exist (or must be empty) — a
// bundle is immutable evidence, never an in-place update. Returns the
// manifest it wrote.
func Seal(path string, spec Spec) (Manifest, error) {
	if isTarball(path) {
		tmp, err := os.MkdirTemp(filepath.Dir(path), ".bundle-*")
		if err != nil {
			return Manifest{}, fmt.Errorf("bundle: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir := filepath.Join(tmp, "bundle")
		m, err := sealDir(dir, spec)
		if err != nil {
			return Manifest{}, err
		}
		if err := pack(path, dir); err != nil {
			return Manifest{}, err
		}
		return m, nil
	}
	return sealDir(path, spec)
}

func sealDir(dir string, spec Spec) (Manifest, error) {
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		return Manifest{}, fmt.Errorf("bundle: %s already exists and is not empty", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("bundle: %w", err)
	}
	if err := copyFile(filepath.Join(dir, DatasetName), spec.DatasetPath); err != nil {
		return Manifest{}, fmt.Errorf("bundle: sealing dataset: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ReportName), []byte(spec.Report), 0o644); err != nil {
		return Manifest{}, fmt.Errorf("bundle: sealing report: %w", err)
	}
	if err := copyArchive(filepath.Join(dir, ArchiveDir), spec.ArchiveDir); err != nil {
		return Manifest{}, err
	}
	files, err := listFiles(dir)
	if err != nil {
		return Manifest{}, err
	}
	m := Manifest{
		FormatVersion: FormatVersion,
		Tool:          spec.Tool,
		ToolVersion:   spec.ToolVersion,
		DatasetSchema: store.SchemaVersion,
		Config:        spec.Config,
		Records:       spec.Records,
		Files:         files,
	}
	m.Digest = m.digest(files)
	if spec.Key != "" {
		m.Signature = sign(m.Digest, spec.Key)
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("bundle: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), append(raw, '\n'), 0o644); err != nil {
		return Manifest{}, fmt.Errorf("bundle: %w", err)
	}
	return m, nil
}

// copyArchive seals an archive directory: the manifest and the object
// store, nothing else. Shard manifests present mean an older release
// wrote the archive and never merged it — refuse rather than seal a
// manifest that misses their URLs.
func copyArchive(dst, src string) error {
	shards, err := filepath.Glob(filepath.Join(src, "manifest-*.jsonl"))
	if err == nil && len(shards) > 0 {
		return fmt.Errorf("bundle: archive %s has %d unmerged shard manifests from an older release", src, len(shards))
	}
	if err := copyFile(filepath.Join(dst, "manifest.jsonl"), filepath.Join(src, "manifest.jsonl")); err != nil {
		return fmt.Errorf("bundle: sealing archive manifest: %w", err)
	}
	objects := filepath.Join(src, "objects")
	return filepath.WalkDir(objects, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) && path == objects {
				return nil // archive with no successful fetches
			}
			return fmt.Errorf("bundle: sealing objects: %w", err)
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), ".") {
			return nil // skip temp debris; packs and pre-pack objects are plain files
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return fmt.Errorf("bundle: %w", err)
		}
		if err := copyFile(filepath.Join(dst, rel), path); err != nil {
			return fmt.Errorf("bundle: sealing %s: %w", rel, err)
		}
		return nil
	})
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// listFiles walks dir and hashes every regular file except the
// manifest itself, returning entries sorted by slash-separated path.
func listFiles(dir string) ([]FileEntry, error) {
	var files []FileEntry
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == ManifestName {
			return nil
		}
		sum, size, err := hashFile(path)
		if err != nil {
			return err
		}
		files = append(files, FileEntry{Path: rel, SHA256: sum, Size: size})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	return files, nil
}

func hashFile(path string) (sum string, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// digest commits to the full file listing: one canonical line per
// file, sorted by path, hashed as a whole, so any changed, added, or
// removed byte in any sealed file changes the digest. From format
// version 2 one more line commits to the canonical (compact, fixed
// field order) JSON of the manifest's provenance — format version,
// tool, versions, config and record count — so a rewritten config or
// record count changes the digest too, and the signature with it.
func (m *Manifest) digest(files []FileEntry) string {
	h := sha256.New()
	for _, f := range files {
		fmt.Fprintf(h, "%s  %d  %s\n", f.SHA256, f.Size, f.Path)
	}
	if m.FormatVersion >= 2 {
		raw, _ := json.Marshal(struct {
			FormatVersion int    `json:"format_version"`
			Tool          string `json:"tool"`
			ToolVersion   string `json:"tool_version"`
			DatasetSchema int    `json:"dataset_schema"`
			Config        Config `json:"config"`
			Records       int    `json:"records"`
		}{m.FormatVersion, m.Tool, m.ToolVersion, m.DatasetSchema, m.Config, m.Records})
		fmt.Fprintf(h, "%s\n", raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sign(digest, key string) string {
	mac := hmac.New(sha256.New, []byte(key))
	mac.Write([]byte(digest))
	return hex.EncodeToString(mac.Sum(nil))
}

// Open reads the bundle at path — a sealed directory or a .tar.gz /
// .tgz tarball, which is extracted to a temp directory removed by
// Close. Open only parses bundle.json; call Verify before trusting the
// contents.
func Open(path string) (*Bundle, error) {
	b := &Bundle{Dir: path}
	if isTarball(path) {
		tmp, err := os.MkdirTemp("", "bundle-*")
		if err != nil {
			return nil, fmt.Errorf("bundle: %w", err)
		}
		if err := unpack(path, tmp); err != nil {
			os.RemoveAll(tmp)
			return nil, err
		}
		b.Dir, b.tmp = tmp, tmp
	}
	raw, err := os.ReadFile(filepath.Join(b.Dir, ManifestName))
	if err != nil {
		b.Close()
		return nil, fmt.Errorf("bundle: %w", err)
	}
	if err := json.Unmarshal(raw, &b.Manifest); err != nil {
		b.Close()
		return nil, fmt.Errorf("bundle: parsing %s: %w", ManifestName, err)
	}
	if v := b.Manifest.FormatVersion; v != 1 && v != FormatVersion {
		b.Close()
		return nil, fmt.Errorf("bundle: format version %d not supported (want 1 or %d)", v, FormatVersion)
	}
	return b, nil
}

// Verify re-hashes every sealed file and checks the lot against the
// manifest: no file missing, none added, none changed, the digest
// matching the listing (and, from version 2, the manifest's
// provenance), and — when key is non-empty — the signature matching
// the digest. Every failure wraps ErrVerify and names the
// first offending path.
func (b *Bundle) Verify(key string) error {
	got, err := listFiles(b.Dir)
	if err != nil {
		return err
	}
	want := b.Manifest.Files
	byPath := make(map[string]FileEntry, len(want))
	for _, f := range want {
		byPath[f.Path] = f
	}
	for _, g := range got {
		w, ok := byPath[g.Path]
		if !ok {
			return fmt.Errorf("%w: unlisted file %s", ErrVerify, g.Path)
		}
		if g.SHA256 != w.SHA256 || g.Size != w.Size {
			return fmt.Errorf("%w: digest mismatch on %s (content altered since sealing)", ErrVerify, g.Path)
		}
		delete(byPath, g.Path)
	}
	for path := range byPath {
		return fmt.Errorf("%w: sealed file %s is missing", ErrVerify, path)
	}
	if d := b.Manifest.digest(got); d != b.Manifest.Digest {
		return fmt.Errorf("%w: digest mismatch (manifest digest does not match the sealed files and provenance)", ErrVerify)
	}
	if key != "" {
		if b.Manifest.Signature == "" {
			return fmt.Errorf("%w: bundle is unsigned but a key was provided", ErrVerify)
		}
		if !hmac.Equal([]byte(sign(b.Manifest.Digest, key)), []byte(b.Manifest.Signature)) {
			return fmt.Errorf("%w: signature mismatch (wrong key or forged digest)", ErrVerify)
		}
	}
	return nil
}

// Dataset loads the sealed dataset through the check of Records.
func (b *Bundle) Dataset() (*store.Dataset, error) {
	ds := &store.Dataset{}
	if err := b.Records(ds.Add); err != nil {
		return nil, err
	}
	return ds, nil
}

// Records streams the sealed dataset to fn without holding it (see
// store.Decode), hashing and counting the bytes it decodes. When the
// stream ends it fails with ErrVerify unless they match the manifest's
// dataset entry, so a dataset replaced after Verify is refused rather
// than reported. fn sees each record before that check: publish
// nothing folded from them until Records returns nil.
func (b *Bundle) Records(fn func(store.SiteRecord)) error {
	var want *FileEntry
	for i, f := range b.Manifest.Files {
		if f.Path == DatasetName {
			want = &b.Manifest.Files[i]
		}
	}
	if want == nil {
		return fmt.Errorf("%w: sealed file %s is missing", ErrVerify, DatasetName)
	}
	f, err := os.Open(filepath.Join(b.Dir, DatasetName))
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	defer f.Close()
	hr := &hashingReader{r: f, h: sha256.New()}
	if err := store.Decode(hr, fn); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, hr); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	if hex.EncodeToString(hr.h.Sum(nil)) != want.SHA256 || hr.n != want.Size {
		return fmt.Errorf("%w: digest mismatch on %s (content altered since sealing)", ErrVerify, DatasetName)
	}
	return nil
}

// hashingReader hashes and counts what is read through it.
type hashingReader struct {
	r io.Reader
	h hash.Hash
	n int64
}

func (hr *hashingReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	hr.h.Write(p[:n])
	hr.n += int64(n)
	return n, err
}

// Report reads the sealed crawl-time report, byte-exact.
func (b *Bundle) Report() (string, error) {
	raw, err := os.ReadFile(filepath.Join(b.Dir, ReportName))
	if err != nil {
		return "", fmt.Errorf("bundle: %w", err)
	}
	return string(raw), nil
}

// ArchivePath returns the sealed archive root, usable directly as a
// diskcache directory for strict offline replay.
func (b *Bundle) ArchivePath() string {
	return filepath.Join(b.Dir, ArchiveDir)
}

// Close removes the temporary extraction of a tarball bundle; for a
// directory bundle it is a no-op.
func (b *Bundle) Close() error {
	if b.tmp == "" {
		return nil
	}
	err := os.RemoveAll(b.tmp)
	b.tmp = ""
	return err
}

func isTarball(path string) bool {
	return strings.HasSuffix(path, ".tar.gz") || strings.HasSuffix(path, ".tgz")
}

// bufferedWriteCloser pairs the bufio flush with the underlying close
// so pack's layered writers unwind in order.
type bufferedWriteCloser struct {
	*bufio.Writer
	c io.Closer
}

func (b bufferedWriteCloser) Close() error {
	if err := b.Flush(); err != nil {
		b.c.Close()
		return err
	}
	return b.c.Close()
}

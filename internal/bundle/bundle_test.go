package bundle_test

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"permodyssey/internal/browser"
	"permodyssey/internal/bundle"
	"permodyssey/internal/diskcache"
	"permodyssey/internal/store"
)

const fixtureReport = "Table 3 — everything\n0 rows\n"

// fixture builds a minimal sealed-crawl input set: a compacted archive
// with a success and an archived failure, a two-record dataset, and a
// crawl-time report. Deterministic — two calls produce byte-identical
// inputs.
func fixture(t testing.TB) bundle.Spec {
	t.Helper()
	dir := t.TempDir()
	arch := filepath.Join(dir, "cache")
	a, err := diskcache.Open(arch, diskcache.Options{Classify: func(error) string { return "unreachable" }})
	if err != nil {
		t.Fatal(err)
	}
	a.Store("https://site-0.test/", &browser.Response{Status: 200, Body: "<html>ok</html>"})
	a.StoreFailure("https://site-1.test/", errors.New("no route"))
	a.Close()
	if err := diskcache.Compact(arch); err != nil {
		t.Fatal(err)
	}
	ds := &store.Dataset{Records: []store.SiteRecord{
		{Rank: 0, URL: "https://site-0.test/"},
		{Rank: 1, URL: "https://site-1.test/", Failure: store.FailureUnreachable, Error: "no route"},
	}}
	dataset := filepath.Join(dir, "crawl.jsonl")
	if err := ds.SaveFile(dataset); err != nil {
		t.Fatal(err)
	}
	return bundle.Spec{
		DatasetPath: dataset,
		ArchiveDir:  arch,
		Report:      fixtureReport,
		Tool:        "permcrawl",
		ToolVersion: "test",
		Config:      bundle.Config{Sites: 2, Seed: 7},
		Records:     2,
	}
}

func seal(t testing.TB, path string, spec bundle.Spec) bundle.Manifest {
	t.Helper()
	m, err := bundle.Seal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSealVerifyRoundTrip(t *testing.T) {
	spec := fixture(t)
	path := filepath.Join(t.TempDir(), "b")
	m := seal(t, path, spec)
	if m.FormatVersion != bundle.FormatVersion || m.DatasetSchema != store.SchemaVersion {
		t.Errorf("manifest versions = %+v", m)
	}
	if m.Records != 2 || m.Tool != "permcrawl" || m.Config.Seed != 7 {
		t.Errorf("manifest provenance = %+v", m)
	}
	b, err := bundle.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Verify(""); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	ds, err := b.Dataset()
	if err != nil || len(ds.Records) != 2 {
		t.Fatalf("Dataset = %v, %v; want 2 records", ds, err)
	}
	if rep, err := b.Report(); err != nil || rep != fixtureReport {
		t.Errorf("Report = %q, %v; want the sealed report byte-exact", rep, err)
	}
	// The sealed archive replays offline directly.
	ar, err := diskcache.Open(b.ArchivePath(), diskcache.Options{Offline: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ar.Load("https://site-0.test/"); err != nil || got == nil || got.Body != "<html>ok</html>" {
		t.Errorf("offline Load from sealed archive = %v, %v", got, err)
	}
	var rf *browser.ReplayedFailure
	if _, err := ar.Load("https://site-1.test/"); !errors.As(err, &rf) {
		t.Errorf("archived failure did not replay: %v", err)
	}
}

// TestSealDeterministicDigest: sealing the same crawl twice — and to a
// tarball — yields the same content digest, so a bundle's digest
// identifies its evidence, not the sealing run.
func TestSealDeterministicDigest(t *testing.T) {
	spec := fixture(t)
	dir := t.TempDir()
	m1 := seal(t, filepath.Join(dir, "b1"), spec)
	m2 := seal(t, filepath.Join(dir, "b2"), spec)
	if m1.Digest != m2.Digest {
		t.Errorf("digests differ across identical seals: %s vs %s", m1.Digest, m2.Digest)
	}
	m3 := seal(t, filepath.Join(dir, "b3.tar.gz"), spec)
	if m3.Digest != m1.Digest {
		t.Errorf("tarball digest differs from directory digest: %s vs %s", m3.Digest, m1.Digest)
	}
	// The tarball itself is byte-deterministic too.
	seal(t, filepath.Join(dir, "b4.tar.gz"), spec)
	raw3, _ := os.ReadFile(filepath.Join(dir, "b3.tar.gz"))
	raw4, _ := os.ReadFile(filepath.Join(dir, "b4.tar.gz"))
	if len(raw3) == 0 || string(raw3) != string(raw4) {
		t.Error("identical seals produced different tarball bytes")
	}
}

func TestTarballRoundTrip(t *testing.T) {
	spec := fixture(t)
	path := filepath.Join(t.TempDir(), "b.tgz")
	m := seal(t, path, spec)
	b, err := bundle.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(""); err != nil {
		t.Fatalf("Verify after tarball round trip: %v", err)
	}
	if b.Manifest.Digest != m.Digest {
		t.Errorf("digest changed through the tarball: %s vs %s", b.Manifest.Digest, m.Digest)
	}
	ds, err := b.Dataset()
	if err != nil || len(ds.Records) != 2 {
		t.Fatalf("Dataset = %v, %v", ds, err)
	}
	tmp := b.Dir
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("Close left the extraction dir behind: %v", err)
	}
}

// TestTamperDetected: every way a bundle can lie — altered file,
// deleted file, smuggled extra file, rewritten digest, rewritten
// provenance — fails Verify with ErrVerify, with and without the
// sealing key.
func TestTamperDetected(t *testing.T) {
	rewrite := func(t *testing.T, dir, old, new string) {
		t.Helper()
		path := filepath.Join(dir, bundle.ManifestName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(raw), old) {
			t.Fatalf("%s does not contain %q", bundle.ManifestName, old)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(raw), old, new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tamper := map[string]func(t *testing.T, dir string){
		"altered dataset": func(t *testing.T, dir string) {
			f, err := os.OpenFile(filepath.Join(dir, bundle.DatasetName), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString("{\"rank\":99,\"url\":\"https://forged.test/\"}\n")
			f.Close()
		},
		"deleted report": func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, bundle.ReportName))
		},
		"extra file": func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, "smuggled.txt"), []byte("hi"), 0o644)
		},
		"rewritten digest": func(t *testing.T, dir string) {
			raw, err := os.ReadFile(filepath.Join(dir, bundle.ManifestName))
			if err != nil {
				t.Fatal(err)
			}
			b, err := bundle.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			forged := strings.ReplaceAll(string(raw), b.Manifest.Digest, flipDigest(b.Manifest.Digest))
			os.WriteFile(filepath.Join(dir, bundle.ManifestName), []byte(forged), 0o644)
		},
		"rewritten config": func(t *testing.T, dir string) {
			rewrite(t, dir, `"seed": 7`, `"seed": 8`)
		},
		"rewritten record count": func(t *testing.T, dir string) {
			rewrite(t, dir, `"records": 2`, `"records": 3`)
		},
	}
	for name, fn := range tamper {
		t.Run(name, func(t *testing.T) {
			spec := fixture(t)
			spec.Key = "k"
			dir := filepath.Join(t.TempDir(), "b")
			seal(t, dir, spec)
			fn(t, dir)
			b, err := bundle.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"", "k"} {
				if err := b.Verify(key); !errors.Is(err, bundle.ErrVerify) {
					t.Errorf("Verify(%q) after tamper = %v, want ErrVerify", key, err)
				}
			}
		})
	}
}

// TestRecordsRefuseReplacedDataset: a directory bundle is read in
// place, so its dataset can change between Verify and the read that
// feeds the analysis. Records must refuse well-formed records that are
// not the sealed ones, and so must Dataset, which reads through it.
func TestRecordsRefuseReplacedDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "b")
	seal(t, dir, fixture(t))
	b, err := bundle.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(""); err != nil {
		t.Fatal(err)
	}
	forged := &store.Dataset{Records: []store.SiteRecord{
		{Rank: 0, URL: "https://site-0.test/"},
		{Rank: 1, URL: "https://site-9.test/", Failure: store.FailureUnreachable, Error: "no route"},
	}}
	if err := forged.SaveFile(filepath.Join(dir, bundle.DatasetName)); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := b.Records(func(store.SiteRecord) { n++ }); !errors.Is(err, bundle.ErrVerify) {
		t.Errorf("Records over a replaced dataset = %v, want ErrVerify", err)
	}
	if n != 2 {
		t.Errorf("Records decoded %d records, want the 2 it then refused", n)
	}
	if ds, err := b.Dataset(); !errors.Is(err, bundle.ErrVerify) {
		t.Errorf("Dataset over a replaced dataset = %v, %v; want ErrVerify", ds, err)
	}
}

// flipDigest flips the first hex digit so the forged digest stays
// well-formed but wrong.
func flipDigest(d string) string {
	if d[0] == 'f' {
		return "0" + d[1:]
	}
	return "f" + d[1:]
}

func TestSignature(t *testing.T) {
	spec := fixture(t)
	spec.Key = "s3cret"
	dir := filepath.Join(t.TempDir(), "b")
	m := seal(t, dir, spec)
	if m.Signature == "" {
		t.Fatal("sealing with a key produced no signature")
	}
	b, err := bundle.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Verify("s3cret"); err != nil {
		t.Errorf("Verify with the right key: %v", err)
	}
	if err := b.Verify("wrong"); !errors.Is(err, bundle.ErrVerify) {
		t.Errorf("Verify with the wrong key = %v, want ErrVerify", err)
	}
	// Content checks still run without the key.
	if err := b.Verify(""); err != nil {
		t.Errorf("keyless Verify of a signed bundle: %v", err)
	}

	unsigned := filepath.Join(t.TempDir(), "u")
	spec.Key = ""
	seal(t, unsigned, spec)
	ub, err := bundle.Open(unsigned)
	if err != nil {
		t.Fatal(err)
	}
	if err := ub.Verify("s3cret"); !errors.Is(err, bundle.ErrVerify) {
		t.Errorf("Verify of an unsigned bundle with a key = %v, want ErrVerify", err)
	}
}

// TestVersion1FleetBundleVerifies: a bundle an older release sealed —
// format version 1, whose digest and signature cover the file listing
// only, written by the retired multi-process driver with its
// fleet_merge block — still opens and verifies.
func TestVersion1FleetBundleVerifies(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "b")
	m := seal(t, dir, fixture(t))
	h := sha256.New()
	for _, f := range m.Files {
		fmt.Fprintf(h, "%s  %d  %s\n", f.SHA256, f.Size, f.Path)
	}
	digest := hex.EncodeToString(h.Sum(nil))
	mac := hmac.New(sha256.New, []byte("k"))
	mac.Write([]byte(digest))
	raw, err := json.MarshalIndent(struct {
		FormatVersion int                `json:"format_version"`
		Tool          string             `json:"tool"`
		ToolVersion   string             `json:"tool_version"`
		DatasetSchema int                `json:"dataset_schema"`
		Config        bundle.Config      `json:"config"`
		Records       int                `json:"records"`
		FleetMerge    json.RawMessage    `json:"fleet_merge"`
		Files         []bundle.FileEntry `json:"files"`
		Digest        string             `json:"digest"`
		Signature     string             `json:"signature"`
	}{1, "permfleet", "test", store.SchemaVersion,
		bundle.Config{Sites: 2, Seed: 7, Flags: []string{"-sites", "2", "-seed", "7"}}, 2,
		json.RawMessage(`{"shard_records":[1,1],"records":2,"duplicates":0,"successes_preferred":0,"canceled_dropped":0}`),
		m.Files, digest, hex.EncodeToString(mac.Sum(nil))}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bundle.ManifestName), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := bundle.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Manifest.FormatVersion != 1 || b.Manifest.Tool != "permfleet" || b.Manifest.Records != 2 {
		t.Errorf("manifest = %+v", b.Manifest)
	}
	for _, key := range []string{"", "k"} {
		if err := b.Verify(key); err != nil {
			t.Errorf("Verify(%q) of a version-1 bundle: %v", key, err)
		}
	}
	if err := b.Verify("wrong"); !errors.Is(err, bundle.ErrVerify) {
		t.Errorf("Verify with the wrong key = %v, want ErrVerify", err)
	}
	if err := os.WriteFile(filepath.Join(dir, bundle.ReportName), []byte("forged\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.Verify("k"); !errors.Is(err, bundle.ErrVerify) {
		t.Errorf("Verify of a tampered version-1 bundle = %v, want ErrVerify", err)
	}
}

// TestOpenRefusesUnknownVersion: a format version this release does
// not know is refused up front.
func TestOpenRefusesUnknownVersion(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "b")
	seal(t, dir, fixture(t))
	path := filepath.Join(dir, bundle.ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	forged := strings.Replace(string(raw), fmt.Sprintf(`"format_version": %d`, bundle.FormatVersion), `"format_version": 99`, 1)
	if err := os.WriteFile(path, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	if b, err := bundle.Open(dir); err == nil {
		b.Close()
		t.Error("Open accepted format version 99")
	}
}

func TestSealRefusals(t *testing.T) {
	spec := fixture(t)
	occupied := t.TempDir()
	if err := os.WriteFile(filepath.Join(occupied, "x"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := bundle.Seal(occupied, spec); err == nil {
		t.Error("Seal into a non-empty directory succeeded")
	}

	// An older release's unmerged archive (a shard manifest) must be
	// refused.
	shardy := fixture(t)
	if err := os.WriteFile(filepath.Join(shardy.ArchiveDir, "manifest-0.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := bundle.Seal(filepath.Join(t.TempDir(), "b"), shardy); err == nil {
		t.Error("Seal over an unmerged archive succeeded")
	}
}

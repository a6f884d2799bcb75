package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"permodyssey/internal/bundle"
)

// TestCrawlBundleReplay is the CLI shape of the bundle-replay CI job:
// a crawl sealed with -bundle, then permreport -from-bundle verifying
// the digest and reproducing the crawl-time report byte for byte —
// analysis only, no browser, network, or interpreter.
func TestCrawlBundleReplay(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "archive")
	bdir := filepath.Join(dir, "crawl.bundle")
	crawlTo(t, filepath.Join(dir, "out.jsonl"),
		"-cache-dir", cache, "-bundle", bdir, "-bundle-key", "s3cret")

	sealed, err := os.ReadFile(filepath.Join(bdir, bundle.ReportName))
	if err != nil {
		t.Fatalf("sealed report: %v", err)
	}
	b, err := bundle.Open(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if m := b.Manifest; m.Tool != "permcrawl" || m.Records != 40 || m.Config.Sites != 40 || m.Config.Seed != 21 {
		t.Errorf("sealed provenance = %+v, want permcrawl, 40 records, sites 40, seed 21", m)
	}
	out, errOut, code := run(t, reportFn, "-from-bundle", bdir, "-bundle-key", "s3cret")
	if code != 0 {
		t.Fatalf("-from-bundle: code=%d stderr=%q", code, errOut)
	}
	if out != string(sealed) {
		t.Error("-from-bundle report differs from the sealed crawl-time report")
	}
	if !strings.Contains(errOut, "verified") {
		t.Errorf("stderr missing verification provenance: %q", errOut)
	}

	// The wrong key must refuse to analyze.
	if _, _, code := run(t, reportFn, "-from-bundle", bdir, "-bundle-key", "wrong"); code != 1 {
		t.Errorf("wrong key: code=%d, want 1", code)
	}

	// Tampered evidence must refuse to analyze.
	ds := filepath.Join(bdir, bundle.DatasetName)
	raw, err := os.ReadFile(ds)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(ds, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code = run(t, reportFn, "-from-bundle", bdir)
	if code != 1 {
		t.Errorf("tampered bundle: code=%d, want 1", code)
	}
	if !strings.Contains(errOut, "verification failed") {
		t.Errorf("tampered bundle stderr: %q", errOut)
	}
}

// TestCrawlBundleFlagValidation: the sealing flag combinations that
// cannot produce a complete bundle exit with usage errors up front.
func TestCrawlBundleFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Crawl(context.Background(), []string{"-bundle", "b"}, &stdout, &stderr); code != 2 {
		t.Errorf("-bundle without -cache-dir: code=%d, want 2", code)
	}
	if _, _, code := run(t, reportFn, "-diff-bundles", "only-one"); code != 2 {
		t.Errorf("-diff-bundles with one path: code=%d, want 2", code)
	}
}

// TestDiffBundlesDeterministic crawls the same seed under two
// synthweb eras, seals both, and checks the longitudinal drift report
// is labeled with the eras and byte-identical across runs.
func TestDiffBundlesDeterministic(t *testing.T) {
	dir := t.TempDir()
	seal := func(era string) string {
		path := filepath.Join(dir, "era"+era+".bundle")
		crawlTo(t, filepath.Join(dir, "era"+era+".jsonl"),
			"-era", era, "-cache-dir", filepath.Join(dir, "archive"+era), "-bundle", path)
		return path
	}
	before, after := seal("2020"), seal("2024")

	diff := func() string {
		out, errOut, code := run(t, reportFn, "-diff-bundles", before, after)
		if code != 0 {
			t.Fatalf("-diff-bundles: code=%d stderr=%q", code, errOut)
		}
		return out
	}
	first := diff()
	if first != diff() {
		t.Error("-diff-bundles is not deterministic across runs")
	}
	for _, want := range []string{"[era 2020]", "[era 2024]", "Longitudinal drift report", "Table 4 drift"} {
		if !strings.Contains(first, want) {
			t.Errorf("drift report missing %q", want)
		}
	}

	// The JSON form parses and carries the same sections.
	out, errOut, code := run(t, reportFn, "-diff-bundles", "-json", before, after)
	if code != 0 {
		t.Fatalf("-diff-bundles -json: code=%d stderr=%q", code, errOut)
	}
	var drift struct {
		Population []json.RawMessage `json:"population"`
		Adoption   []json.RawMessage `json:"adoption"`
	}
	if err := json.Unmarshal([]byte(out), &drift); err != nil {
		t.Fatalf("drift JSON: %v", err)
	}
	if len(drift.Population) == 0 || len(drift.Adoption) == 0 {
		t.Error("drift JSON missing population/adoption sections")
	}
}

// TestReportEmptyDatasetWarns pins the empty-dataset contract: clean
// zero-row tables on stdout, an explicit warning on stderr, and a
// nonzero exit so pipelines cannot mistake a report over nothing for
// a healthy run.
func TestReportEmptyDatasetWarns(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := run(t, reportFn, "-in", empty)
	if code != 1 {
		t.Errorf("empty dataset: code=%d, want 1", code)
	}
	if !strings.Contains(errOut, "no analyzable records") {
		t.Errorf("stderr missing warning: %q", errOut)
	}
	if !strings.Contains(out, "Table 4") {
		t.Error("empty dataset should still render zero-row tables")
	}
	for _, bad := range []string{"NaN", "+Inf", "-Inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("empty dataset report contains %q", bad)
		}
	}
	// The JSON form exits nonzero too.
	if _, _, code := run(t, reportFn, "-in", empty, "-json"); code != 1 {
		t.Errorf("empty dataset -json: code=%d, want 1", code)
	}
}

// TestReportRefusesBrokenDatasets: a page with no frames, read with -in
// or from a bundle that verifies, and a dataset whose last line is cut
// off each exit 1 with nothing on stdout. permreport folds records as
// it decodes them, so a stream error must never print a partial report.
func TestReportRefusesBrokenDatasets(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := `{"rank":1,"url":"https://a.example/","page":{"URL":"https://a.example/","Frames":[{"URL":"https://a.example/","TopLevel":true,"Site":"a.example"}]}}` + "\n"
	frameless := write("frameless.jsonl", `{"rank":1,"url":"https://a.example/","page":{"URL":"https://a.example/","Frames":null}}`+"\n")
	cut := write("cut.jsonl", good+good[:len(good)/2])
	archive := filepath.Join(dir, "archive")
	if err := os.MkdirAll(archive, 0o755); err != nil {
		t.Fatal(err)
	}
	write("archive/manifest.jsonl", "")
	bdir := filepath.Join(dir, "frameless.bundle")
	if _, err := bundle.Seal(bdir, bundle.Spec{DatasetPath: frameless, ArchiveDir: archive, Report: "-\n", Tool: "test", Records: 1}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-in", frameless},
		{"-in", frameless, "-json"},
		{"-in", cut},
		{"-in", cut, "-table", "3"},
		{"-from-bundle", bdir},
		{"-diff-bundles", bdir, bdir},
	} {
		out, errOut, code := run(t, reportFn, args...)
		if code != 1 || out != "" {
			t.Errorf("permreport %v: code=%d, stdout %d bytes; want 1 and none", args, code, len(out))
		}
		if args[1] == frameless && !strings.Contains(errOut, "record 0 (rank 1) has a page with no frames") {
			t.Errorf("permreport %v: stderr %q does not name the frameless record", args, errOut)
		}
	}
}

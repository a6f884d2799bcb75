package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"permodyssey/internal/analysis"
	"permodyssey/internal/bundle"
	"permodyssey/internal/core"
	"permodyssey/internal/diskcache"
)

// openVerified opens a bundle and refuses to return it until its
// digest (and signature, when a key is given) checks out — analysis
// must never run over tampered evidence.
func openVerified(path, key string, stderr io.Writer) (*bundle.Bundle, error) {
	b, err := bundle.Open(path)
	if err != nil {
		return nil, err
	}
	if err := b.Verify(key); err != nil {
		b.Close()
		return nil, err
	}
	fmt.Fprintf(stderr, "bundle %s verified: %d files, digest %s, %s %s, %d records\n",
		path, len(b.Manifest.Files), short(b.Manifest.Digest), b.Manifest.Tool, b.Manifest.ToolVersion, b.Manifest.Records)
	return b, nil
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// sealCrawlBundle compacts the archive's manifest into the one
// deterministic manifest a bundle requires, then seals permcrawl's
// finished crawl at path.
func sealCrawlBundle(path, cacheDir, datasetPath, report string, cfg bundle.Config, records int, key string, stderr io.Writer) error {
	if err := diskcache.Compact(cacheDir); err != nil {
		return fmt.Errorf("compacting archive: %w", err)
	}
	m, err := bundle.Seal(path, bundle.Spec{
		DatasetPath: datasetPath,
		ArchiveDir:  cacheDir,
		Report:      report,
		Tool:        "permcrawl",
		ToolVersion: core.ToolVersion,
		Config:      cfg,
		Records:     records,
		Key:         key,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "bundle sealed at %s: %d files, digest %s\n", path, len(m.Files), short(m.Digest))
	return nil
}

// diffBundlesCmd is permreport -diff-bundles: verify both bundles,
// re-run analysis on each sealed dataset, and render the longitudinal
// drift between them. Tables are computed unbounded so new/vanished
// permissions are real drift, never top-N truncation.
func diffBundlesCmd(beforePath, afterPath, key string, asJSON bool, stdout, stderr io.Writer) int {
	load := func(path string) (analysis.ReportData, string, error) {
		b, err := openVerified(path, key, stderr)
		if err != nil {
			return analysis.ReportData{}, "", err
		}
		defer b.Close()
		a := analysis.New(nil)
		if err := b.Records(a.Add); err != nil {
			return analysis.ReportData{}, "", err
		}
		label := filepath.Base(path)
		if era := b.Manifest.Config.Era; era != 0 {
			label = fmt.Sprintf("%s [era %d]", label, era)
		}
		return a.ReportData(0), label, nil
	}
	before, labelA, err := load(beforePath)
	if err != nil {
		fmt.Fprintln(stderr, "permreport:", err)
		return 1
	}
	after, labelB, err := load(afterPath)
	if err != nil {
		fmt.Fprintln(stderr, "permreport:", err)
		return 1
	}
	drift := analysis.Diff(before, after, labelA, labelB)
	if asJSON {
		out, err := json.MarshalIndent(drift, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "permreport:", err)
			return 1
		}
		stdout.Write(out)
		fmt.Fprintln(stdout)
		return 0
	}
	fmt.Fprintln(stdout, drift)
	return 0
}

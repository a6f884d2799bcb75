package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"permodyssey/internal/core"
	"permodyssey/internal/synthweb"
)

func run(t *testing.T, fn func([]string, *bytes.Buffer, *bytes.Buffer) int, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := fn(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func lintFn(args []string, out, errOut *bytes.Buffer) int    { return Lint(args, out, errOut) }
func genFn(args []string, out, errOut *bytes.Buffer) int     { return Gen(args, out, errOut) }
func supportFn(args []string, out, errOut *bytes.Buffer) int { return Support(args, out, errOut) }
func reportFn(args []string, out, errOut *bytes.Buffer) int  { return Report(args, out, errOut) }
func pocFn(args []string, out, errOut *bytes.Buffer) int     { return PoC(args, out, errOut) }

func TestLintCommand(t *testing.T) {
	out, _, code := run(t, lintFn, "-header", "camera=(), geolocation=(self)")
	if code != 0 || !strings.Contains(out, "no issues") {
		t.Errorf("clean header: code=%d out=%q", code, out)
	}
	out, _, code = run(t, lintFn, "-header", "camera 'none'")
	if code != 1 || !strings.Contains(out, "INVALID") {
		t.Errorf("FP syntax: code=%d out=%q", code, out)
	}
	out, _, code = run(t, lintFn, "-allow", "camera *")
	if code != 1 || !strings.Contains(out, "wildcard") {
		t.Errorf("wildcard allow: code=%d out=%q", code, out)
	}
	_, _, code = run(t, lintFn)
	if code != 2 {
		t.Errorf("no args: code=%d", code)
	}
	out, _, code = run(t, lintFn, "-feature-policy", "camera 'self'")
	if code != 0 || !strings.Contains(out, "deprecated") {
		t.Errorf("FP lint: code=%d out=%q", code, out)
	}
}

func TestGenCommand(t *testing.T) {
	out, _, code := run(t, genFn, "-mode", "disable-powerful")
	if code != 0 || !strings.Contains(out, "Permissions-Policy: ") || !strings.Contains(out, "camera=()") {
		t.Errorf("disable-powerful: code=%d out=%q", code, out)
	}
	out, _, code = run(t, genFn, "-mode", "from-usage", "-used", "camera", "-delegate", "camera=https://m.example")
	if code != 0 || !strings.Contains(out, `camera=(self "https://m.example")`) {
		t.Errorf("from-usage: code=%d out=%q", code, out)
	}
	out, _, code = run(t, genFn, "-mode", "disable-powerful", "-report-only")
	if code != 0 || !strings.Contains(out, "Permissions-Policy-Report-Only:") || !strings.Contains(out, "report-to=default") {
		t.Errorf("report-only: code=%d out=%q", code, out)
	}
	out, _, code = run(t, genFn, "-allow", "camera,microphone")
	if code != 0 || !strings.Contains(out, `allow="camera; microphone"`) {
		t.Errorf("allow: code=%d out=%q", code, out)
	}
	_, _, code = run(t, genFn, "-mode", "bogus")
	if code != 2 {
		t.Errorf("bad mode: code=%d", code)
	}
	_, _, code = run(t, genFn, "-browser", "netscape")
	if code != 2 {
		t.Errorf("bad browser: code=%d", code)
	}
	_, _, code = run(t, genFn, "-mode", "from-usage", "-used", "not-a-permission")
	if code != 1 {
		t.Errorf("unknown permission: code=%d", code)
	}
}

func TestSupportCommand(t *testing.T) {
	out, _, code := run(t, supportFn)
	if code != 0 || !strings.Contains(out, "camera") || !strings.Contains(out, "Chromium 127") {
		t.Errorf("table: code=%d", code)
	}
	out, _, code = run(t, supportFn, "-changes", "chromium", "-from", "88", "-to", "90")
	if code != 0 || !strings.Contains(out, "interest-cohort") {
		t.Errorf("changes: code=%d out=%q", code, out)
	}
	_, _, code = run(t, supportFn, "-changes", "netscape")
	if code != 2 {
		t.Errorf("bad engine: code=%d", code)
	}
	// Fingerprint round trip: surface of Chromium 127 identifies itself.
	table, _, _ := run(t, supportFn)
	_ = table
	out, _, code = run(t, supportFn, "-identify", "camera,geolocation")
	if code != 1 {
		t.Errorf("nonsense surface must fail: code=%d out=%q", code, out)
	}
}

func TestReportAndPoCCommands(t *testing.T) {
	// Produce a tiny dataset via the orchestrator, then report on it.
	opts := core.DefaultMeasurementOptions()
	opts.Web.NumSites = 60
	opts.Web.Seed = 8
	opts.Crawl.Workers = 8
	opts.Crawl.PerSiteTimeout = 300 * time.Millisecond
	opts.StallTime = 600 * time.Millisecond
	m, err := core.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crawl.jsonl")
	if err := m.Dataset.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	out, _, code := run(t, reportFn, "-in", path)
	if code != 0 || !strings.Contains(out, "Table 4") {
		t.Errorf("full report: code=%d", code)
	}
	out, _, code = run(t, reportFn, "-in", path, "-table", "fig2")
	if code != 0 || !strings.Contains(out, "Permissions-Policy documents") {
		t.Errorf("fig2: code=%d out=%q", code, out)
	}
	out, _, code = run(t, reportFn, "-in", path, "-json")
	if code != 0 {
		t.Fatalf("json: code=%d", code)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Errorf("json output invalid: %v", err)
	}
	out, _, code = run(t, reportFn, "-in", path, "-html")
	if code != 0 || !strings.Contains(out, "<!DOCTYPE html>") {
		t.Errorf("html: code=%d", code)
	}
	_, _, code = run(t, reportFn, "-in", path, "-table", "nope")
	if code != 2 {
		t.Errorf("bad table: code=%d", code)
	}
	_, _, code = run(t, reportFn, "-in", filepath.Join(t.TempDir(), "missing.jsonl"))
	if code != 1 {
		t.Errorf("missing dataset: code=%d", code)
	}

	out, _, code = run(t, pocFn)
	if code != 0 || !strings.Contains(out, "Table 11") {
		t.Errorf("poc: code=%d", code)
	}
	_, _, code = run(t, pocFn, "-top", "https://%%%")
	if code != 1 {
		t.Errorf("bad origin: code=%d", code)
	}
}

func TestCrawlCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	var out, errOut bytes.Buffer
	code := Crawl(context.Background(), []string{
		"-sites", "40", "-seed", "12", "-workers", "8",
		"-timeout", "300ms", "-out", path, "-report",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("crawl: code=%d stderr=%q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Table 4") {
		t.Error("report missing")
	}
	if !strings.Contains(errOut.String(), "dataset written") {
		t.Errorf("stderr: %q", errOut.String())
	}
	// The dataset must load and report.
	rout, _, rcode := run(t, reportFn, "-in", path, "-table", "failures")
	if rcode != 0 || !strings.Contains(rout, "ok") {
		t.Errorf("report on crawl output: code=%d out=%q", rcode, rout)
	}
	// Bad flag → usage exit.
	if c := Crawl(context.Background(), []string{"-bogus"}, &out, &errOut); c != 2 {
		t.Errorf("bad flag: code=%d", c)
	}
}

// TestChaosFaultsHelpParses: the fault names -chaos-faults lists as
// its default are the names it accepts, and they name every kind.
func TestChaosFaultsHelpParses(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Crawl(context.Background(), []string{"-h"}, &out, &errOut); code != 2 {
		t.Fatalf("-h: code=%d", code)
	}
	_, help, ok := strings.Cut(errOut.String(), "(default all: ")
	list, _, closed := strings.Cut(help, ")")
	if !ok || !closed {
		t.Fatalf("no default fault list in the usage text:\n%s", errOut.String())
	}
	kinds, err := synthweb.ParseFaultList(list)
	if err != nil || !slices.Equal(kinds, synthweb.AllFaults) {
		t.Errorf("ParseFaultList(%q) = %v, %v; want %v", list, kinds, err, synthweb.AllFaults)
	}
}

// TestCrawlProfiles pins -cpuprofile and -memprofile: after a crawl
// both files exist and hold gzip-framed pprof data.
func TestCrawlProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out, errOut bytes.Buffer
	code := Crawl(context.Background(), []string{
		"-sites", "30", "-seed", "12", "-workers", "4", "-timeout", "300ms",
		"-out", filepath.Join(dir, "out.jsonl"), "-cpuprofile", cpu, "-memprofile", mem,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("crawl: code=%d stderr=%q", code, errOut.String())
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: %d bytes, want a non-empty gzip-framed profile", filepath.Base(path), len(data))
		}
	}
}

// TestCrawlOfflineReplay is the CLI shape of the offline-replay CI
// job: warm crawl with -cache-dir, offline re-crawl of the same
// population, identical reports and zero network fetches.
func TestCrawlOfflineReplay(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "archive")
	base := []string{
		"-sites", "60", "-seed", "19", "-workers", "8",
		"-timeout", "2s", "-retries", "0", "-cache-dir", cache,
	}
	crawl := func(out, stats string, offline bool) string {
		t.Helper()
		args := append([]string{}, base...)
		args = append(args, "-out", out, "-stats-json", stats)
		if offline {
			args = append(args, "-offline")
		}
		var stdout, stderr bytes.Buffer
		if code := Crawl(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("crawl(offline=%v): code=%d stderr=%q", offline, code, stderr.String())
		}
		rout, rerr, rcode := run(t, reportFn, "-in", out, "-json")
		if rcode != 0 {
			t.Fatalf("report: code=%d stderr=%q", rcode, rerr)
		}
		return rout
	}

	warmStats := filepath.Join(dir, "warm-stats.json")
	replayStats := filepath.Join(dir, "replay-stats.json")
	warmReport := crawl(filepath.Join(dir, "warm.jsonl"), warmStats, false)
	replayReport := crawl(filepath.Join(dir, "replay.jsonl"), replayStats, true)

	if warmReport != replayReport {
		t.Error("offline replay produced a different analysis report")
	}
	var stats struct {
		Fetch struct {
			NetworkFetches uint64 `json:"network_fetches"`
			Disk           struct {
				Hits   uint64 `json:"hits"`
				Writes uint64 `json:"writes"`
			} `json:"disk"`
		}
	}
	raw, err := os.ReadFile(replayStats)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Fetch.NetworkFetches != 0 {
		t.Errorf("offline replay made %d network fetches, want 0", stats.Fetch.NetworkFetches)
	}
	if stats.Fetch.Disk.Hits == 0 {
		t.Error("offline replay recorded no archive hits")
	}
	// The -stats-json schema that scripts and crawlbench read by key:
	// exactly these blocks, in both runs.
	for _, path := range []string{warmStats, replayStats} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var blocks map[string]json.RawMessage
		if err := json.Unmarshal(raw, &blocks); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range blocks {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, []string{"Breaker", "Crawl", "Fetch", "Script"}) {
			t.Errorf("%s blocks = %v, want Breaker, Crawl, Fetch, Script", filepath.Base(path), keys)
		}
	}

	// The incompatible flag combinations exit with usage errors.
	var stdout, stderr bytes.Buffer
	if code := Crawl(context.Background(), []string{"-offline"}, &stdout, &stderr); code != 2 {
		t.Errorf("-offline without -cache-dir: code=%d", code)
	}
	if code := Crawl(context.Background(), []string{"-cache-dir", cache, "-no-cache"}, &stdout, &stderr); code != 2 {
		t.Errorf("-cache-dir with -no-cache: code=%d", code)
	}
}

func TestReportAllTables(t *testing.T) {
	// Cover every per-table dispatch path on a small dataset.
	opts := core.DefaultMeasurementOptions()
	opts.Web.NumSites = 50
	opts.Web.Seed = 77
	opts.Crawl.Workers = 8
	opts.Crawl.PerSiteTimeout = 300 * time.Millisecond
	opts.StallTime = 600 * time.Millisecond
	m, err := core.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crawl.jsonl")
	if err := m.Dataset.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	full, _, code := run(t, reportFn, "-in", path)
	if code != 0 {
		t.Fatalf("full report: code=%d", code)
	}
	for _, table := range []string{"3", "4", "5", "6", "7", "8", "9", "10", "13", "fig2", "failures", "directives"} {
		out, errOut, code := run(t, reportFn, "-in", path, "-table", table)
		if code != 0 {
			t.Errorf("table %s: code=%d stderr=%q", table, code, errOut)
		}
		if len(out) < 20 {
			t.Errorf("table %s: output too short: %q", table, out)
		}
		// At the default -n a single table is the full report's copy of
		// it, plus the newline Println ends it with.
		if !strings.Contains(full, strings.TrimSuffix(out, "\n")) {
			t.Errorf("table %s is not verbatim in the full report:\n%s", table, out)
		}
	}
}

func TestSupportAllEngines(t *testing.T) {
	for _, engine := range []string{"chrome", "firefox", "safari"} {
		_, _, code := run(t, supportFn, "-changes", engine, "-from", "1", "-to", "140")
		if code != 0 {
			t.Errorf("changes %s: code=%d", engine, code)
		}
	}
	// Identify a real surface through the CLI.
	var surface strings.Builder
	for i, name := range permissionSurface() {
		if i > 0 {
			surface.WriteByte(',')
		}
		surface.WriteString(name)
	}
	out, _, code := run(t, supportFn, "-identify", surface.String())
	if code != 0 || !strings.Contains(out, "Chromium") {
		t.Errorf("identify: code=%d out=%q", code, out)
	}
}

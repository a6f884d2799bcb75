package analysis

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"permodyssey/internal/browser"
	"permodyssey/internal/crawler"
	"permodyssey/internal/policy"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

var (
	dsOnce sync.Once
	dsVal  *store.Dataset
)

// dataset crawls a 1,200-site synthetic web once and shares the result
// across the analysis tests (the crawl is deterministic).
func dataset(t *testing.T) *store.Dataset {
	t.Helper()
	dsOnce.Do(func() { dsVal = crawl(t, 1200, 42) })
	if dsVal == nil {
		t.Fatal("dataset unavailable")
	}
	return dsVal
}

// crawl crawls a synthetic web of the given size and seed.
func crawl(tb testing.TB, sites int, seed int64) *store.Dataset {
	tb.Helper()
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = sites
	cfg.Seed = seed
	srv := synthweb.NewServer(cfg)
	srv.StallTime = 300 * time.Millisecond
	if err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	defer srv.Close()
	b := browser.New(browser.NewHTTPFetcher(srv.Client(0)), browser.DefaultOptions())
	c := crawler.New(b, crawler.Config{Workers: 24, PerSiteTimeout: 150 * time.Millisecond})
	var targets []crawler.Target
	for _, s := range srv.Sites() {
		targets = append(targets, crawler.Target{Rank: s.Rank, URL: s.URL()})
	}
	return c.Crawl(context.Background(), targets)
}

func TestFailureTaxonomyShape(t *testing.T) {
	rd := New(dataset(t)).ReportData(10)
	counts := rd.Failures
	t.Logf("taxonomy: %v", counts)
	// ~88% success, like the paper's 817,800/1M ≈ 82% (we do not model
	// the paper's post-hoc exclusions at the same rate).
	okShare := pct(counts["ok"], rd.TotalRecords)
	if okShare < 80 || okShare > 95 {
		t.Errorf("success share %.1f%% out of the expected band", okShare)
	}
	for _, class := range []store.FailureClass{
		store.FailureUnreachable, store.FailureTimeout, store.FailureEphemeral,
	} {
		if counts[class] == 0 {
			t.Errorf("class %q absent", class)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rd := New(dataset(t)).ReportData(10)
	rows, total := rd.Table3, rd.Table3Total
	if len(rows) < 5 {
		t.Fatalf("rows: %d", len(rows))
	}
	t.Logf("table 3 head: %+v (total %d)", rows[:3], total)
	// google.com dominates inclusion in the paper; with our calibrated
	// probabilities it must rank top-3.
	foundGoogle := false
	for _, r := range rows[:3] {
		if r.Site == "google.com" {
			foundGoogle = true
		}
	}
	if !foundGoogle {
		t.Errorf("google.com must rank in the top 3: %+v", rows)
	}
	if total < rows[0].Count {
		t.Error("total any-site must dominate the best single site")
	}
}

func TestTable4Shape(t *testing.T) {
	rd := New(dataset(t)).ReportData(10)
	rows, total, sum := rd.Table4, rd.Table4Total, rd.Usage
	if len(rows) == 0 {
		t.Fatal("no usage rows")
	}
	t.Logf("table 4 head: %+v", rows[0])
	// General Permission APIs lead by a wide margin (paper: 482,309 of
	// 585,694 contexts).
	if rows[0].Name != "General Permission APIs" {
		t.Errorf("top row = %q; want General Permission APIs", rows[0].Name)
	}
	if rows[0].TotalContexts*2 < total.TotalContexts {
		t.Error("general APIs should account for a large share of contexts")
	}
	// Top-level invocations dominated by third-party scripts (98.32% in
	// the paper).
	if total.Top3PPct < 55 {
		t.Errorf("top-level 3P share %.1f%% too low; the web's activity is third-party-driven", total.Top3PPct)
	}
	// Embedded contexts dominated by first-party scripts (74.86%).
	if total.Emb1PPct < 55 {
		t.Errorf("embedded 1P share %.1f%% too low", total.Emb1PPct)
	}
	// Headline share: ~40% of websites invoke something (paper 40.65%).
	share := pct(sum.WithAnyInvocation, sum.Websites)
	if share < 25 || share > 68 {
		t.Errorf("dynamic-activity share %.1f%% outside the calibration band", share)
	}
	if sum.WithTopLevelActivity < sum.WithEmbeddedActivity {
		t.Error("top-level activity must exceed embedded activity (39.41% vs 7.98%)")
	}
	if sum.DeprecatedAPIWebsites == 0 {
		t.Error("deprecated Feature-Policy API reliance must be visible")
	}
}

func TestTable5Shape(t *testing.T) {
	rd := New(dataset(t)).ReportData(10)
	rows, stats := rd.Table5, rd.Checks
	if len(rows) == 0 {
		t.Fatal("no check rows")
	}
	if rows[0].Name != "All Permissions" {
		t.Errorf("top checked row = %q; want All Permissions (websites retrieve the full list)", rows[0].Name)
	}
	if stats.MeanPerTop <= 1 || stats.MeanPerTop > 8 {
		t.Errorf("mean specific permissions checked %.2f outside band (paper: 1.74)", stats.MeanPerTop)
	}
	if stats.MaxPerTop < 3 {
		t.Errorf("max specific permissions checked %d too low", stats.MaxPerTop)
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
	}
	if !names["Attribution Reporting"] {
		t.Errorf("attribution-reporting checks must rank (ad scripts): %v", names)
	}
}

func TestTable6Shape(t *testing.T) {
	rd := New(dataset(t)).ReportData(10)
	rows, sum := rd.Table6, rd.Static
	if len(rows) == 0 {
		t.Fatal("no static rows")
	}
	share := pct(sum.Websites, rd.Websites)
	if share < 15 || share > 60 {
		t.Errorf("static share %.1f%% outside band (paper 30.5%%)", share)
	}
	// Shape invariant: string matching misses obfuscated/minified code,
	// so static detection trails dynamic (paper: 30.5%% vs 40.65%%).
	if usum := rd.Usage; sum.Websites >= usum.WithAnyInvocation {
		t.Errorf("static websites (%d) must trail dynamic websites (%d)", sum.Websites, usum.WithAnyInvocation)
	}
	// Camera and Microphone have identical counts (they share the
	// getUserMedia pattern — the paper shows 26,456 for both).
	var cam, mic int
	for _, r := range rows {
		switch r.Name {
		case "Camera":
			cam = r.Websites
		case "Microphone":
			mic = r.Websites
		}
	}
	if cam != 0 && cam != mic {
		t.Errorf("camera (%d) and microphone (%d) static counts must match", cam, mic)
	}
}

func TestHybridHeadline(t *testing.T) {
	hy := New(dataset(t)).ReportData(10).Hybrid
	share := pct(hy.AnyActivity, hy.Websites)
	t.Logf("hybrid: %.2f%% (dynamic-only %d, static-only %d, both %d)",
		share, hy.DynamicOnly, hy.StaticOnly, hy.Both)
	// Paper: 48.52%; static adds coverage over dynamic alone.
	if share < 30 || share > 72 {
		t.Errorf("hybrid share %.1f%% outside band", share)
	}
	if hy.StaticOnly == 0 {
		t.Error("static analysis must add websites dynamic missed (the A.3 result)")
	}
}

func TestDelegationShape(t *testing.T) {
	rd := New(dataset(t)).ReportData(10)
	ds := rd.Delegation
	share := pct(ds.AnyDelegation, ds.Websites)
	t.Logf("delegation: any %.2f%%, external %.2f%%", share, pct(ds.ExternalDelegation, ds.Websites))
	// Paper: 12.07% any, 10.8% external.
	if share < 6 || share > 25 {
		t.Errorf("delegation share %.1f%% outside band", share)
	}
	if ds.ExternalDelegation > ds.AnyDelegation {
		t.Error("external ⊆ any")
	}
	if ds.ThirdPartyDelegation > ds.ExternalDelegation {
		t.Error("third-party ⊆ external")
	}

	rows := rd.Table7
	if len(rows) < 5 {
		t.Fatalf("table 7 rows: %d", len(rows))
	}
	sites := map[string]int{}
	for _, r := range rows {
		sites[r.Site] = r.Count
	}
	// livechatinc.com is included almost always WITH delegation, and
	// google.com almost never: livechat must appear in Table 7's top
	// despite being less popular in Table 3.
	if sites["livechatinc.com"] == 0 {
		t.Errorf("livechatinc.com must appear in table 7: %+v", rows)
	}

	t8, t8Total := rd.Table8, rd.Table8Total
	if len(t8) == 0 {
		t.Fatal("no delegated permissions")
	}
	if t8[0].Name != "autoplay" {
		t.Errorf("most-delegated permission = %q; want autoplay (Table 8)", t8[0].Name)
	}
	if t8Total.Delegations < t8Total.Websites {
		t.Error("delegations ≥ websites")
	}
}

func TestDirectiveSharesShape(t *testing.T) {
	s := New(dataset(t)).ReportData(10).Directives
	t.Logf("directives: default %.1f%% wildcard %.1f%%", s.DefaultSrc, s.Wildcard)
	// Paper: 82.12% default, 17.17% wildcard, the rest ≈ 0.7%.
	if s.DefaultSrc < 55 {
		t.Errorf("default-src share %.1f%% too low", s.DefaultSrc)
	}
	if s.Wildcard < 5 || s.Wildcard > 40 {
		t.Errorf("wildcard share %.1f%% outside band", s.Wildcard)
	}
	if s.DefaultSrc < s.Wildcard {
		t.Error("defaults must dominate wildcards")
	}
}

func TestFigure2Shape(t *testing.T) {
	s := New(dataset(t)).ReportData(10).Adoption
	t.Logf("adoption: PP %.2f%% (top %.2f%%, emb %.2f%%), FP %.2f%%",
		s.PPDocumentsPct, s.PPTopLevelPct, s.PPEmbeddedPct, s.FPDocumentsPct)
	// Paper: 7.90% PP vs 0.51% FP; embedded ~3x top-level (12.3% vs 4.5%).
	if s.PPDocumentsPct <= s.FPDocumentsPct {
		t.Error("Permissions-Policy must dominate Feature-Policy")
	}
	if s.PPTopLevelPct < 2 || s.PPTopLevelPct > 9 {
		t.Errorf("top-level adoption %.2f%% outside band (paper 4.5%%)", s.PPTopLevelPct)
	}
	if s.PPEmbeddedPct <= s.PPTopLevelPct {
		t.Error("embedded adoption must exceed top-level (widgets serve headers)")
	}
}

func TestTable9Shape(t *testing.T) {
	rd := New(dataset(t)).ReportData(10)
	rows, total, stats := rd.Table9, rd.Table9Total, rd.HeaderStats
	if len(rows) == 0 {
		t.Fatal("no header directive rows")
	}
	t.Logf("header stats: %d sites, avg %.2f perms, disable %.1f%% self %.1f%% star %.1f%%",
		stats.ParsedWebsites, stats.AvgPermissions, stats.DisablePct, stats.SelfPct, stats.AllPct)
	// Paper: 83.5% of directives disable; disable+self = 93.19%.
	if stats.DisablePct < 60 {
		t.Errorf("disable share %.1f%% too low", stats.DisablePct)
	}
	if stats.DisablePct+stats.SelfPct < 80 {
		t.Errorf("disable+self %.1f%% too low (paper 93.19%%)", stats.DisablePct+stats.SelfPct)
	}
	if stats.PowerfulDisableOrSelfPct < stats.DisablePct {
		t.Error("powerful permissions are restricted even more tightly (paper 97.08%)")
	}
	// The template signature: sizes 18 and 1 are the most common.
	hist := stats.SizeHistogram
	if hist[18] == 0 || hist[1] == 0 {
		t.Errorf("template sizes 18/1 must appear: %v", hist)
	}
	if total.Counts[policy.BreadthDisable] == 0 {
		t.Error("disable directives must dominate the total row")
	}
}

func TestMisconfigurationsShape(t *testing.T) {
	s := New(dataset(t)).ReportData(10).Misconfig
	t.Logf("misconfig: %d frames with header, %d syntax errors, kinds %v",
		s.FramesWithHeader, s.SyntaxErrorFrames, s.ByKind)
	if s.SyntaxErrorFrames == 0 {
		t.Error("syntax-invalid headers must appear (paper: 2% of frames)")
	}
	if s.ByKind[policy.IssueFeaturePolicySyntax] == 0 {
		t.Error("Feature-Policy-syntax errors are the most common class")
	}
	if s.SemanticMisconfigWebsites == 0 {
		t.Error("semantic misconfigurations must appear")
	}
	share := pct(s.SyntaxErrorFrames, s.FramesWithHeader)
	if share > 15 {
		t.Errorf("syntax-error share %.1f%% implausibly high", share)
	}
}

func TestOverPermissionedShape(t *testing.T) {
	a := New(dataset(t))
	rows, total := a.OverPermissioned(DefaultOverPermissionConfig(), 10)
	if len(rows) == 0 {
		t.Fatal("no over-permissioned widgets found")
	}
	t.Logf("over-permissioned head: %+v (total %d)", rows[0], total)
	bySite := map[string]OverPermissionRow{}
	for _, r := range rows {
		bySite[r.Site] = r
	}
	// livechatinc.com: camera/microphone/clipboard-read unused (§5.2).
	lc, ok := bySite["livechatinc.com"]
	if !ok {
		t.Fatalf("livechatinc.com must be over-permissioned: %+v", rows)
	}
	joined := strings.Join(lc.UnusedPermissions, ",")
	for _, p := range []string{"camera", "microphone", "clipboard-read"} {
		if !strings.Contains(joined, p) {
			t.Errorf("livechat unused permissions %v missing %s", lc.UnusedPermissions, p)
		}
	}
	// youtube.com: accelerometer/gyroscope unused, but NOT autoplay or
	// encrypted-media (which its player actually uses).
	yt, ok := bySite["youtube.com"]
	if ok {
		ytJoined := strings.Join(yt.UnusedPermissions, ",")
		if !strings.Contains(ytJoined, "accelerometer") || !strings.Contains(ytJoined, "gyroscope") {
			t.Errorf("youtube unused: %v", yt.UnusedPermissions)
		}
		if strings.Contains(ytJoined, "autoplay") || strings.Contains(ytJoined, "encrypted-media") {
			t.Errorf("youtube's used permissions misclassified as unused: %v", yt.UnusedPermissions)
		}
	}
	// meetwidget.com actually uses camera/microphone → must NOT be
	// flagged for them.
	if mw, ok := bySite["meetwidget.com"]; ok {
		mj := strings.Join(mw.UnusedPermissions, ",")
		if strings.Contains(mj, "camera") || strings.Contains(mj, "microphone") {
			t.Errorf("meetwidget uses its delegations; flagged: %v", mw.UnusedPermissions)
		}
	}
}

func TestWildcardRisks(t *testing.T) {
	risks := New(dataset(t)).ReportData(10).Wildcards
	found := false
	for _, r := range risks {
		if r.Site == "livechatinc.com" {
			found = true
			joined := strings.Join(r.Permissions, ",")
			if !strings.Contains(joined, "camera") || !strings.Contains(joined, "microphone") {
				t.Errorf("livechat wildcard perms: %v", r.Permissions)
			}
		}
	}
	if !found {
		t.Errorf("livechatinc.com's wildcard delegations must be flagged: %+v", risks)
	}
}

func TestFrameCensus(t *testing.T) {
	fs := New(dataset(t)).ReportData(10).Frames
	t.Logf("census: %+v", fs)
	if fs.EmbeddedFrames == 0 || fs.LocalEmbedded == 0 || fs.ExternalEmbedded == 0 {
		t.Fatal("census must include local and external embedded frames")
	}
	// Paper: 54.1% of embedded frames are local documents.
	localShare := pct(fs.LocalEmbedded, fs.EmbeddedFrames)
	if localShare < 25 || localShare > 75 {
		t.Errorf("local-embedded share %.1f%% outside band (paper 54.1%%)", localShare)
	}
	if fs.AvgIframesPerSite < 1.5 || fs.AvgIframesPerSite > 6 {
		t.Errorf("avg iframes %.1f outside band (paper 3.2)", fs.AvgIframesPerSite)
	}
}

func TestFullReportRenders(t *testing.T) {
	a := New(dataset(t))
	report := a.FullReport()
	for _, want := range []string{
		"Table 3", "Table 4", "Table 5", "Table 6", "Table 7", "Table 8",
		"Table 9", "Figure 2", "Table 10/13", "General Permission APIs",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(report) < 2000 {
		t.Errorf("report suspiciously short: %d bytes", len(report))
	}
}

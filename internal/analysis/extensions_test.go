package analysis

import (
	"html"
	"strings"
	"testing"

	"permodyssey/internal/store"
)

func TestNestedDelegations(t *testing.T) {
	s := New(dataset(t)).ReportData(10).Nested
	t.Logf("nested: %+v", s)
	if s.DeepFrames == 0 {
		t.Fatal("the synthetic web nests frames (safeframe creatives)")
	}
	if s.DeepDelegated == 0 {
		t.Fatal("nested delegations must appear")
	}
	if s.WebsitesWithChains == 0 {
		t.Fatal("≥2-hop delegation chains must appear")
	}
	if s.ChainsByPermission["attribution-reporting"] == 0 {
		t.Errorf("ad chains flow attribution-reporting: %v", s.ChainsByPermission)
	}
}

func TestDelegatedEmbedPrevalence(t *testing.T) {
	rd := New(dataset(t)).ReportData(10)
	tiers := rd.Prevalence
	if len(tiers) != 4 {
		t.Fatalf("tiers: %v", tiers)
	}
	// Monotone decreasing with threshold — the paper's head/tail shape
	// (34 sites ≥100 websites, only 13 ≥1,000).
	for i := 1; i < len(tiers); i++ {
		if tiers[i].MinWebsites <= tiers[i-1].MinWebsites || tiers[i].Sites > tiers[i-1].Sites {
			t.Errorf("prevalence must decrease with threshold: %v", tiers)
		}
	}
	if tiers[0].Sites == 0 || tiers[1].Sites == 0 {
		t.Errorf("tiers empty: %v", tiers)
	}
	if tiers[0].Sites == tiers[1].Sites {
		t.Errorf("long tail missing: %v", tiers)
	}
	// The head: some delegated-to site appears on at least 25 websites.
	if len(rd.Table7) == 0 || rd.Table7[0].Count < 25 {
		t.Errorf("no delegated embed on ≥25 websites: %v", rd.Table7)
	}
}

func TestReportOnlyAdoption(t *testing.T) {
	s := New(dataset(t)).ReportData(10).ReportOnlyH
	t.Logf("report-only: %+v", s)
	if s.WithReportOnly == 0 {
		t.Fatal("report-only headers must appear in the population")
	}
	if s.WithReportOnly >= s.Documents/10 {
		t.Errorf("report-only should be rare: %d of %d", s.WithReportOnly, s.Documents)
	}
	if s.AlsoEnforcing == 0 {
		t.Error("report-only adopters in this population also enforce")
	}
	if s.EndpointsSeen == 0 {
		t.Error("report-to endpoints must be extracted")
	}
}

func TestHTMLReport(t *testing.T) {
	a := New(dataset(t))
	out := a.HTML(10)
	for _, want := range []string{
		"<!DOCTYPE html>", "Table 3", "Table 4", "Figure 2",
		"Table 10/13", "Delegation purposes", "livechatinc.com",
	} {
		if !containsStr(out, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
	if len(out) < 5000 {
		t.Errorf("HTML report too short: %d bytes", len(out))
	}
}

// TestHTMLCompleteness: the HTML page holds everything the text report
// says. Every block's title, headers and cells, HTML-escaped, and every
// non-blank prose line of FullReport must be on the page, over a dataset
// with a canceled visit and a retried one.
func TestHTMLCompleteness(t *testing.T) {
	ds := handDataset()
	ds.Add(store.SiteRecord{Rank: 4, URL: "https://four.example/", Failure: store.FailureCanceled})
	ds.Add(store.SiteRecord{Rank: 5, URL: "https://five.example/", Failure: store.FailureEphemeral,
		Retries: 2, FirstAttemptFailure: store.FailureTimeout})
	a := New(ds)
	page := a.HTML(10)
	prose := a.FullReport()
	want := []string{"<td>canceled</td>", "<h2>Retry outcomes by first-attempt failure class</h2>"}
	for _, b := range a.ReportData(10).Blocks() {
		if b.Table == nil {
			continue
		}
		prose = strings.Replace(prose, b.Table.String(), "", 1)
		want = append(want, "<h2>"+html.EscapeString(b.Table.Title)+"</h2>")
		for _, h := range b.Table.Headers {
			want = append(want, "<th>"+html.EscapeString(h)+"</th>")
		}
		for _, row := range b.Table.Rows {
			for _, cell := range row {
				want = append(want, ">"+html.EscapeString(cell)+"</td>")
			}
		}
	}
	lines := strings.Split(prose, "\n")
	if !strings.HasPrefix(lines[0], "=== ") {
		t.Fatalf("report does not open with its header line: %q", lines[0])
	}
	for _, line := range lines[1:] {
		if strings.TrimSpace(line) != "" {
			want = append(want, html.EscapeString(line))
		}
	}
	for _, w := range want {
		if !strings.Contains(page, w) {
			t.Errorf("HTML report missing %q", w)
		}
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && strings.Contains(haystack, needle)
}

func TestEmbeddedHeaders(t *testing.T) {
	s := New(dataset(t)).ReportData(10).EmbeddedHdr
	t.Logf("embedded headers: docs=%d disable=%.1f%% self=%.1f%% all=%.1f%% powerful=%.1f%%",
		s.Documents, s.DisablePct, s.SelfPct, s.AllPct, s.PowerfulDirectivePct)
	if s.Documents == 0 {
		t.Fatal("embedded documents serve headers (ad/video widgets)")
	}
	// §4.3.2: the most prevalent embedded directives are UA Client-Hints
	// features, and the '*' share is far higher than at top level.
	if len(s.TopFeatures) == 0 {
		t.Fatal("no embedded features")
	}
	foundCH := false
	for _, f := range s.TopFeatures[:min(4, len(s.TopFeatures))] {
		if strings.HasPrefix(f.Site, "ch-ua") {
			foundCH = true
		}
	}
	if !foundCH {
		t.Errorf("UA-CH features must top the embedded ranking: %+v", s.TopFeatures[:min(4, len(s.TopFeatures))])
	}
	if s.AllPct < 20 {
		t.Errorf("embedded '*' share %.1f%% too low (paper 30.73%%)", s.AllPct)
	}
	// Powerful directives are a much smaller share embedded than the
	// top-level header content (paper 26.30%% vs 56.29%%).
	if s.PowerfulDirectivePct > 50 {
		t.Errorf("embedded powerful-directive share %.1f%% implausibly high", s.PowerfulDirectivePct)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

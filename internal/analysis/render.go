package analysis

import (
	"fmt"
	"sort"
	"strings"

	"permodyssey/internal/policy"
	"permodyssey/internal/store"
)

// Table is a renderable text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f%%", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }

// Block is one section of the report: a table followed by its prose, or
// prose alone. Key names the table for `permreport -table`; a block that
// command does not select has none.
type Block struct {
	Key   string // "" for a block `permreport -table` does not select
	Table *Table // nil for prose alone
	Prose string // the lines after the table, each newline-terminated
}

// Blocks lays the report out once, in paper order. The text report, the
// HTML page and `permreport -table` all render these blocks.
func (rd ReportData) Blocks() []Block {
	table := func(key string, t Table, prose string) Block { return Block{Key: key, Table: &t, Prose: prose} }
	blocks := []Block{table("failures", failureTable(rd.Failures), "")}
	if rd.Retries.RetriedSites > 0 {
		blocks = append(blocks, table("", retryTable(rd.Retries), ""))
	}

	fs, usum, cstats, hstats, emb := rd.Frames, rd.Usage, rd.Checks, rd.HeaderStats, rd.EmbeddedHdr
	var features, tiers, purposes strings.Builder
	// The §4.3.2 line names five features, however many topN keeps.
	for _, f := range emb.TopFeatures[:min(5, len(emb.TopFeatures))] {
		fmt.Fprintf(&features, " %s(%d)", f.Site, f.Count)
	}
	for i, tier := range rd.Prevalence {
		if i > 0 {
			tiers.WriteString(", ")
		}
		fmt.Fprintf(&tiers, "%d sites in ≥%d websites", tier.Sites, tier.MinWebsites)
	}
	for _, row := range rd.Purposes {
		fmt.Fprintf(&purposes, "  %-28s %3d embed sites on %4d websites\n", row.Purpose, row.Embeds, row.Websites)
	}
	return append(blocks,
		Block{Prose: fmt.Sprintf("Frames: %d total (%d top-level, %d embedded: %.1f%% local / %.1f%% external)\nWebsites with iframes: %d (avg %.1f direct iframes)\n",
			fs.TotalFrames, fs.TopLevelFrames, fs.EmbeddedFrames,
			pct(fs.LocalEmbedded, fs.EmbeddedFrames), pct(fs.ExternalEmbedded, fs.EmbeddedFrames),
			fs.WebsitesWithFrame, fs.AvgIframesPerSite)},
		table("3", siteTable("Table 3: Top External Embedded Documents Site", "# Websites including", rd.Table3, rd.Table3Total), ""),
		table("4", table4(rd.Table4, rd.Table4Total), fmt.Sprintf(
			"Websites with any invocation: %d (%s); top-level %s; embedded %s; deprecated Feature-Policy API reliance: %d websites\n",
			usum.WithAnyInvocation, f2(pct(usum.WithAnyInvocation, usum.Websites)),
			f2(pct(usum.WithTopLevelActivity, usum.Websites)), f2(pct(usum.WithEmbeddedActivity, usum.Websites)),
			usum.DeprecatedAPIWebsites)),
		table("5", checkTable("Table 5: Top Permission's Status Checked", "% Checked From Embedded", rd.Table5, rd.Table5Total), fmt.Sprintf(
			"Status-check websites: %d (top %d / embedded %d); mean %.2f specific permissions checked (max %d)\n",
			cstats.Websites, cstats.AtTopLevel, cstats.InEmbedded, cstats.MeanPerTop, cstats.MaxPerTop)),
		table("6", checkTable("Table 6: Top Statically Detected Permissions", "% Functionality in Embedded", rd.Table6, rd.Table6Total), fmt.Sprintf("Static functionality on %d websites (%s)\n",
			rd.Static.Websites, f2(pct(rd.Static.Websites, rd.Websites)))),
		Block{Prose: fmt.Sprintf("Hybrid headline (§4.1.4): %d/%d websites (%s) show any permission-related functionality\n",
			rd.Hybrid.AnyActivity, rd.Hybrid.Websites, f2(pct(rd.Hybrid.AnyActivity, rd.Hybrid.Websites)))},
		Block{Prose: fmt.Sprintf("Delegation (§4.2): any %s; external %s; third-party %d websites\n",
			f2(pct(rd.Delegation.AnyDelegation, rd.Delegation.Websites)),
			f2(pct(rd.Delegation.ExternalDelegation, rd.Delegation.Websites)), rd.Delegation.ThirdPartyDelegation)},
		table("7", siteTable("Table 7: Top External Embedded Documents with Delegated Permissions", "# Top-Level Websites", rd.Table7, rd.Table7Total), ""),
		table("8", table8(rd.Table8, rd.Table8Total), ""),
		table("directives", directivesTable(rd.Directives), ""),
		table("fig2", figure2(rd.Adoption), ""),
		table("9", table9(rd.Table9, rd.Table9Total), fmt.Sprintf(
			"Header content: %d websites declare it, %d parse; avg %.2f permissions (max %d); disable %s / self %s / * %s; powerful tight %s\n",
			hstats.HeaderWebsites, hstats.ParsedWebsites, hstats.AvgPermissions, hstats.MaxPermissions,
			f2(hstats.DisablePct), f2(hstats.SelfPct), f2(hstats.AllPct), f2(hstats.PowerfulDisableOrSelfPct))),
		Block{Prose: fmt.Sprintf("Embedded-document headers (§4.3.2): %d docs; directives disable %s / self %s / * %s; powerful %s; top features:%s\n",
			emb.Documents, f2(emb.DisablePct), f2(emb.SelfPct), f2(emb.AllPct), f2(emb.PowerfulDirectivePct), features.String())},
		Block{Prose: fmt.Sprintf("Misconfigurations (§4.3.3): %d frames with header; %d syntax-invalid (top %d / embedded %d); semantic: %d websites top-level, %d embedded\n",
			rd.Misconfig.FramesWithHeader, rd.Misconfig.SyntaxErrorFrames, rd.Misconfig.SyntaxErrorTopLevel,
			rd.Misconfig.SyntaxErrorEmbedded, rd.Misconfig.SemanticMisconfigWebsites, rd.Misconfig.SemanticMisconfigEmbedded)},
		// Table 10's notes sit one blank line below it.
		table("10", table10(rd.Table10, rd.Table10Total), fmt.Sprintf(
			"\nNested delegation (extension beyond §4.2's depth-1 scope): %d deep frames, %d delegated; %d websites carry ≥2-hop chains (%d hops of powerful permissions)\nDelegated-embed prevalence (§4.2): %s\nReport-only mode: %d documents serve Permissions-Policy-Report-Only (%d also enforce; %d distinct endpoints)\n",
			rd.Nested.DeepFrames, rd.Nested.DeepDelegated, rd.Nested.WebsitesWithChains, rd.Nested.PowerfulChains,
			tiers.String(), rd.ReportOnlyH.WithReportOnly, rd.ReportOnlyH.AlsoEnforcing, rd.ReportOnlyH.EndpointsSeen)),
		Block{Prose: "Delegation purposes (§4.2.1 grouping)\n" + purposes.String()},
		Block{Prose: fmt.Sprintf("Local-scheme bypass exposure (§6.2): %d websites restrict a powerful permission to self; %d of them would let an injected data: iframe load (no frame-governing CSP)\n",
			rd.Exposure.SelfOnlyPowerful, rd.Exposure.Exposed)},
	)
}

// Lookup returns the table `permreport -table key` prints: key 3 to 10,
// 13 (Table 10's alias), fig2, failures or directives.
func (rd ReportData) Lookup(key string) (Table, bool) {
	if key == "13" {
		key = "10"
	}
	for _, b := range rd.Blocks() {
		if key != "" && b.Key == key {
			return *b.Table, true
		}
	}
	return Table{}, false
}

// FullReport renders every block of the evaluation in paper order.
func (a *Analysis) FullReport() string {
	rd := a.ReportData(10)
	var b strings.Builder
	fmt.Fprintf(&b, "=== Permissions Odyssey — measurement report over %d/%d sites ===\n", rd.Websites, rd.TotalRecords)
	for _, blk := range rd.Blocks() {
		b.WriteByte('\n')
		if blk.Table != nil {
			b.WriteString(blk.Table.String())
		}
		b.WriteString(blk.Prose)
	}
	return b.String()
}

// withTotal lists a ranking's rows, then its Total row, leaving the
// ranking's backing array alone.
func withTotal[T any](rows []T, total T) []T { return append(rows[:len(rows):len(rows)], total) }

// siteTable renders a ranking of embedded document sites (Tables 3, 7).
func siteTable(title, counted string, rows []SiteCount, total int) Table {
	t := Table{Title: title, Headers: []string{"Embedded Document Site", counted}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Site, d(r.Count)})
	}
	t.Rows = append(t.Rows, []string{"Total (any site)", d(total)})
	return t
}

// table4 renders the dynamic invocation ranking.
func table4(rows []UsageRow, total UsageRow) Table {
	t := Table{
		Title:   "Table 4: Top Permissions Used Across Top-Level and Embedded Contexts",
		Headers: []string{"Permission", "Top-Level (1P/3P)", "Embedded (1P/3P)", "Total Contexts"},
	}
	for _, r := range withTotal(rows, total) {
		t.Rows = append(t.Rows, []string{
			r.Name,
			fmt.Sprintf("%d (%s/%s)", r.TopContexts, f2(r.Top1PPct), f2(r.Top3PPct)),
			fmt.Sprintf("%d (%s/%s)", r.EmbContexts, f2(r.Emb1PPct), f2(r.Emb3PPct)),
			d(r.TotalContexts),
		})
	}
	return t
}

// checkTable renders the status-check (Table 5) or static-detection
// (Table 6) ranking.
func checkTable(title, embedded string, rows []CheckRow, total CheckRow) Table {
	t := Table{Title: title, Headers: []string{"Permission", embedded, "# Top-Level Websites"}}
	for _, r := range withTotal(rows, total) {
		t.Rows = append(t.Rows, []string{r.Name, f2(r.EmbeddedPct), d(r.Websites)})
	}
	return t
}

// table8 renders the delegated-permission ranking.
func table8(rows []DelegatedPermissionRow, total DelegatedPermissionRow) Table {
	t := Table{
		Title:   "Table 8: Top Delegated Permissions to External Embedded Documents",
		Headers: []string{"Permission", "Delegations", "# Top-Level Websites"},
	}
	for _, r := range withTotal(rows, total) {
		t.Rows = append(t.Rows, []string{r.Name, d(r.Delegations), d(r.Websites)})
	}
	return t
}

var breadthOrder = []policy.Breadth{
	policy.BreadthDisable, policy.BreadthSelf, policy.BreadthSameOrigin,
	policy.BreadthSameSite, policy.BreadthThirdParty, policy.BreadthAll,
}

// table9 renders header-directive breadths: a permission's row shares
// its websites, the Total row shares all directives.
func table9(rows []DirectiveBreadthRow, total DirectiveBreadthRow) Table {
	headers := []string{"Permission"}
	for _, b := range breadthOrder {
		headers = append(headers, b.String())
	}
	headers = append(headers, "# Websites")
	t := Table{Title: "Table 9: Permissions-Policy header least restrictive directives (top-level)", Headers: headers}
	row := func(r DirectiveBreadthRow, whole int) []string {
		cells := []string{r.Name}
		for _, b := range breadthOrder {
			c := r.Counts[b]
			cells = append(cells, fmt.Sprintf("%d (%s)", c, f2(pct(c, whole))))
		}
		return append(cells, d(r.Websites))
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, row(r, r.Websites))
	}
	sumDirectives := 0
	for _, b := range breadthOrder {
		sumDirectives += total.Counts[b]
	}
	t.Rows = append(t.Rows, row(total, sumDirectives))
	return t
}

// figure2 renders adoption shares as a text "figure".
func figure2(s AdoptionStats) Table {
	return Table{
		Title:   "Figure 2: Permission Control headers adoption",
		Headers: []string{"Metric", "Value"},
		Rows: [][]string{
			{"Documents analyzed (non-local)", d(s.Documents)},
			{"Permissions-Policy documents", fmt.Sprintf("%d (%s)", s.PPDocuments, f2(s.PPDocumentsPct))},
			{"Feature-Policy documents", fmt.Sprintf("%d (%s)", s.FPDocuments, f2(s.FPDocumentsPct))},
			{"Both headers", d(s.BothDocuments)},
			{"Permissions-Policy top-level", fmt.Sprintf("%d (%s of top-level)", s.PPTopLevel, f2(s.PPTopLevelPct))},
			{"Permissions-Policy embedded", fmt.Sprintf("%d (%s of embedded)", s.PPEmbedded, f2(s.PPEmbeddedPct))},
		},
	}
}

// table10 renders the over-permission ranking.
func table10(rows []OverPermissionRow, total int) Table {
	t := Table{
		Title:   "Table 10/13: Embedded Documents with Potentially Unused Delegated Permissions",
		Headers: []string{"Embedded Iframe", "Potentially Unused Permissions", "# Affected Websites"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Site, strings.Join(r.UnusedPermissions, ", "), d(r.AffectedWebsites)})
	}
	t.Rows = append(t.Rows, []string{"Total (any iframe)", "", d(total)})
	return t
}

// failureTable renders the crawl-failure taxonomy.
func failureTable(counts map[store.FailureClass]int) Table {
	t := Table{
		Title:   "Crawl outcome taxonomy (§4)",
		Headers: []string{"Outcome", "Sites"},
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Rows = append(t.Rows, []string{k, d(counts[store.FailureClass(k)])})
	}
	return t
}

// directivesTable renders §4.2.2's delegation-directive split.
func directivesTable(s DirectiveShares) Table {
	return Table{
		Title:   "Delegation directives (§4.2.2)",
		Headers: []string{"Directive form", "Share"},
		Rows: [][]string{
			{"default (src)", f2(s.DefaultSrc)},
			{"* wildcard", f2(s.Wildcard)},
			{"explicit 'src'", f2(s.ExplicitSrc)},
			{"'none'", fmt.Sprintf("%s (%d instances)", f2(s.None), s.NoneCount)},
			{"single origin", f2(s.SingleOrig)},
			{"'self'", f2(s.Self)},
			{"total directives", d(s.Total)},
		},
	}
}

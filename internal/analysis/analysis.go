// Package analysis computes every result of the paper's evaluation from
// a crawl dataset: permission usage (Tables 4-6), embedding and
// delegation (Tables 3, 7, 8, §4.2.2), header adoption and content
// (Figure 2, Table 9, §4.3.3 misconfigurations), over-permissioned
// widgets (Tables 10/13), the crawl-failure taxonomy, and the summary
// rates of §4.1.4. All counting follows the paper's rules: first
// occurrence per permission per execution context, website-level
// aggregation over top-level sites, and local-scheme documents excluded
// from header statistics.
package analysis

import (
	"sort"

	"permodyssey/internal/browser"
	"permodyssey/internal/origin"
	"permodyssey/internal/store"
	"permodyssey/internal/webapi"
)

// Analysis wraps a dataset with the accessors the table builders share.
type Analysis struct {
	ds   *store.Dataset
	recs []store.SiteRecord // successful only
}

// New prepares an analysis over the dataset's successful records.
func New(ds *store.Dataset) *Analysis {
	return &Analysis{ds: ds, recs: ds.Successful()}
}

// Websites returns the number of successfully measured websites.
func (a *Analysis) Websites() int { return len(a.recs) }

// TotalRecords returns the number of attempted sites.
func (a *Analysis) TotalRecords() int { return len(a.ds.Records) }

// pct is a safe percentage.
func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// scriptParty classifies an invocation's script against its frame:
// first-party when the script site equals the frame's site, or when the
// script is inline / unattributable (the paper's rule, §4.1.1).
func scriptParty(scriptURL, frameSite string) (firstParty bool) {
	if scriptURL == "" {
		return true
	}
	s := origin.SiteOfURL(scriptURL)
	if s == "" {
		return true
	}
	return s == frameSite
}

// frameRef identifies one execution context in the dataset.
type frameRef struct {
	rec   *store.SiteRecord
	frame *browser.FrameResult
}

// frames iterates every frame of every successful record.
func (a *Analysis) frames() []frameRef {
	var out []frameRef
	for i := range a.recs {
		rec := &a.recs[i]
		for j := range rec.Page.Frames {
			out = append(out, frameRef{rec: rec, frame: &rec.Page.Frames[j]})
		}
	}
	return out
}

// SiteCount is a (site, websites) pair for ranking tables.
type SiteCount struct {
	Site  string
	Count int
}

// rank is the one order of every ranked list: by key's count, largest
// first, then by key's name, keeping the first n rows (all when n <= 0).
func rank[T any](rows []T, key func(T) (name string, count int), n int) []T {
	sort.Slice(rows, func(i, j int) bool {
		ni, ci := key(rows[i])
		nj, cj := key(rows[j])
		if ci != cj {
			return ci > cj
		}
		return ni < nj
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// topCounts turns a map into a ranking.
func topCounts(m map[string]int, n int) []SiteCount {
	out := make([]SiteCount, 0, len(m))
	for k, v := range m {
		out = append(out, SiteCount{Site: k, Count: v})
	}
	return rank(out, func(r SiteCount) (string, int) { return r.Site, r.Count }, n)
}

// FrameStats reports the frame census of §4: totals, top-level vs
// embedded, local vs external embedded, and iframe prevalence.
type FrameStats struct {
	Websites          int
	TotalFrames       int
	TopLevelFrames    int
	EmbeddedFrames    int
	LocalEmbedded     int
	ExternalEmbedded  int
	WebsitesWithFrame int
	AvgIframesPerSite float64 // among sites that have iframes
}

// Frames computes the census.
func (a *Analysis) Frames() FrameStats {
	var fs FrameStats
	fs.Websites = len(a.recs)
	totalIframes := 0
	for _, rec := range a.recs {
		fs.TotalFrames += len(rec.Page.Frames)
		fs.TopLevelFrames++
		emb := rec.Page.EmbeddedFrames()
		if len(emb) > 0 {
			fs.WebsitesWithFrame++
			// Count directly inserted iframes (depth 1).
			direct := 0
			for _, f := range emb {
				if f.Depth == 1 {
					direct++
				}
			}
			totalIframes += direct
		}
		for _, f := range emb {
			fs.EmbeddedFrames++
			if f.LocalScheme {
				fs.LocalEmbedded++
			} else {
				fs.ExternalEmbedded++
			}
		}
	}
	if fs.WebsitesWithFrame > 0 {
		fs.AvgIframesPerSite = float64(totalIframes) / float64(fs.WebsitesWithFrame)
	}
	return fs
}

// FailureTaxonomy tallies the crawl outcome classes of §4.
func (a *Analysis) FailureTaxonomy() map[store.FailureClass]int {
	return a.ds.FailureCounts()
}

// Table3TopEmbeds ranks external embedded document sites by the number
// of websites including them at least once (paper Table 3).
func (a *Analysis) Table3TopEmbeds(n int) (rows []SiteCount, totalAnySite int) {
	counts := map[string]int{}
	any := 0
	for _, rec := range a.recs {
		topSite := rec.Page.TopFrame().Site
		seen := map[string]bool{}
		external := false
		for _, f := range rec.Page.EmbeddedFrames() {
			if f.LocalScheme || f.Site == "" || f.Site == topSite {
				continue
			}
			external = true
			if !seen[f.Site] {
				seen[f.Site] = true
				counts[f.Site]++
			}
		}
		if external {
			any++
		}
	}
	return topCounts(counts, n), any
}

// invocationName maps a record to its Table 4/5 row names: the specific
// permissions, or the General-Permission-APIs row.
func invocationNames(inv webapi.Invocation) []string {
	if inv.AllPermissions || isGeneralAPI(inv.API) {
		return []string{generalRow}
	}
	return inv.Permissions
}

const generalRow = "General Permission APIs"

func isGeneralAPI(api string) bool {
	switch api {
	case "navigator.permissions.query",
		"document.featurePolicy.allowedFeatures",
		"document.featurePolicy.allowsFeature",
		"document.featurePolicy.features",
		"document.featurePolicy.getAllowlistForFeature",
		"document.permissionsPolicy.allowedFeatures",
		"document.permissionsPolicy.allowsFeature",
		"document.permissionsPolicy.features",
		"document.permissionsPolicy.getAllowlistForFeature":
		return true
	}
	return false
}

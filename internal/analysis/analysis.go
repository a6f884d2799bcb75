// Package analysis computes every result of the paper's evaluation from
// crawl records: permission usage (Tables 4-6), embedding and
// delegation (Tables 3, 7, 8, §4.2.2), header adoption and content
// (Figure 2, Table 9, §4.3.3 misconfigurations), over-permissioned
// widgets (Tables 10/13), the crawl-failure taxonomy, and the summary
// rates of §4.1.4. All counting follows the paper's rules: first
// occurrence per permission per execution context, website-level
// aggregation over top-level sites, and local-scheme documents excluded
// from header statistics.
//
// An Analysis is a fold: Add visits each record, and each of its
// frames, once and keeps only aggregates, so its memory grows with the
// tables — the distinct sites they count and Table 10's sets of
// delegating websites — not with the records. ReportData ranks,
// truncates and divides them.
package analysis

import (
	"sort"

	"permodyssey/internal/browser"
	"permodyssey/internal/origin"
	"permodyssey/internal/policy"
	"permodyssey/internal/static"
	"permodyssey/internal/store"
)

// Analysis holds the aggregates of every record folded so far. A
// website is an analyzable record: a table's website count is the
// number of records that touch it, each once (see tally).
type Analysis struct {
	websites, total int
	failures        map[store.FailureClass]int
	retries         map[store.FailureClass]*RetryRow

	// The census and permission usage (§4, Tables 4-6, §4.1).
	census                     FrameStats
	iframes                    int // direct iframes
	t4                         map[string]*t4cell
	t4Total                    t4cell
	invAny, invTop, invEmb     tally
	depr                       tally // deprecated Feature-Policy API use
	t5, t6                     map[string]*ctxCell
	t5Total, t6Total           ctxCell
	checkTop, checkEmb         tally
	staticEmb                  tally
	specific                   map[string]*tally // permissions checked at top level
	specificSum, specificSites int
	specificMax                int
	hybrid                     HybridSummary

	// Embedding and delegation (Tables 3, 7, 8, 10, §4.2, §5).
	t3, t7                         map[string]*tally
	t3Any, t7Any                   tally
	anyDeleg, extDeleg, thirdParty tally
	t8                             map[string]*delegCell
	t8Total                        delegCell
	directives                     map[policy.DelegationDirectiveKind]int
	purposes                       map[Purpose]*purposeCell
	widgets                        map[string]*widget
	wildcards                      map[string]*wildcard
	nested                         NestedDelegationStats
	internal                       InternalPageGain

	// Headers (Figure 2, Table 9, §4.3, §6.2).
	adoption                          AdoptionStats
	reportOnly                        ReportOnlyStats
	endpoints                         map[string]bool
	misconfig                         MisconfigStats
	semanticTop, semanticEmb          tally
	t9                                map[string]*DirectiveBreadthRow
	t9Total                           DirectiveBreadthRow
	header                            HeaderContentStats
	t9Directives                      int
	powerfulDirectives, powerfulTight int
	exposure                          LocalSchemeExposure
	embFeatures                       map[string]int
	embBreadth                        map[policy.Breadth]int
	embDocs, embDirectives            int
	embPowerful                       int
}

// New folds the dataset's records into a new analysis; a nil dataset
// starts an empty one, ready for Add.
func New(ds *store.Dataset) *Analysis {
	a := &Analysis{
		failures:    map[store.FailureClass]int{},
		retries:     map[store.FailureClass]*RetryRow{},
		t4:          map[string]*t4cell{},
		t5:          map[string]*ctxCell{},
		t6:          map[string]*ctxCell{},
		specific:    map[string]*tally{},
		t3:          map[string]*tally{},
		t7:          map[string]*tally{},
		t8:          map[string]*delegCell{},
		directives:  map[policy.DelegationDirectiveKind]int{},
		purposes:    map[Purpose]*purposeCell{},
		widgets:     map[string]*widget{},
		wildcards:   map[string]*wildcard{},
		nested:      NestedDelegationStats{ChainsByPermission: map[string]int{}},
		internal:    InternalPageGain{PermissionsGained: map[string]int{}},
		endpoints:   map[string]bool{},
		misconfig:   MisconfigStats{ByKind: map[policy.IssueKind]int{}},
		t9:          map[string]*DirectiveBreadthRow{},
		t9Total:     DirectiveBreadthRow{Name: totalName, Counts: map[policy.Breadth]int{}},
		header:      HeaderContentStats{SizeHistogram: map[int]int{}},
		embFeatures: map[string]int{},
		embBreadth:  map[policy.Breadth]int{},
	}
	if ds != nil {
		for _, rec := range ds.Records {
			a.Add(rec)
		}
	}
	return a
}

// record is one analyzable record's state while its frames are folded.
type record struct {
	n       int // the record's number, for tallies
	topSite string
	// dyn and stat: some frame invoked, or statically referenced, a
	// permission API (§4.1.4).
	dyn, stat bool
	specific  int             // distinct permissions checked at top level
	depth1    map[string]bool // permissions direct iframes are delegated
	deep      []policy.Policy // deeper frames' non-empty delegations
	landing   map[string]bool // landing-page activity, for internal pages
}

// Add folds one record: its outcome and, when it is analyzable, its
// website, each of its frames once, and its internal pages.
func (a *Analysis) Add(rec store.SiteRecord) {
	a.total++
	a.failures[rec.Outcome()]++
	if rec.Retries != 0 {
		a.addRetry(rec)
	}
	if !rec.OK() {
		return
	}
	a.websites++
	r := record{n: a.websites}
	if len(rec.InternalPages) > 0 {
		r.landing = map[string]bool{}
	}
	frames := rec.Page.Frames
	a.census.TotalFrames += len(frames)
	a.census.TopLevelFrames++
	if len(frames) > 1 {
		a.census.WebsitesWithFrame++
	}
	for i := range frames {
		f := &frames[i]
		statics := static.Permissions(f.StaticFindings)
		a.usageFrame(f, statics, &r)
		a.headerFrame(f, &r)
		if r.landing != nil {
			activity(r.landing, f, statics)
		}
		if i == 0 {
			r.topSite = f.Site
			a.topHeader(f)
		} else {
			a.embeddedFrame(f, statics, &r)
		}
	}
	a.endRecord(&r)
	if r.landing != nil {
		a.internalPages(rec.InternalPages, r.landing)
	}
}

// endRecord folds what needs all of a record's frames: the §4.1.4
// headline, the Table 5 checks per website and the nested chains.
func (a *Analysis) endRecord(r *record) {
	switch {
	case r.dyn && r.stat:
		a.hybrid.AnyActivity++
		a.hybrid.Both++
	case r.dyn:
		a.hybrid.AnyActivity++
		a.hybrid.DynamicOnly++
	case r.stat:
		a.hybrid.AnyActivity++
		a.hybrid.StaticOnly++
	}
	if r.specific > 0 {
		a.specificSum += r.specific
		a.specificSites++
		a.specificMax = max(a.specificMax, r.specific)
	}
	// A deeper frame's delegation extends a chain when a direct iframe
	// was delegated the same permission.
	chain := false
	for _, p := range r.deep {
		for _, d := range p.Directives {
			if d.Allowlist.None() || !r.depth1[d.Feature] {
				continue
			}
			a.nested.ChainsByPermission[d.Feature]++
			chain = true
			if isPowerful(d.Feature) {
				a.nested.PowerfulChains++
			}
		}
	}
	if chain {
		a.nested.WebsitesWithChains++
	}
}

// Websites returns the number of successfully measured websites.
func (a *Analysis) Websites() int { return a.websites }

// TotalRecords returns the number of attempted sites.
func (a *Analysis) TotalRecords() int { return a.total }

// tally counts the records that touch one row: a record adds one
// however many of its frames touch the row.
type tally struct{ n, last int }

// add counts record rec unless it already counted, and reports whether
// it did.
func (t *tally) add(rec int) bool {
	if t.last == rec {
		return false
	}
	t.last, t.n = rec, t.n+1
	return true
}

// cell returns m[k], adding a zero cell on first use.
func cell[K comparable, V any](m map[K]*V, k K) *V {
	c, ok := m[k]
	if !ok {
		c = new(V)
		m[k] = c
	}
	return c
}

// activity adds every permission a frame shows activity for —
// invoked, checked or statically referenced — to set.
func activity(set map[string]bool, f *browser.FrameResult, statics []string) {
	for _, inv := range f.Invocations {
		for _, p := range inv.Permissions {
			set[p] = true
		}
	}
	for _, p := range statics {
		set[p] = true
	}
}

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

// topCounts turns a count per name into a ranking.
func topCounts[V any](m map[string]V, count func(V) int, n int) []SiteCount {
	out := make([]SiteCount, 0, len(m))
	for k, v := range m {
		out = append(out, SiteCount{Site: k, Count: count(v)})
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

const totalName = "Total (any permission)"

package analysis

import (
	"strings"

	"permodyssey/internal/browser"
	"permodyssey/internal/policy"
)

// DelegationSummary carries the §4.2 headline shares.
type DelegationSummary struct {
	Websites int
	// AnyDelegation: websites delegating permissions to embedded
	// documents on the landing page (12.07% in the paper).
	AnyDelegation int
	// ExternalDelegation: delegation on external-URL iframes only
	// (10.8%).
	ExternalDelegation int
	// ThirdPartyDelegation: top-level documents loading a delegated
	// iframe from a different site (119,778 in the paper).
	ThirdPartyDelegation int
}

// DelegatedPermissionRow is one row of Table 8.
type DelegatedPermissionRow struct {
	Name        string
	Delegations int // iframe × permission pairs
	Websites    int
}

// delegCell accumulates one Table 8 row.
type delegCell struct {
	delegations int
	websites    tally
}

// DirectiveShares is the §4.2.2 distribution of how allow-attribute
// directives are expressed (82.12% default to src, 17.17% wildcard...).
type DirectiveShares struct {
	Total       int
	DefaultSrc  float64
	Wildcard    float64
	ExplicitSrc float64
	None        float64
	SingleOrig  float64
	Self        float64
	NoneCount   int
}

// PrevalenceTier is one row of the §4.2 prevalence observation ("34
// distinct sites are present in at least 100 of the most visited
// websites ... 13 sites in at least 1,000").
type PrevalenceTier struct {
	// MinWebsites is the inclusion threshold.
	MinWebsites int
	// Sites is the number of distinct embedded sites at or above it.
	Sites int
}

// prevalenceTiers are the website counts §4.2's prevalence line uses.
var prevalenceTiers = []int{1, 10, 50, 100}

// embeddedFrame folds one embedded frame into the census, the embedding
// and delegation tables, the directive shares, Table 10's widget
// evidence, the wildcard risks, the purposes and the nested chains. It
// decides once whether the frame is external — not local, with a site,
// not the top document's — and parses its allow attribute once.
// Tables 7 and 8, the §4.2 summary, the directive shares and the
// purposes count direct iframes only, per the paper's simplification.
func (a *Analysis) embeddedFrame(f *browser.FrameResult, statics []string, r *record) {
	a.census.EmbeddedFrames++
	if f.LocalScheme {
		a.census.LocalEmbedded++
	} else {
		a.census.ExternalEmbedded++
	}
	external := !f.LocalScheme && f.Site != "" && f.Site != r.topSite
	var allow policy.Policy
	if f.Element.HasAllow {
		allow, _ = policy.ParseAllowAttr(f.Element.Allow)
		for _, raw := range strings.Split(f.Element.Allow, ";") {
			feature, kind, ok := policy.ClassifyAllowDirective(raw)
			if !ok {
				continue
			}
			if f.Depth == 1 && !f.LocalScheme {
				a.directives[kind]++
			}
			if external && kind == policy.DelegationWildcard && isPowerful(feature) {
				a.wildcard(f.Site, feature, r.n)
			}
		}
	}
	if external {
		cell(a.t3, f.Site).add(r.n)
		a.t3Any.add(r.n)
		a.widgetFrame(f, allow, statics, r.n)
	}
	if f.Depth >= 2 {
		a.nested.DeepFrames++
		if !allow.Empty() {
			a.nested.DeepDelegated++
			r.deep = append(r.deep, allow)
		}
		return
	}
	if f.Depth != 1 {
		return
	}
	a.iframes++
	var delegated []string // its permissions, less 'none' opt-outs
	for _, d := range allow.Directives {
		if d.Allowlist.None() {
			continue
		}
		delegated = append(delegated, d.Feature)
		if r.depth1 == nil {
			r.depth1 = map[string]bool{}
		}
		r.depth1[d.Feature] = true
	}
	if allow.Empty() {
		return
	}
	a.anyDeleg.add(r.n)
	if !f.LocalScheme && f.Site != "" {
		a.extDeleg.add(r.n)
	}
	if !external {
		return
	}
	a.thirdParty.add(r.n)
	cell(a.t7, f.Site).add(r.n)
	a.t7Any.add(r.n)
	for _, p := range delegated {
		c := cell(a.t8, p)
		c.delegations++
		c.websites.add(r.n)
		a.t8Total.delegations++
		a.t8Total.websites.add(r.n)
	}
	if len(delegated) > 0 {
		a.purpose(ClassifyPurpose(delegated), f.Site, r.n)
	}
}

// delegationReport fills Tables 3, 7 and 8, the §4.2 summary and
// prevalence, and the §4.2.2 directive shares.
func (a *Analysis) delegationReport(rd *ReportData, n int) {
	count := func(t *tally) int { return t.n }
	rd.Table3, rd.Table3Total = topCounts(a.t3, count, n), a.t3Any.n
	rd.Table7, rd.Table7Total = topCounts(a.t7, count, n), a.t7Any.n
	rd.Delegation = DelegationSummary{
		Websites:             a.websites,
		AnyDelegation:        a.anyDeleg.n,
		ExternalDelegation:   a.extDeleg.n,
		ThirdPartyDelegation: a.thirdParty.n,
	}
	for _, th := range prevalenceTiers {
		tier := PrevalenceTier{MinWebsites: th}
		for _, t := range a.t7 {
			if t.n >= th {
				tier.Sites++
			}
		}
		rd.Prevalence = append(rd.Prevalence, tier)
	}

	rows := make([]DelegatedPermissionRow, 0, len(a.t8))
	for name, c := range a.t8 {
		rows = append(rows, DelegatedPermissionRow{Name: name, Delegations: c.delegations, Websites: c.websites.n})
	}
	rd.Table8 = rank(rows, func(r DelegatedPermissionRow) (string, int) { return r.Name, r.Websites }, n)
	rd.Table8Total = DelegatedPermissionRow{Name: totalName, Delegations: a.t8Total.delegations, Websites: a.t8Total.websites.n}

	total := 0
	for _, c := range a.directives {
		total += c
	}
	share := func(k policy.DelegationDirectiveKind) float64 { return pct(a.directives[k], total) }
	rd.Directives = DirectiveShares{
		Total:       total,
		DefaultSrc:  share(policy.DelegationDefaultSrc),
		Wildcard:    share(policy.DelegationWildcard),
		ExplicitSrc: share(policy.DelegationExplicitSrc),
		None:        share(policy.DelegationNone),
		SingleOrig:  share(policy.DelegationOrigin),
		Self:        share(policy.DelegationSelf),
		NoneCount:   a.directives[policy.DelegationNone],
	}
}

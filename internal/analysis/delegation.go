package analysis

import (
	"strings"

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

// SummaryDelegation computes §4.2's headline shares. Only directly
// inserted iframes (depth 1) count, per the paper's simplification.
func (a *Analysis) SummaryDelegation() DelegationSummary {
	s := DelegationSummary{Websites: len(a.recs)}
	for _, rec := range a.recs {
		topSite := rec.Page.TopFrame().Site
		any, external, thirdParty := false, false, false
		for _, f := range rec.Page.EmbeddedFrames() {
			if f.Depth != 1 || !f.Element.HasAllow {
				continue
			}
			p, _ := policy.ParseAllowAttr(f.Element.Allow)
			if p.Empty() {
				continue
			}
			any = true
			if !f.LocalScheme && f.Site != "" {
				external = true
				if f.Site != topSite {
					thirdParty = true
				}
			}
		}
		if any {
			s.AnyDelegation++
		}
		if external {
			s.ExternalDelegation++
		}
		if thirdParty {
			s.ThirdPartyDelegation++
		}
	}
	return s
}

// Table7DelegatedEmbeds ranks external embedded sites by websites that
// include them WITH delegated permissions (paper Table 7).
func (a *Analysis) Table7DelegatedEmbeds(n int) (rows []SiteCount, totalAnySite int) {
	counts := map[string]int{}
	any := 0
	for _, rec := range a.recs {
		topSite := rec.Page.TopFrame().Site
		seen := map[string]bool{}
		found := false
		for _, f := range rec.Page.EmbeddedFrames() {
			if f.Depth != 1 || f.LocalScheme || f.Site == "" || f.Site == topSite || !f.Element.HasAllow {
				continue
			}
			p, _ := policy.ParseAllowAttr(f.Element.Allow)
			if p.Empty() {
				continue
			}
			found = true
			if !seen[f.Site] {
				seen[f.Site] = true
				counts[f.Site]++
			}
		}
		if found {
			any++
		}
	}
	return topCounts(counts, n), any
}

// DelegatedPermissionRow is one row of Table 8.
type DelegatedPermissionRow struct {
	Name        string
	Delegations int // iframe × permission pairs
	Websites    int
}

// Table8DelegatedPermissions ranks permissions delegated to external
// embedded documents (paper Table 8).
func (a *Analysis) Table8DelegatedPermissions(n int) ([]DelegatedPermissionRow, DelegatedPermissionRow) {
	type cell struct {
		delegations int
		websites    map[int]bool
	}
	perName := map[string]*cell{}
	total := &cell{websites: map[int]bool{}}
	for _, rec := range a.recs {
		topSite := rec.Page.TopFrame().Site
		for _, f := range rec.Page.EmbeddedFrames() {
			if f.Depth != 1 || f.LocalScheme || f.Site == "" || f.Site == topSite || !f.Element.HasAllow {
				continue
			}
			p, _ := policy.ParseAllowAttr(f.Element.Allow)
			for _, d := range p.Directives {
				if d.Allowlist.None() {
					continue // 'none' opts out; it delegates nothing
				}
				c, ok := perName[d.Feature]
				if !ok {
					c = &cell{websites: map[int]bool{}}
					perName[d.Feature] = c
				}
				c.delegations++
				c.websites[rec.Rank] = true
				total.delegations++
				total.websites[rec.Rank] = true
			}
		}
	}
	rows := make([]DelegatedPermissionRow, 0, len(perName))
	for name, c := range perName {
		rows = append(rows, DelegatedPermissionRow{
			Name: name, Delegations: c.delegations, Websites: len(c.websites),
		})
	}
	rows = rank(rows, func(r DelegatedPermissionRow) (string, int) { return r.Name, r.Websites }, n)
	return rows, DelegatedPermissionRow{
		Name: "Total (any permission)", Delegations: total.delegations, Websites: len(total.websites),
	}
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

// DelegationDirectives computes the §4.2.2 distribution over every
// delegation directive on external iframes.
func (a *Analysis) DelegationDirectives() DirectiveShares {
	counts := map[policy.DelegationDirectiveKind]int{}
	total := 0
	for _, rec := range a.recs {
		for _, f := range rec.Page.EmbeddedFrames() {
			if f.Depth != 1 || f.LocalScheme || !f.Element.HasAllow {
				continue
			}
			for _, raw := range strings.Split(f.Element.Allow, ";") {
				if strings.TrimSpace(raw) == "" {
					continue
				}
				_, kind, ok := policy.ClassifyAllowDirective(raw)
				if !ok {
					continue
				}
				counts[kind]++
				total++
			}
		}
	}
	return DirectiveShares{
		Total:       total,
		DefaultSrc:  pct(counts[policy.DelegationDefaultSrc], total),
		Wildcard:    pct(counts[policy.DelegationWildcard], total),
		ExplicitSrc: pct(counts[policy.DelegationExplicitSrc], total),
		None:        pct(counts[policy.DelegationNone], total),
		SingleOrig:  pct(counts[policy.DelegationOrigin], total),
		Self:        pct(counts[policy.DelegationSelf], total),
		NoneCount:   counts[policy.DelegationNone],
	}
}

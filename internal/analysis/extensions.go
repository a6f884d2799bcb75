package analysis

import (
	"maps"

	"permodyssey/internal/browser"
	"permodyssey/internal/static"
)

// NestedDelegationStats extends the paper beyond its §4.2
// simplification ("we consider only directly inserted embedded
// documents"): it measures second-hop and deeper delegation, the chains
// §2.2.5 warns the top-level site cannot prevent.
type NestedDelegationStats struct {
	// DeepFrames are frames at depth ≥ 2.
	DeepFrames int
	// DeepDelegated of those carry an allow attribute with directives.
	DeepDelegated int
	// WebsitesWithChains have at least one ≥2-hop delegation chain where
	// the same permission flows through every hop.
	WebsitesWithChains int
	// PowerfulChains counts chains carrying a powerful permission.
	PowerfulChains int
	// ChainsByPermission counts chains per permission.
	ChainsByPermission map[string]int
}

// InternalPageGain quantifies the beyond-landing-page blind spot
// (§6.1): permissions observed on followed internal pages that the
// landing page never surfaced, statically or dynamically.
type InternalPageGain struct {
	// SitesWithInternalPages had at least one internal page visited.
	SitesWithInternalPages int
	// SitesWithNewPermissions gained ≥1 permission only visible there.
	SitesWithNewPermissions int
	// PermissionsGained counts (site, permission) pairs discovered only
	// on internal pages, by permission.
	PermissionsGained map[string]int
}

// internalPages folds a website's followed internal pages against the
// activity its landing page showed.
func (a *Analysis) internalPages(pages []browser.PageResult, landing map[string]bool) {
	g := &a.internal
	g.SitesWithInternalPages++
	seen := map[string]bool{}
	for pi := range pages {
		for fi := range pages[pi].Frames {
			f := &pages[pi].Frames[fi]
			activity(seen, f, static.Permissions(f.StaticFindings))
		}
	}
	gained := false
	for p := range seen {
		if !landing[p] {
			g.PermissionsGained[p]++
			gained = true
		}
	}
	if gained {
		g.SitesWithNewPermissions++
	}
}

// extensionReport fills the statistics beyond the paper's tables.
func (a *Analysis) extensionReport(rd *ReportData) {
	rd.Nested = a.nested
	rd.Nested.ChainsByPermission = maps.Clone(a.nested.ChainsByPermission)
	rd.InternalGain = a.internal
	rd.InternalGain.PermissionsGained = maps.Clone(a.internal.PermissionsGained)
	rd.Wildcards = a.wildcardRisks()
	rd.Purposes = a.purposeRows()
}

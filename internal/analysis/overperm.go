package analysis

import (
	"sort"
	"strings"

	"permodyssey/internal/permissions"
	"permodyssey/internal/policy"
	"permodyssey/internal/static"
)

func lookupPermission(name string) (powerful bool, ok bool) {
	p, ok := permissions.Lookup(name)
	return p.Powerful, ok
}

// OverPermissionRow is one row of Tables 10/13: an embedded document
// site holding delegated permissions it never uses.
type OverPermissionRow struct {
	Site string
	// UnusedPermissions are delegated in ≥ Threshold of the site's
	// delegated inclusions yet never exercised anywhere in the dataset.
	UnusedPermissions []string
	// AffectedWebsites delegate at least one unused permission to it.
	AffectedWebsites int
}

// OverPermissionConfig tunes the §5 detection.
type OverPermissionConfig struct {
	// Threshold is the minimum share of a widget's iframes that must
	// carry the delegation for it to count as systematic (5% in the
	// paper, chosen "to capture the most prevalent delegated permissions
	// while minimizing noise").
	Threshold float64
	// MinInclusions avoids judging widgets seen once or twice.
	MinInclusions int
}

// DefaultOverPermissionConfig mirrors the paper.
func DefaultOverPermissionConfig() OverPermissionConfig {
	return OverPermissionConfig{Threshold: 0.05, MinInclusions: 3}
}

// OverPermissioned computes Tables 10/13: the upper bound of
// potentially over-permissive embedded documents. For each embedded
// site it gathers (a) the permissions delegated in at least
// Threshold of its iframes and (b) every permission for which the
// embedded site showed any activity — invocation, status check or
// static functionality — anywhere in the dataset. Permissions in (a)
// but not (b) are potentially unused delegations.
func (a *Analysis) OverPermissioned(cfg OverPermissionConfig, n int) ([]OverPermissionRow, int) {
	type widgetStats struct {
		inclusions     int
		delegatedCount map[string]int
		usedPerms      map[string]bool
		// websitesByPerm: websites delegating each permission to it.
		websitesByPerm map[string]map[int]bool
	}
	widgets := map[string]*widgetStats{}
	get := func(site string) *widgetStats {
		w, ok := widgets[site]
		if !ok {
			w = &widgetStats{
				delegatedCount: map[string]int{},
				usedPerms:      map[string]bool{},
				websitesByPerm: map[string]map[int]bool{},
			}
			widgets[site] = w
		}
		return w
	}

	for _, rec := range a.recs {
		topSite := rec.Page.TopFrame().Site
		for fi := range rec.Page.EmbeddedFrames() {
			f := rec.Page.EmbeddedFrames()[fi]
			if f.LocalScheme || f.Site == "" || f.Site == topSite {
				continue
			}
			w := get(f.Site)
			w.inclusions++
			if f.Element.HasAllow {
				p, _ := policy.ParseAllowAttr(f.Element.Allow)
				for _, d := range p.Directives {
					if d.Allowlist.None() {
						continue // opt-outs are not delegations
					}
					w.delegatedCount[d.Feature]++
					if w.websitesByPerm[d.Feature] == nil {
						w.websitesByPerm[d.Feature] = map[int]bool{}
					}
					w.websitesByPerm[d.Feature][rec.Rank] = true
				}
			}
			// Usage evidence: any permission-related activity by the
			// embedded document.
			for _, inv := range f.Invocations {
				for _, perm := range inv.Permissions {
					w.usedPerms[perm] = true
				}
			}
			for _, perm := range static.Permissions(f.StaticFindings) {
				w.usedPerms[perm] = true
			}
		}
	}

	var rows []OverPermissionRow
	affectedTotal := map[int]bool{}
	for site, w := range widgets {
		if w.inclusions < cfg.MinInclusions {
			continue
		}
		var unused []string
		affected := map[int]bool{}
		for perm, count := range w.delegatedCount {
			if float64(count) < cfg.Threshold*float64(w.inclusions) {
				continue
			}
			if w.usedPerms[perm] {
				continue
			}
			// Only real, policy-controlled permissions are risk-relevant.
			if p, ok := permissions.Lookup(perm); !ok || !p.PolicyControlled() {
				continue
			}
			unused = append(unused, perm)
			for rank := range w.websitesByPerm[perm] {
				affected[rank] = true
				affectedTotal[rank] = true
			}
		}
		if len(unused) == 0 {
			continue
		}
		sort.Strings(unused)
		rows = append(rows, OverPermissionRow{
			Site:              site,
			UnusedPermissions: unused,
			AffectedWebsites:  len(affected),
		})
	}
	rows = rank(rows, func(r OverPermissionRow) (string, int) { return r.Site, r.AffectedWebsites }, n)
	return rows, len(affectedTotal)
}

// WildcardDelegationRisks finds widgets included with wildcard (*)
// delegations of powerful permissions — the LiveChat hijacking pattern
// of §5.2: a redirect of the embedded document would carry the
// permission along.
type WildcardRisk struct {
	Site        string
	Permissions []string
	Websites    int
}

// WildcardRisks scans for the §5.2 wildcard pattern.
func (a *Analysis) WildcardRisks() []WildcardRisk {
	type cell struct {
		perms    map[string]bool
		websites map[int]bool
	}
	m := map[string]*cell{}
	for _, rec := range a.recs {
		topSite := rec.Page.TopFrame().Site
		for _, f := range rec.Page.EmbeddedFrames() {
			if f.LocalScheme || f.Site == "" || f.Site == topSite || !f.Element.HasAllow {
				continue
			}
			for _, raw := range strings.Split(f.Element.Allow, ";") {
				feature, kind, ok := policy.ClassifyAllowDirective(raw)
				if !ok || kind != policy.DelegationWildcard {
					continue
				}
				p, known := permissions.Lookup(feature)
				if !known || !p.Powerful {
					continue
				}
				c, ok := m[f.Site]
				if !ok {
					c = &cell{perms: map[string]bool{}, websites: map[int]bool{}}
					m[f.Site] = c
				}
				c.perms[feature] = true
				c.websites[rec.Rank] = true
			}
		}
	}
	var out []WildcardRisk
	for site, c := range m {
		var perms []string
		for p := range c.perms {
			perms = append(perms, p)
		}
		sort.Strings(perms)
		out = append(out, WildcardRisk{Site: site, Permissions: perms, Websites: len(c.websites)})
	}
	return rank(out, func(r WildcardRisk) (string, int) { return r.Site, r.Websites }, 0)
}

package analysis

import (
	"sort"

	"permodyssey/internal/browser"
	"permodyssey/internal/permissions"
	"permodyssey/internal/policy"
)

func isPowerful(name string) bool {
	p, ok := permissions.Lookup(name)
	return ok && p.Powerful
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

// widget is one embedded site's Table 10 evidence.
type widget struct {
	inclusions int
	delegated  map[string]*delegation // by permission
	used       map[string]bool        // permissions it showed activity for
}

// delegation counts a widget's iframes delegated one permission. Its
// websites are kept by record number: Table 10 counts them only for
// the permissions found unused once every record is in.
type delegation struct {
	count    int
	websites map[int]bool
}

// widgetFrame folds one external frame of the widget at f.Site, on
// website record rec: an inclusion, its delegations (opt-outs are not
// delegations) and any permission activity by the document.
func (a *Analysis) widgetFrame(f *browser.FrameResult, allow policy.Policy, statics []string, rec int) {
	w := a.widgets[f.Site]
	if w == nil {
		w = &widget{delegated: map[string]*delegation{}, used: map[string]bool{}}
		a.widgets[f.Site] = w
	}
	w.inclusions++
	for _, d := range allow.Directives {
		if d.Allowlist.None() {
			continue
		}
		del := w.delegated[d.Feature]
		if del == nil {
			del = &delegation{websites: map[int]bool{}}
			w.delegated[d.Feature] = del
		}
		del.count++
		del.websites[rec] = true
	}
	activity(w.used, f, statics)
}

// OverPermissioned computes Tables 10/13: the upper bound of
// potentially over-permissive embedded documents. For each embedded
// site it gathers (a) the permissions delegated in at least
// Threshold of its iframes and (b) every permission for which the
// embedded site showed any activity — invocation, status check or
// static functionality — anywhere in the dataset. Permissions in (a)
// but not (b) are potentially unused delegations.
func (a *Analysis) OverPermissioned(cfg OverPermissionConfig, n int) ([]OverPermissionRow, int) {
	var rows []OverPermissionRow
	affectedTotal := map[int]bool{}
	for site, w := range a.widgets {
		if w.inclusions < cfg.MinInclusions {
			continue
		}
		var unused []string
		affected := map[int]bool{}
		for perm, del := range w.delegated {
			if float64(del.count) < cfg.Threshold*float64(w.inclusions) {
				continue
			}
			if w.used[perm] {
				continue
			}
			// Only real, policy-controlled permissions are risk-relevant.
			if p, ok := permissions.Lookup(perm); !ok || !p.PolicyControlled() {
				continue
			}
			unused = append(unused, perm)
			for rec := range del.websites {
				affected[rec] = true
				affectedTotal[rec] = true
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

// WildcardRisk is a widget included with wildcard (*) delegations of
// powerful permissions — the LiveChat hijacking pattern of §5.2: a
// redirect of the embedded document would carry the permission along.
type WildcardRisk struct {
	Site        string
	Permissions []string
	Websites    int
}

// wildcard accumulates one widget's WildcardRisk.
type wildcard struct {
	perms    map[string]bool
	websites tally
}

// wildcard folds one wildcard delegation of a powerful permission.
func (a *Analysis) wildcard(site, feature string, rec int) {
	c := a.wildcards[site]
	if c == nil {
		c = &wildcard{perms: map[string]bool{}}
		a.wildcards[site] = c
	}
	c.perms[feature] = true
	c.websites.add(rec)
}

// wildcardRisks ranks the §5.2 wildcard pattern by websites.
func (a *Analysis) wildcardRisks() []WildcardRisk {
	var out []WildcardRisk
	for site, c := range a.wildcards {
		perms := make([]string, 0, len(c.perms))
		for p := range c.perms {
			perms = append(perms, p)
		}
		sort.Strings(perms)
		out = append(out, WildcardRisk{Site: site, Permissions: perms, Websites: c.websites.n})
	}
	return rank(out, func(r WildcardRisk) (string, int) { return r.Site, r.Websites }, 0)
}

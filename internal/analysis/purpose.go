package analysis

import (
	"strings"

	"permodyssey/internal/browser"
	"permodyssey/internal/policy"
)

// Purpose is the §4.2.1 grouping of embedded documents by the
// permissions they are delegated: "permission delegations often exhibit
// clear grouping patterns".
type Purpose string

const (
	PurposeAds       Purpose = "Ads-Related"
	PurposeMedia     Purpose = "Social Media and Multimedia"
	PurposeSupport   Purpose = "Customer Support"
	PurposePayment   Purpose = "Payment-Related"
	PurposeSession   Purpose = "Session-Related"
	PurposeOther     Purpose = "Others"
	PurposeMixed     Purpose = "Mixed"
	PurposeUngrouped Purpose = "Ungrouped"
)

// purposeSignatures maps marker permissions to purposes, following the
// paper's own bullets.
var purposeSignatures = []struct {
	purpose Purpose
	markers []string
}{
	{PurposeAds, []string{"attribution-reporting", "join-ad-interest-group", "run-ad-auction", "browsing-topics", "interest-cohort"}},
	{PurposeSupport, []string{"display-capture"}}, // camera/mic handled below
	{PurposePayment, []string{"payment"}},
	{PurposeSession, []string{"identity-credentials-get", "otp-credentials"}},
	{PurposeMedia, []string{"autoplay", "encrypted-media", "picture-in-picture", "accelerometer", "gyroscope", "web-share", "clipboard-write", "fullscreen"}},
	{PurposeOther, []string{"cross-origin-isolated", "private-state-token-issuance", "storage-access"}},
}

// ClassifyPurpose derives the purpose of a delegation template from its
// permissions, reproducing the paper's manual grouping. Camera +
// microphone together indicate conferencing/customer-support; templates
// matching several groups (the WixApps case) are Mixed.
func ClassifyPurpose(perms []string) Purpose {
	set := map[string]bool{}
	for _, p := range perms {
		set[strings.ToLower(p)] = true
	}
	var hits []Purpose
	seen := map[Purpose]bool{}
	add := func(p Purpose) {
		if !seen[p] {
			seen[p] = true
			hits = append(hits, p)
		}
	}
	if set["camera"] && set["microphone"] {
		add(PurposeSupport)
	}
	for _, sig := range purposeSignatures {
		for _, m := range sig.markers {
			if set[m] {
				add(sig.purpose)
				break
			}
		}
	}
	switch len(hits) {
	case 0:
		return PurposeUngrouped
	case 1:
		return hits[0]
	case 2:
		// Media markers ride along with most templates (fullscreen,
		// clipboard-write); a single extra specific group dominates.
		if hits[0] == PurposeMedia {
			return hits[1]
		}
		if hits[1] == PurposeMedia {
			return hits[0]
		}
		return PurposeMixed
	default:
		return PurposeMixed
	}
}

// PurposeRow aggregates delegated embeds of one purpose.
type PurposeRow struct {
	Purpose  Purpose
	Embeds   int // distinct embedded sites
	Websites int // websites delegating to them
}

// DelegationsByPurpose groups delegated external embeds by the §4.2.1
// purpose taxonomy.
func (a *Analysis) DelegationsByPurpose() []PurposeRow {
	type cell struct {
		embeds   map[string]bool
		websites map[int]bool
	}
	byPurpose := map[Purpose]*cell{}
	for _, rec := range a.recs {
		topSite := rec.Page.TopFrame().Site
		for _, f := range rec.Page.EmbeddedFrames() {
			if f.Depth != 1 || f.LocalScheme || f.Site == "" || f.Site == topSite || !f.Element.HasAllow {
				continue
			}
			p, _ := policy.ParseAllowAttr(f.Element.Allow)
			var perms []string
			for _, d := range p.Directives {
				if !d.Allowlist.None() {
					perms = append(perms, d.Feature)
				}
			}
			if len(perms) == 0 {
				continue
			}
			purpose := ClassifyPurpose(perms)
			c, ok := byPurpose[purpose]
			if !ok {
				c = &cell{embeds: map[string]bool{}, websites: map[int]bool{}}
				byPurpose[purpose] = c
			}
			c.embeds[f.Site] = true
			c.websites[rec.Rank] = true
		}
	}
	out := make([]PurposeRow, 0, len(byPurpose))
	for p, c := range byPurpose {
		out = append(out, PurposeRow{Purpose: p, Embeds: len(c.embeds), Websites: len(c.websites)})
	}
	return rank(out, func(r PurposeRow) (string, int) { return string(r.Purpose), r.Websites }, 0)
}

// LocalSchemeExposure estimates how many measured websites satisfy the
// §6.2 exploitability preconditions for the local-scheme bypass: a
// valid top-level header restricting a powerful permission to self
// (the "second most common" configuration), combined with a CSP that
// does not govern frames (or no CSP at all) — so an HTML injection
// could introduce the local-scheme intermediary.
type LocalSchemeExposure struct {
	// SelfOnlyPowerful: websites whose header grants some powerful
	// permission exactly 'self'.
	SelfOnlyPowerful int
	// Exposed of those lack a frame-governing CSP directive.
	Exposed int
}

// SpecIssueExposure computes the §6.2 exposure estimate.
func (a *Analysis) SpecIssueExposure() LocalSchemeExposure {
	var s LocalSchemeExposure
	for _, rec := range a.recs {
		top := rec.Page.TopFrame()
		if !top.HasPermissionsPolicy || !top.HeaderValid {
			continue
		}
		p, _, err := policy.ParsePermissionsPolicy(top.PermissionsPolicyRaw)
		if err != nil {
			continue
		}
		selfPowerful := false
		for _, d := range p.Directives {
			if !isPowerful(d.Feature) {
				continue
			}
			if d.Allowlist.Self && !d.Allowlist.All && len(d.Allowlist.Origins) == 0 {
				selfPowerful = true
				break
			}
		}
		if !selfPowerful {
			continue
		}
		s.SelfOnlyPowerful++
		// Exposed when the CSP would let an injected data: iframe load
		// (no governing directive, or one not admitting data:).
		if browser.ParseCSP(top.CSPRaw).AllowsFrame("data:text/html,x") {
			s.Exposed++
		}
	}
	return s
}

package analysis

import "strings"

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

// purposeCell accumulates one PurposeRow.
type purposeCell struct {
	embeds   map[string]bool
	websites tally
}

// purpose folds one direct external iframe delegated for purpose.
func (a *Analysis) purpose(p Purpose, site string, rec int) {
	c := a.purposes[p]
	if c == nil {
		c = &purposeCell{embeds: map[string]bool{}}
		a.purposes[p] = c
	}
	c.embeds[site] = true
	c.websites.add(rec)
}

// purposeRows groups delegated external embeds by the §4.2.1 purpose
// taxonomy.
func (a *Analysis) purposeRows() []PurposeRow {
	out := make([]PurposeRow, 0, len(a.purposes))
	for p, c := range a.purposes {
		out = append(out, PurposeRow{Purpose: p, Embeds: len(c.embeds), Websites: c.websites.n})
	}
	return rank(out, func(r PurposeRow) (string, int) { return string(r.Purpose), r.Websites }, 0)
}

package analysis

import (
	"testing"
)

func TestClassifyPurpose(t *testing.T) {
	tests := []struct {
		perms []string
		want  Purpose
	}{
		// The paper's own grouping bullets (§4.2.1).
		{[]string{"attribution-reporting", "join-ad-interest-group", "run-ad-auction"}, PurposeAds},
		{[]string{"autoplay", "clipboard-write", "fullscreen", "encrypted-media", "picture-in-picture", "accelerometer"}, PurposeMedia},
		{[]string{"camera", "microphone", "display-capture"}, PurposeSupport},
		{[]string{"payment"}, PurposePayment},
		{[]string{"identity-credentials-get", "otp-credentials"}, PurposeSession},
		{[]string{"cross-origin-isolated", "private-state-token-issuance"}, PurposeOther},
		// The LiveChat template: support + media markers → support wins
		// over the tag-along media permissions? No: two specific groups
		// (support + media) with media demoted → support.
		{[]string{"clipboard-read", "clipboard-write", "autoplay", "microphone", "camera", "display-capture", "picture-in-picture", "fullscreen"}, PurposeSupport},
		// WixApps: media + support + geolocation + vr → Mixed (§4.2.1's
		// multi-purpose template observation).
		{[]string{"autoplay", "camera", "microphone", "geolocation", "vr", "payment"}, PurposeMixed},
		{[]string{"gamepad"}, PurposeUngrouped},
		{nil, PurposeUngrouped},
	}
	for _, tt := range tests {
		if got := ClassifyPurpose(tt.perms); got != tt.want {
			t.Errorf("ClassifyPurpose(%v) = %q; want %q", tt.perms, got, tt.want)
		}
	}
}

func TestDelegationsByPurpose(t *testing.T) {
	rows := New(dataset(t)).ReportData(10).Purposes
	if len(rows) < 3 {
		t.Fatalf("purpose rows: %+v", rows)
	}
	byPurpose := map[Purpose]PurposeRow{}
	for _, r := range rows {
		byPurpose[r.Purpose] = r
		t.Logf("%-28s embeds=%d websites=%d", r.Purpose, r.Embeds, r.Websites)
	}
	for _, p := range []Purpose{PurposeAds, PurposeMedia, PurposeSupport, PurposePayment} {
		if byPurpose[p].Websites == 0 {
			t.Errorf("purpose %q absent", p)
		}
	}
	// Media and ads dominate, as in Tables 7/8.
	if byPurpose[PurposeMedia].Websites < byPurpose[PurposePayment].Websites {
		t.Error("media delegation should exceed payment delegation")
	}
}

func TestSpecIssueExposure(t *testing.T) {
	s := New(dataset(t)).ReportData(10).Exposure
	t.Logf("exposure: %+v", s)
	if s.SelfOnlyPowerful == 0 {
		t.Fatal("self-only powerful directives exist in the population (geolocation=(self) templates)")
	}
	if s.Exposed == 0 {
		t.Error("some exposed sites lack frame-governing CSP")
	}
	if s.Exposed > s.SelfOnlyPowerful {
		t.Error("exposed ⊆ self-only-powerful")
	}
}

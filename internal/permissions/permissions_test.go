package permissions

import (
	"strings"
	"testing"
)

func TestTable2Characteristics(t *testing.T) {
	// Paper Table 2: Example of Permissions Characteristics.
	tests := []struct {
		name             string
		powerful         bool
		policyControlled bool
		def              string
	}{
		{"camera", true, true, "self"},
		{"geolocation", true, true, "self"},
		{"gamepad", false, true, "*"},
		{"notifications", true, false, "N/A"},
		{"push", true, false, "N/A"},
	}
	for _, tt := range tests {
		p, ok := Lookup(tt.name)
		if !ok {
			t.Fatalf("Lookup(%q): not registered", tt.name)
		}
		if p.Powerful != tt.powerful {
			t.Errorf("%s: Powerful = %v; want %v", tt.name, p.Powerful, tt.powerful)
		}
		if p.PolicyControlled() != tt.policyControlled {
			t.Errorf("%s: PolicyControlled = %v; want %v", tt.name, p.PolicyControlled(), tt.policyControlled)
		}
		if got := p.Default.String(); got != tt.def {
			t.Errorf("%s: Default = %q; want %q", tt.name, got, tt.def)
		}
	}
}

func TestAppendixA4Coverage(t *testing.T) {
	// Every permission listed in Appendix A.4 must be registered.
	a4 := []string{
		"accelerometer", "ambient-light-sensor", "battery", "bluetooth",
		"browsing-topics", "camera", "clipboard-read", "clipboard-write",
		"compute-pressure", "direct-sockets", "display-capture",
		"encrypted-media", "gamepad", "geolocation", "gyroscope", "hid",
		"idle-detection", "keyboard-lock", "keyboard-map", "local-fonts",
		"magnetometer", "microphone", "midi", "notifications", "payment",
		"pointer-lock", "publickey-credentials-create",
		"publickey-credentials-get", "push", "screen-wake-lock", "serial",
		"speaker-selection", "storage-access", "system-wake-lock",
		"top-level-storage-access", "usb", "web-share",
		"window-management", "xr-spatial-tracking",
	}
	for _, name := range a4 {
		if !Known(name) {
			t.Errorf("Appendix A.4 permission %q not registered", name)
		}
	}
}

func TestLookupNormalization(t *testing.T) {
	if _, ok := Lookup(" Camera "); !ok {
		t.Error("Lookup should normalize case and whitespace")
	}
	if Known("no-such-permission") {
		t.Error("unknown token must not be Known")
	}
}

func TestDisplayNames(t *testing.T) {
	tests := map[string]string{
		"browsing-topics":           "Browsing Topics",
		"publickey-credentials-get": "Public Key Credentials Get",
		"battery":                   "Battery",
		"usb":                       "USB",
		"midi":                      "MIDI",
		"keyboard-map":              "keyboard-map",
		"encrypted-media":           "Encrypted Media",
	}
	for name, want := range tests {
		p, _ := Lookup(name)
		if p.DisplayName != want {
			t.Errorf("%s: DisplayName = %q; want %q", name, p.DisplayName, want)
		}
	}
}

func TestRegistryInvariants(t *testing.T) {
	all := All()
	if len(all) < 49 {
		t.Fatalf("registry too small: %d entries", len(all))
	}
	for _, p := range all {
		if p.Name == "" || p.DisplayName == "" {
			t.Errorf("permission %+v missing names", p)
		}
		if p.Name != strings.ToLower(p.Name) {
			t.Errorf("%s: names must be lower-case tokens", p.Name)
		}
		if len(p.APIs) == 0 {
			t.Errorf("%s: no API patterns", p.Name)
		}
		if !p.PolicyControlled() && p.Default != DefaultNone {
			t.Errorf("%s: inconsistent policy-control flags", p.Name)
		}
	}
	// Policy-controlled and not are both present.
	if len(PolicyControlledNames()) == 0 || len(PolicyControlledNames()) == len(all) {
		t.Error("expected a mix of policy-controlled and uncontrolled permissions")
	}
	if len(PowerfulNames()) == 0 {
		t.Error("expected powerful permissions")
	}
}

func TestByQueryName(t *testing.T) {
	p, ok := ByQueryName("camera")
	if !ok || p.Name != "camera" {
		t.Errorf("ByQueryName(camera) = %v, %v", p, ok)
	}
	p, ok = ByQueryName("payment-handler")
	if !ok || p.Name != "payment" {
		t.Errorf("ByQueryName(payment-handler) = %v, %v", p, ok)
	}
	if _, ok := ByQueryName("nonexistent"); ok {
		t.Error("unknown query name resolved")
	}
}

func TestSupportMatrix(t *testing.T) {
	// §2.2.6: only Chromium supports the Permissions-Policy header.
	if !Headers[Chromium].PermissionsPolicy {
		t.Error("Chromium must support the Permissions-Policy header")
	}
	if Headers[Firefox].PermissionsPolicy || Headers[Safari].PermissionsPolicy {
		t.Error("Firefox/Safari must not support the Permissions-Policy header")
	}
	for _, b := range Browsers {
		if !Headers[b].AllowAttribute {
			t.Errorf("%s: all major browsers partly support the allow attribute", b)
		}
	}
	// Chromium still enforces Feature-Policy as fallback.
	if !Headers[Chromium].FeaturePolicy {
		t.Error("Chromium enforces the deprecated Feature-Policy header")
	}
	// Spot checks.
	if !SupportedIn("camera", Chromium, 127) {
		t.Error("camera supported in Chromium 127")
	}
	if SupportedIn("camera", Chromium, 10) {
		t.Error("camera not supported in Chromium 10")
	}
	if SupportedIn("browsing-topics", Firefox, 130) {
		t.Error("Topics rejected by Mozilla (§4.1.1)")
	}
	if SupportedIn("interest-cohort", Chromium, 120) {
		t.Error("FLoC removed in Chromium 115")
	}
	if !SupportedIn("interest-cohort", Chromium, 100) {
		t.Error("FLoC was supported in Chromium 100")
	}
}

func TestSupportedPermissionsMonotonicity(t *testing.T) {
	// More permissions become available with newer versions (removal of
	// FLoC is the only exception; compare pre-FLoC versions).
	older := len(SupportedPermissions(Chromium, 60))
	newer := len(SupportedPermissions(Chromium, 88))
	if newer <= older {
		t.Errorf("support surface should grow: v60=%d v88=%d", older, newer)
	}
}

func TestChangesBetween(t *testing.T) {
	changes := ChangesBetween(Chromium, 88, 90)
	foundFloc := false
	for _, c := range changes {
		if c.Permission == "interest-cohort" && c.Kind == "added" && c.Version == 89 {
			foundFloc = true
		}
		if c.Version <= 88 || c.Version > 90 {
			t.Errorf("change outside window: %v", c)
		}
	}
	if !foundFloc {
		t.Error("expected interest-cohort addition at Chromium 89")
	}
	removal := ChangesBetween(Chromium, 114, 115)
	foundRemoval := false
	for _, c := range removal {
		if c.Permission == "interest-cohort" && c.Kind == "removed" {
			foundRemoval = true
		}
	}
	if !foundRemoval {
		t.Error("expected interest-cohort removal at Chromium 115")
	}
}

func TestFingerprintSurfaceDistinguishesVersions(t *testing.T) {
	// §4.1.1: permission lists can fingerprint browsers and versions.
	a := FingerprintSurface(Chromium, 100)
	b := FingerprintSurface(Chromium, 127)
	if len(a) == len(b) {
		t.Error("Chromium 100 and 127 should expose different surfaces")
	}
	c := FingerprintSurface(Firefox, 127)
	if len(c) >= len(b) {
		t.Error("Firefox surface should be smaller than Chromium's")
	}
}

func TestGeneralAPIs(t *testing.T) {
	byExpr := map[string]GeneralAPI{}
	for _, g := range GeneralAPIs {
		byExpr[g.Expr] = g
	}
	if g, ok := byExpr["navigator.permissions.query"]; !ok || !g.StatusCheck {
		t.Error("navigator.permissions.query is a status-checking general API")
	}
	if g, ok := byExpr["document.featurePolicy.allowedFeatures"]; !ok || !g.Deprecated {
		t.Error("featurePolicy API is deprecated Feature Policy")
	}
	if _, ok := byExpr["navigator.getBattery"]; ok {
		t.Error("battery API is permission-specific, not general")
	}
	// Both deprecated and current names present (§6.2).
	var dep, cur int
	for _, g := range GeneralAPIs {
		if g.Deprecated {
			dep++
		} else {
			cur++
		}
	}
	if dep == 0 || cur == 0 {
		t.Error("need both Feature-Policy and Permissions-Policy API names")
	}
}

package policy

import (
	"strings"
	"testing"
	"testing/quick"

	"permodyssey/internal/origin"
)

func issueKinds(issues []Issue) map[IssueKind]int {
	m := map[IssueKind]int{}
	for _, i := range issues {
		m[i.Kind]++
	}
	return m
}

func TestParsePermissionsPolicyValid(t *testing.T) {
	p, issues, err := ParsePermissionsPolicy(`camera=(), geolocation=(self "https://maps.example"), fullscreen=*, payment=self`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, i := range issues {
		t.Errorf("unexpected issue: %v", i)
	}
	cam, ok := p.Get("camera")
	if !ok || !cam.None() {
		t.Errorf("camera: %+v", cam)
	}
	geo, _ := p.Get("geolocation")
	if !geo.Self || len(geo.Origins) != 1 || geo.Origins[0] != "https://maps.example" {
		t.Errorf("geolocation: %+v", geo)
	}
	fs, _ := p.Get("fullscreen")
	if !fs.All {
		t.Errorf("fullscreen: %+v", fs)
	}
	pay, _ := p.Get("payment")
	if !pay.Self {
		t.Errorf("payment=self (bare token): %+v", pay)
	}
}

func TestParsePermissionsPolicySyntaxErrorClasses(t *testing.T) {
	tests := []struct {
		value string
		kind  IssueKind
	}{
		// Feature-Policy syntax in a Permissions-Policy header: the most
		// common parse error (§4.3.3, §6.2).
		{"camera 'self'; geolocation 'none'", IssueFeaturePolicySyntax},
		{"camera 'none'", IssueFeaturePolicySyntax},
		{"geolocation https://x.com; camera *", IssueFeaturePolicySyntax},
		// Misplaced commas.
		{"camera=(),", IssueTrailingComma},
		{"camera=(), geolocation=(self),", IssueTrailingComma},
		// Other syntax garbage.
		{"camera=((a))", IssueSyntax},
		{"CAMERA=()", IssueSyntax},
	}
	for _, tt := range tests {
		_, issues, err := ParsePermissionsPolicy(tt.value)
		if err == nil {
			t.Errorf("ParsePermissionsPolicy(%q): expected error", tt.value)
			continue
		}
		if len(issues) != 1 || issues[0].Kind != tt.kind {
			t.Errorf("ParsePermissionsPolicy(%q): issues = %v; want kind %s", tt.value, issues, tt.kind)
		}
		if !HasBlockingIssue(issues) {
			t.Errorf("ParsePermissionsPolicy(%q): syntax issue must be blocking", tt.value)
		}
	}
}

func TestParsePermissionsPolicySemanticIssues(t *testing.T) {
	tests := []struct {
		value string
		kind  IssueKind
	}{
		{"camera=(none)", IssueUnrecognizedToken},
		{"camera=(0)", IssueUnrecognizedToken},
		{"camera=(https://x.com)", IssueUnquotedOrigin},
		{"camera=(self *)", IssueContradictory},
		{`camera=("https://x.com")`, IssueOriginsWithoutSelf},
		{`camera=("not a url%%%")`, IssueInvalidOrigin},
		{`camera=("data:text/html,x")`, IssueInvalidOrigin},
		{"camera=(), camera=(self)", IssueDuplicateFeature},
		{"made-up-thing=()", IssueUnknownFeature},
	}
	for _, tt := range tests {
		_, issues, err := ParsePermissionsPolicy(tt.value)
		if err != nil {
			t.Errorf("ParsePermissionsPolicy(%q): unexpected hard error %v", tt.value, err)
			continue
		}
		if issueKinds(issues)[tt.kind] == 0 {
			t.Errorf("ParsePermissionsPolicy(%q): issues %v missing kind %s", tt.value, issues, tt.kind)
		}
		if HasBlockingIssue(issues) {
			t.Errorf("ParsePermissionsPolicy(%q): semantic issues must not block", tt.value)
		}
	}
}

func TestParsePermissionsPolicyDuplicateLastWins(t *testing.T) {
	p, _, err := ParsePermissionsPolicy("camera=(self), camera=()")
	if err != nil {
		t.Fatal(err)
	}
	cam, _ := p.Get("camera")
	if !cam.None() {
		t.Errorf("last duplicate must win: %+v", cam)
	}
	if len(p.Directives) != 1 {
		t.Errorf("duplicates must collapse to one directive: %d", len(p.Directives))
	}
}

func TestParseFeaturePolicy(t *testing.T) {
	p, issues := ParseFeaturePolicy("camera 'self' https://trusted.com; geolocation 'none'; fullscreen *")
	if len(issues) != 0 {
		t.Errorf("unexpected issues: %v", issues)
	}
	cam, _ := p.Get("camera")
	if !cam.Self || len(cam.Origins) != 1 {
		t.Errorf("camera: %+v", cam)
	}
	geo, _ := p.Get("geolocation")
	if !geo.None() {
		t.Errorf("geolocation 'none': %+v", geo)
	}
	fs, _ := p.Get("fullscreen")
	if !fs.All {
		t.Errorf("fullscreen *: %+v", fs)
	}
}

func TestParseAllowAttr(t *testing.T) {
	// The LiveChat template from §5.2.
	p, issues := ParseAllowAttr("clipboard-read; clipboard-write; autoplay; microphone *; camera *; display-capture *; picture-in-picture *; fullscreen *;")
	if len(issues) != 0 {
		t.Errorf("unexpected issues: %v", issues)
	}
	if len(p.Directives) != 8 {
		t.Fatalf("expected 8 directives, got %d", len(p.Directives))
	}
	cr, _ := p.Get("clipboard-read")
	if !cr.Src || cr.All {
		t.Errorf("bare directive must default to 'src': %+v", cr)
	}
	mic, _ := p.Get("microphone")
	if !mic.All {
		t.Errorf("microphone *: %+v", mic)
	}
}

func TestParseAllowAttrEdgeCases(t *testing.T) {
	p, _ := ParseAllowAttr("gamepad 'none'")
	gp, ok := p.Get("gamepad")
	if !ok || !gp.None() {
		t.Errorf("gamepad 'none': %+v", gp)
	}
	p, _ = ParseAllowAttr("camera 'src'")
	cam, _ := p.Get("camera")
	if !cam.Src {
		t.Errorf("explicit 'src': %+v", cam)
	}
	p, _ = ParseAllowAttr("geolocation 'self' https://maps.example")
	geo, _ := p.Get("geolocation")
	if !geo.Self || len(geo.Origins) != 1 {
		t.Errorf("mixed entries: %+v", geo)
	}
	// Duplicates merge, with an issue.
	p, issues := ParseAllowAttr("camera; camera *")
	cam, _ = p.Get("camera")
	if !cam.All || !cam.Src {
		t.Errorf("merged duplicate: %+v", cam)
	}
	if issueKinds(issues)[IssueDuplicateFeature] == 0 {
		t.Errorf("expected duplicate-feature issue: %v", issues)
	}
	// 'none' combined with entries: none wins, contradictory flagged.
	p, issues = ParseAllowAttr("camera 'none' *")
	cam, _ = p.Get("camera")
	if !cam.None() {
		t.Errorf("'none' must win: %+v", cam)
	}
	if issueKinds(issues)[IssueContradictory] == 0 {
		t.Errorf("expected contradictory issue: %v", issues)
	}
	// Garbage feature tokens are skipped, not fatal.
	p, issues = ParseAllowAttr("c@mera; microphone")
	if _, ok := p.Get("microphone"); !ok {
		t.Error("valid directive after invalid one must survive")
	}
	if len(p.Directives) != 1 {
		t.Errorf("invalid directive must be dropped: %+v", p.Directives)
	}
	if issueKinds(issues)[IssueSyntax] == 0 {
		t.Errorf("expected syntax issue for bad token: %v", issues)
	}
}

func TestClassifyAllowDirective(t *testing.T) {
	tests := []struct {
		raw     string
		feature string
		kind    DelegationDirectiveKind
	}{
		{"camera", "camera", DelegationDefaultSrc},
		{"camera *", "camera", DelegationWildcard},
		{"camera 'src'", "camera", DelegationExplicitSrc},
		{"camera 'none'", "camera", DelegationNone},
		{"camera 'self'", "camera", DelegationSelf},
		{"camera https://x.com", "camera", DelegationOrigin},
	}
	for _, tt := range tests {
		f, k, ok := ClassifyAllowDirective(tt.raw)
		if !ok || f != tt.feature || k != tt.kind {
			t.Errorf("ClassifyAllowDirective(%q) = %q, %q, %v; want %q, %q",
				tt.raw, f, k, ok, tt.feature, tt.kind)
		}
	}
	if _, _, ok := ClassifyAllowDirective("   "); ok {
		t.Error("empty directive must not classify")
	}
}

func TestAllowlistMatches(t *testing.T) {
	self := origin.MustParse("https://example.org")
	src := origin.MustParse("https://widget.example")
	other := origin.MustParse("https://other.example")
	tests := []struct {
		al   Allowlist
		o    origin.Origin
		want bool
	}{
		{Allowlist{All: true}, other, true},
		{Allowlist{Self: true}, self, true},
		{Allowlist{Self: true}, other, false},
		{Allowlist{Src: true}, src, true},
		{Allowlist{Src: true}, other, false},
		{Allowlist{Origins: []string{"https://other.example"}}, other, true},
		{Allowlist{Origins: []string{"https://other.example:8443"}}, other, false},
		{Allowlist{Origins: []string{"%%%bad%%%"}}, other, false},
		{Allowlist{}, self, false},
	}
	for i, tt := range tests {
		if got := tt.al.Matches(tt.o, self, src); got != tt.want {
			t.Errorf("case %d: Matches(%v) = %v; want %v", i, tt.o, got, tt.want)
		}
	}
}

func TestBreadthFor(t *testing.T) {
	self := origin.MustParse("https://www.example.org")
	tests := []struct {
		al   Allowlist
		want Breadth
	}{
		{Allowlist{}, BreadthDisable},
		{Allowlist{Self: true}, BreadthSelf},
		{Allowlist{Self: true, Origins: []string{"https://www.example.org"}}, BreadthSameOrigin},
		{Allowlist{Origins: []string{"https://api.example.org"}}, BreadthSameSite},
		{Allowlist{Self: true, Origins: []string{"https://ads.example"}}, BreadthThirdParty},
		{Allowlist{All: true}, BreadthAll},
		{Allowlist{All: true, Self: true}, BreadthAll},
	}
	for i, tt := range tests {
		if got := tt.al.BreadthFor(self); got != tt.want {
			t.Errorf("case %d: BreadthFor = %v; want %v", i, got, tt.want)
		}
	}
	// Breadth ordering is what Table 9 sorts by.
	if !(BreadthDisable < BreadthSelf && BreadthSelf < BreadthSameOrigin &&
		BreadthSameOrigin < BreadthSameSite && BreadthSameSite < BreadthThirdParty &&
		BreadthThirdParty < BreadthAll) {
		t.Error("breadth ordering broken")
	}
}

func TestSerializationRoundTrips(t *testing.T) {
	values := []string{
		"camera=()",
		"camera=(self)",
		`geolocation=(self "https://maps.example")`,
		"fullscreen=*",
		`camera=(), geolocation=(self "https://a.example" "https://b.example"), payment=(self)`,
	}
	for _, v := range values {
		p, issues, err := ParsePermissionsPolicy(v)
		if err != nil {
			t.Fatalf("parse %q: %v", v, err)
		}
		if len(issues) > 0 {
			t.Fatalf("parse %q: issues %v", v, issues)
		}
		out := p.HeaderValue()
		p2, _, err := ParsePermissionsPolicy(out)
		if err != nil {
			t.Fatalf("re-parse %q: %v", out, err)
		}
		if p2.HeaderValue() != out {
			t.Errorf("round trip unstable: %q -> %q", out, p2.HeaderValue())
		}
	}
}

func TestAllowAttrSerializationRoundTrip(t *testing.T) {
	p, _ := ParseAllowAttr("camera; microphone *; geolocation 'self' https://maps.example; gamepad 'none'")
	out := p.AllowAttrValue()
	p2, issues := ParseAllowAttr(out)
	if len(issues) > 0 {
		t.Fatalf("re-parse issues: %v", issues)
	}
	for _, f := range []string{"camera", "microphone", "geolocation", "gamepad"} {
		a1, ok1 := p.Get(f)
		a2, ok2 := p2.Get(f)
		if ok1 != ok2 || a1.All != a2.All || a1.Self != a2.Self || a1.Src != a2.Src ||
			len(a1.Origins) != len(a2.Origins) || a1.None() != a2.None() {
			t.Errorf("%s: %+v != %+v", f, a1, a2)
		}
	}
}

func TestFeaturePolicySerialization(t *testing.T) {
	p, _ := ParseFeaturePolicy("camera 'self'; geolocation 'none'")
	out := p.FeaturePolicyValue()
	if !strings.Contains(out, "camera 'self'") || !strings.Contains(out, "geolocation 'none'") {
		t.Errorf("FeaturePolicyValue = %q", out)
	}
}

func TestLint(t *testing.T) {
	issues := Lint("camera=*", true)
	if issueKinds(issues)[IssueUselessWildcard] == 0 {
		t.Errorf("top-level wildcard must be flagged useless: %v", issues)
	}
	issues = Lint("camera=*", false)
	if issueKinds(issues)[IssueUselessWildcard] != 0 {
		t.Errorf("embedded wildcard not flagged by this rule: %v", issues)
	}
	issues = Lint("camera 'self'", true)
	if !HasBlockingIssue(issues) {
		t.Errorf("FP syntax must be blocking: %v", issues)
	}
}

// Property: parseLegacy never panics and never returns directives with
// invalid feature tokens.
func TestLegacyParseProperties(t *testing.T) {
	f := func(s string) bool {
		p, _ := ParseAllowAttr(s)
		for _, d := range p.Directives {
			if !validFeatureToken(d.Feature) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: for any parsed header, HeaderValue re-parses cleanly.
func TestHeaderValueAlwaysReparses(t *testing.T) {
	inputs := []string{
		"camera=(), microphone=(self)", "fullscreen=*, payment=(self)",
		`geolocation=(self "https://x.example")`,
		"usb=(), midi=(self), hid=*",
	}
	for _, in := range inputs {
		p, _, err := ParsePermissionsPolicy(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if _, _, err := ParsePermissionsPolicy(p.HeaderValue()); err != nil {
			t.Errorf("serialized form %q does not re-parse: %v", p.HeaderValue(), err)
		}
	}
}

func BenchmarkParseAllowAttr(b *testing.B) {
	attr := "clipboard-read; clipboard-write; autoplay; microphone *; camera *; display-capture *; picture-in-picture *; fullscreen *;"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ParseAllowAttr(attr)
	}
}

func TestBreadthTextMarshalRoundTrip(t *testing.T) {
	for b := BreadthDisable; b <= BreadthAll; b++ {
		text, err := b.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Breadth
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("unmarshal %q: %v", text, err)
		}
		if back != b {
			t.Errorf("round trip %v -> %q -> %v", b, text, back)
		}
	}
	var bad Breadth
	if err := bad.UnmarshalText([]byte("nope")); err == nil {
		t.Error("unknown breadth name must fail")
	}
}

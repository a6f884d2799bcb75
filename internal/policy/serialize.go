package policy

import (
	"strings"
)

// HeaderValue serializes the policy as a Permissions-Policy header value.
func (p Policy) HeaderValue() string {
	parts := make([]string, 0, len(p.Directives))
	for _, d := range p.Directives {
		al := d.Allowlist
		if al.All {
			parts = append(parts, d.Feature+"=*")
			continue
		}
		parts = append(parts, d.Feature+"="+al.String())
	}
	return strings.Join(parts, ", ")
}

// FeaturePolicyValue serializes the policy in the legacy Feature-Policy
// header syntax. Its canonical form writes an allowlist holding * as *
// alone and keeps origins in their order, so ParseFeaturePolicy reads
// the value back to an equal Policy up to that form.
func (p Policy) FeaturePolicyValue() string {
	parts := make([]string, 0, len(p.Directives))
	for _, d := range p.Directives {
		parts = append(parts, d.Feature+" "+legacyEntries(d.Allowlist))
	}
	return strings.Join(parts, "; ")
}

// AllowAttrValue serializes the policy as an iframe allow attribute.
// Directives whose allowlist is exactly 'src' are emitted bare, the
// idiomatic (and 82.12%-prevalent) form. As for FeaturePolicyValue, an
// allowlist holding * is written * alone and origins keep their order,
// so ParseAllowAttr reads the value back to an equal Policy up to that
// form.
func (p Policy) AllowAttrValue() string {
	parts := make([]string, 0, len(p.Directives))
	for _, d := range p.Directives {
		al := d.Allowlist
		if al.Src && !al.All && !al.Self && len(al.Origins) == 0 {
			parts = append(parts, d.Feature)
			continue
		}
		parts = append(parts, d.Feature+" "+legacyEntries(al))
	}
	return strings.Join(parts, "; ")
}

func legacyEntries(al Allowlist) string {
	if al.All {
		return "*"
	}
	if al.None() {
		return "'none'"
	}
	var entries []string
	if al.Self {
		entries = append(entries, "'self'")
	}
	if al.Src {
		entries = append(entries, "'src'")
	}
	entries = append(entries, al.Origins...)
	return strings.Join(entries, " ")
}

// Lint parses and lints a Permissions-Policy header value, returning
// every finding. Unlike ParsePermissionsPolicy it also reports
// advisory findings that depend on header position (top-level wildcard
// uselessness).
func Lint(value string, topLevel bool) []Issue {
	p, issues, err := ParsePermissionsPolicy(value)
	if err != nil {
		return issues
	}
	if topLevel {
		for _, d := range p.Directives {
			if d.Allowlist.All {
				issues = append(issues, Issue{Kind: IssueUselessWildcard, Feature: d.Feature,
					Detail: "the header can only restrict; granting * has no effect beyond the default"})
			}
		}
	}
	return issues
}

// HasBlockingIssue reports whether any issue invalidates the whole
// header (syntax-class kinds).
func HasBlockingIssue(issues []Issue) bool {
	for _, i := range issues {
		switch i.Kind {
		case IssueSyntax, IssueFeaturePolicySyntax, IssueTrailingComma:
			return true
		}
	}
	return false
}

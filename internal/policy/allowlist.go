// Package policy implements the Permissions Policy machinery the paper
// studies: the Permissions-Policy header (RFC 8941 structured-field
// syntax), the deprecated Feature-Policy header and the iframe allow
// attribute (legacy ASCII syntax), allowlist matching, the
// specification's inherited-policy algorithm — including the
// local-scheme inheritance bug of §6.2 — and a misconfiguration linter
// covering the defect classes of §4.3.3.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"permodyssey/internal/header"
	"permodyssey/internal/origin"
)

// Allowlist is the set of origins a directive grants a feature to
// (§2.2.1). The zero value is the empty allowlist ('none' / "()"),
// which matches nothing.
type Allowlist struct {
	// All is the wildcard '*': matches every origin, including after
	// redirections (§4.2.2 flags this as the risky convenience choice).
	All bool
	// Self matches the origin of the declaring document.
	Self bool
	// Src matches the origin the iframe's src attribute points to; only
	// meaningful in allow attributes, where it is also the default.
	Src bool
	// Origins are explicit origins, serialized.
	Origins []string
}

// None reports whether the allowlist is empty (matches nothing).
func (a Allowlist) None() bool {
	return !a.All && !a.Self && !a.Src && len(a.Origins) == 0
}

// Matches reports whether the allowlist matches the given origin.
// self is the origin of the declaring document; src is the origin of the
// iframe's src attribute (zero Origin when not applicable).
func (a Allowlist) Matches(o, self, src origin.Origin) bool {
	if a.All {
		return true
	}
	if a.Self && o.SameOrigin(self) {
		return true
	}
	if a.Src && o.SameOrigin(src) {
		return true
	}
	for _, entry := range a.Origins {
		eo, err := origin.Parse(entry)
		if err != nil {
			continue
		}
		if o.SameOrigin(eo) {
			return true
		}
	}
	return false
}

// Merge returns the union of two allowlists (used when duplicate
// directives for a feature appear in a legacy header: browsers combine
// the first occurrence's list; we keep the union, the linter flags the
// duplication anyway).
func (a Allowlist) Merge(b Allowlist) Allowlist {
	out := Allowlist{
		All:  a.All || b.All,
		Self: a.Self || b.Self,
		Src:  a.Src || b.Src,
	}
	seen := map[string]bool{}
	for _, o := range append(append([]string{}, a.Origins...), b.Origins...) {
		if !seen[o] {
			seen[o] = true
			out.Origins = append(out.Origins, o)
		}
	}
	return out
}

// Breadth classifies how permissive the allowlist is; larger is broader.
// The analysis of Table 9 reports, per website, the least restrictive
// directive observed.
type Breadth int

const (
	BreadthDisable    Breadth = iota // () / 'none'
	BreadthSelf                      // 'self' (or 'src' pointing home)
	BreadthSameOrigin                // explicit origins, all same-origin with self
	BreadthSameSite                  // explicit origins, all same-site with self
	BreadthThirdParty                // at least one cross-site origin
	BreadthAll                       // '*'
)

var breadthNames = map[Breadth]string{
	BreadthDisable:    "Disable",
	BreadthSelf:       "Self",
	BreadthSameOrigin: "Same Origin",
	BreadthSameSite:   "Same Site",
	BreadthThirdParty: "Third-party",
	BreadthAll:        "All *",
}

func (b Breadth) String() string { return breadthNames[b] }

// MarshalText makes Breadth render as its name in JSON map keys and
// values (machine-readable reports stay human-readable).
func (b Breadth) MarshalText() ([]byte, error) { return []byte(b.String()), nil }

// UnmarshalText parses a breadth name.
func (b *Breadth) UnmarshalText(text []byte) error {
	s := string(text)
	for k, v := range breadthNames {
		if v == s {
			*b = k
			return nil
		}
	}
	return fmt.Errorf("policy: unknown breadth %q", s)
}

// BreadthFor classifies the allowlist relative to the declaring
// document's origin, mirroring Table 9's column taxonomy.
func (a Allowlist) BreadthFor(self origin.Origin) Breadth {
	if a.All {
		return BreadthAll
	}
	if a.None() {
		return BreadthDisable
	}
	broadest := BreadthDisable
	if a.Self || a.Src {
		broadest = BreadthSelf
	}
	for _, entry := range a.Origins {
		eo, err := origin.Parse(entry)
		var b Breadth
		switch {
		case err != nil:
			continue
		case eo.SameOrigin(self):
			b = BreadthSameOrigin
		case eo.SameSite(self):
			b = BreadthSameSite
		default:
			b = BreadthThirdParty
		}
		if b > broadest {
			broadest = b
		}
	}
	return broadest
}

// String serializes the allowlist in Permissions-Policy header form.
func (a Allowlist) String() string {
	if a.All {
		return "*"
	}
	var parts []string
	if a.Self {
		parts = append(parts, "self")
	}
	if a.Src {
		parts = append(parts, "src")
	}
	origins := append([]string{}, a.Origins...)
	sort.Strings(origins)
	for _, o := range origins {
		parts = append(parts, header.SerializeItem(header.Item{Kind: header.KindString, String: o}))
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// Directive binds a feature name to an allowlist.
type Directive struct {
	Feature   string
	Allowlist Allowlist
}

// Policy is an ordered list of directives as declared by one header or
// one allow attribute.
type Policy struct {
	Directives []Directive
}

// Get returns the allowlist declared for feature, if any.
func (p Policy) Get(feature string) (Allowlist, bool) {
	for _, d := range p.Directives {
		if d.Feature == feature {
			return d.Allowlist, true
		}
	}
	return Allowlist{}, false
}

// Empty reports whether the policy declares nothing.
func (p Policy) Empty() bool { return len(p.Directives) == 0 }

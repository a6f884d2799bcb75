package policy

import (
	"reflect"
	"sort"
	"testing"
)

// legacySeeds are the Feature-Policy and allow-attribute values of the
// parse tests, plus the single directives of allowDirectiveCases.
func legacySeeds() []string {
	seeds := []string{
		"camera 'self' https://trusted.com; geolocation 'none'; fullscreen *",
		"clipboard-read; clipboard-write; autoplay; microphone *; camera *; display-capture *; picture-in-picture *; fullscreen *;",
		"gamepad 'none'",
		"geolocation 'self' https://maps.example",
		"camera; camera *",
		"camera 'none' *",
		"c@mera; microphone",
		"camera; microphone *; geolocation 'self' https://maps.example; gamepad 'none'",
		"",
		";;",
	}
	for _, c := range allowDirectiveCases {
		seeds = append(seeds, c.raw)
	}
	return seeds
}

// canonical is p as HeaderValue writes it: an allowlist with * is *
// alone, and origins are sorted.
func canonical(p Policy) Policy {
	var c Policy
	for _, d := range p.Directives {
		al := Allowlist{All: true}
		if !d.Allowlist.All {
			al = d.Allowlist
			al.Origins = append([]string(nil), al.Origins...)
			sort.Strings(al.Origins)
		}
		c.Directives = append(c.Directives, Directive{Feature: d.Feature, Allowlist: al})
	}
	return c
}

// FuzzParsePermissionsPolicy: the header parser never panics, and a
// header it accepts serializes (HeaderValue) to a value that re-parses
// to an equal Policy — equal up to HeaderValue's canonical form, since
// a header like "camera=(self *)" is written as "camera=*".
func FuzzParsePermissionsPolicy(f *testing.F) {
	f.Add(validHeader)
	for _, c := range syntaxErrorCases {
		f.Add(c.value)
	}
	for _, c := range semanticCases {
		f.Add(c.value)
	}
	for _, v := range roundTripHeaders {
		f.Add(v)
	}
	// A quote inside an origin string: HeaderValue must escape it, or
	// the serialized header does not parse.
	f.Add(`a=("0#\"")`)
	f.Fuzz(func(t *testing.T, value string) {
		p, _, err := ParsePermissionsPolicy(value)
		if err != nil {
			return
		}
		out := p.HeaderValue()
		again, _, err := ParsePermissionsPolicy(out)
		if err != nil {
			t.Fatalf("%q serializes to %q, which does not parse: %v", value, out, err)
		}
		if !reflect.DeepEqual(again, canonical(p)) {
			t.Fatalf("%q serializes to %q, which parses to\n %+v, not\n %+v", value, out, again, p)
		}
	})
}

// legacyCanonical is p as AllowAttrValue and FeaturePolicyValue write
// it: an allowlist with * is * alone, and origins keep their order.
func legacyCanonical(p Policy) Policy {
	var c Policy
	for _, d := range p.Directives {
		if d.Allowlist.All {
			d.Allowlist = Allowlist{All: true}
		}
		c.Directives = append(c.Directives, d)
	}
	return c
}

// legacyRoundTrip fails t unless the Policy parse reads from value
// serializes to a value that parse reads back to an equal Policy, up
// to legacyCanonical. The legacy parsers reject nothing: a value they
// cannot use yields issues and skipped directives, not an error.
func legacyRoundTrip(t *testing.T, value string, parse func(string) (Policy, []Issue), serialize func(Policy) string) {
	p, _ := parse(value)
	out := serialize(p)
	if again, _ := parse(out); !reflect.DeepEqual(again, legacyCanonical(p)) {
		t.Fatalf("%q serializes to %q, which parses to\n %+v, not\n %+v", value, out, again, p)
	}
}

// FuzzParseAllowAttr: the allow-attribute parser never panics, and the
// policy it reads re-parses from AllowAttrValue to an equal Policy up
// to the legacy canonical form.
func FuzzParseAllowAttr(f *testing.F) {
	for _, s := range legacySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, value string) {
		legacyRoundTrip(t, value, ParseAllowAttr, Policy.AllowAttrValue)
	})
}

// FuzzParseFeaturePolicy: the Feature-Policy parser never panics, and
// the policy it reads re-parses from FeaturePolicyValue to an equal
// Policy up to the legacy canonical form.
func FuzzParseFeaturePolicy(f *testing.F) {
	for _, s := range legacySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, value string) {
		legacyRoundTrip(t, value, ParseFeaturePolicy, Policy.FeaturePolicyValue)
	})
}

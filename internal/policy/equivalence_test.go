package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"permodyssey/internal/origin"
	"permodyssey/internal/permissions"
)

// refDoc is the eager inherited-policy computation the engine used
// before it went on demand: every policy-controlled feature of the
// registry is evaluated into a map when the document is created. It is
// kept here only as the reference the on-demand engine must match.
type refDoc struct {
	origin    origin.Origin
	declared  Policy
	parent    *refDoc
	inherited map[string]bool
}

func refTopLevel(o origin.Origin, declared Policy) *refDoc {
	d := &refDoc{origin: o, declared: declared}
	d.compute(Policy{}, origin.Origin{})
	return d
}

func refSubframe(parent *refDoc, spec FrameSpec, mode SpecMode) *refDoc {
	d := &refDoc{parent: parent, declared: spec.Declared, origin: spec.DocumentOrigin}
	src := spec.SrcOrigin
	if spec.LocalScheme {
		src, d.origin = parent.origin, parent.origin
		if mode == SpecExpected {
			d.declared = parent.declared
		}
	}
	d.compute(spec.Allow, src)
	return d
}

func (d *refDoc) compute(container Policy, src origin.Origin) {
	d.inherited = map[string]bool{}
	for _, p := range permissions.All() {
		if p.PolicyControlled() {
			d.inherited[p.Name] = d.inheritedFor(p, container, src)
		}
	}
}

func (d *refDoc) inheritedFor(p permissions.Permission, container Policy, src origin.Origin) bool {
	parent := d.parent
	if parent == nil {
		return true
	}
	if !parent.enabled(p.Name, parent.origin) || !parent.enabled(p.Name, d.origin) {
		return false
	}
	if al, ok := container.Get(p.Name); ok {
		return al.Matches(d.origin, parent.origin, src)
	}
	switch p.Default {
	case permissions.DefaultAll:
		return true
	case permissions.DefaultSelf:
		return d.origin.SameOrigin(parent.origin)
	}
	return false
}

func (d *refDoc) enabled(feature string, o origin.Origin) bool {
	p, known := permissions.Lookup(feature)
	if known && !p.PolicyControlled() {
		return d.parent == nil
	}
	if !d.inherited[feature] {
		return false
	}
	if al, ok := d.declared.Get(feature); ok {
		return al.Matches(o, d.origin, origin.Origin{})
	}
	return true
}

func (d *refDoc) allowedFeatures() []string {
	var out []string
	for _, p := range permissions.All() {
		if p.PolicyControlled() && d.enabled(p.Name, d.origin) {
			out = append(out, p.Name)
		}
	}
	return out
}

func (d *refDoc) canDelegate(feature string, child origin.Origin) bool {
	p, ok := permissions.Lookup(feature)
	if !ok || !p.PolicyControlled() {
		return false
	}
	allow := Policy{Directives: []Directive{{
		Feature:   feature,
		Allowlist: Allowlist{Origins: []string{child.String()}},
	}}}
	c := refSubframe(d, FrameSpec{SrcOrigin: child, DocumentOrigin: child, Allow: allow}, SpecActual)
	return c.enabled(feature, c.origin)
}

// Inputs of the random frame trees: header and allow features mix
// default-self, default-* and non-policy-controlled permissions with
// an unknown token; origins mix same-origin, same-site, cross-site and
// scheme-mismatched documents.
var (
	eqFeatures = []string{"camera", "microphone", "geolocation", "fullscreen", "payment",
		"usb", "ch-ua-platform", "browsing-topics", "notifications", "not-a-feature"}
	eqOrigins = []origin.Origin{exampleOrg, iframeCom, attacker,
		origin.MustParse("https://sub.example.org"), origin.MustParse("http://example.org")}
)

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// genDeclared returns no header, a Permissions-Policy header, or a
// Feature-Policy header; an unparseable Permissions-Policy is dropped
// whole, as the browser does.
func genDeclared(r *rand.Rand) Policy {
	var parts []string
	switch r.Intn(3) {
	case 1:
		lists := []string{"*", "()", "self", "(self)", `("https://iframe.com")`,
			`(self "https://attacker.com")`, `("https://sub.example.org" "https://example.org")`}
		for i := r.Intn(4); i > 0; i-- {
			parts = append(parts, pick(r, eqFeatures)+"="+pick(r, lists))
		}
		p, _, err := ParsePermissionsPolicy(strings.Join(parts, ", "))
		if err != nil {
			return Policy{}
		}
		return p
	case 2:
		lists := []string{"*", "'none'", "'self'", "'self' https://iframe.com", "https://attacker.com"}
		for i := r.Intn(4); i > 0; i-- {
			parts = append(parts, pick(r, eqFeatures)+" "+pick(r, lists))
		}
		p, _ := ParseFeaturePolicy(strings.Join(parts, "; "))
		return p
	}
	return Policy{}
}

func genAllow(r *rand.Rand) Policy {
	lists := []string{"", " *", " 'none'", " 'self'", " 'src'", " https://attacker.com", " https://iframe.com 'self'"}
	var parts []string
	for i := r.Intn(5); i > 0; i-- {
		parts = append(parts, pick(r, eqFeatures)+pick(r, lists))
	}
	p, _ := ParseAllowAttr(strings.Join(parts, "; "))
	return p
}

type eqFrame struct {
	doc  *Document
	ref  *refDoc
	desc string
}

// genTree builds one random frame tree in both engines: network frames
// (some redirected to another origin), sandboxed frames with opaque
// origins, and local-scheme frames, up to three levels deep.
func genTree(r *rand.Rand, mode SpecMode) []eqFrame {
	o, declared := pick(r, eqOrigins), genDeclared(r)
	frames := []eqFrame{{NewTopLevel(o, declared), refTopLevel(o, declared), "top " + o.String()}}
	var grow func(parent eqFrame, depth int)
	grow = func(parent eqFrame, depth int) {
		if depth == 3 {
			return
		}
		for i := r.Intn(4); i > 0; i-- {
			spec := FrameSpec{Allow: genAllow(r), Declared: genDeclared(r)}
			kind := []string{"local", "sandboxed", "redirected", "network"}[r.Intn(4)]
			switch kind {
			case "local":
				spec.LocalScheme = true
			case "sandboxed":
				spec.SrcOrigin = pick(r, eqOrigins)
				spec.DocumentOrigin = origin.NewOpaque("https")
			case "redirected":
				spec.SrcOrigin, spec.DocumentOrigin = pick(r, eqOrigins), pick(r, eqOrigins)
			default:
				spec.SrcOrigin = pick(r, eqOrigins)
				spec.DocumentOrigin = spec.SrcOrigin
			}
			child := eqFrame{
				NewSubframe(parent.doc, spec, mode), refSubframe(parent.ref, spec, mode),
				fmt.Sprintf("%s > %s %s allow=%q", parent.desc, kind, spec.DocumentOrigin, spec.Allow.AllowAttrValue()),
			}
			frames = append(frames, child)
			grow(child, depth+1)
		}
	}
	grow(frames[0], 0)
	return frames
}

// TestOnDemandPolicyMatchesEager checks the on-demand engine against
// the eager reference over random frame trees in both SpecModes, for
// every registry feature plus non-canonical spellings and unknown
// names. Frames and features are queried in random order, so a
// subframe is often asked before its ancestors and fills their memos
// on the way.
func TestOnDemandPolicyMatchesEager(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	features := []string{"Camera", " geolocation ", "NOTIFICATIONS", "not-a-feature", ""}
	for _, p := range permissions.All() {
		features = append(features, p.Name)
	}
	trees := 150
	if testing.Short() {
		trees = 30
	}
	for _, mode := range []SpecMode{SpecActual, SpecExpected} {
		for tree := 0; tree < trees; tree++ {
			frames := genTree(r, mode)
			for _, fi := range r.Perm(len(frames)) {
				f := frames[fi]
				where := fmt.Sprintf("%v tree %d: %s", mode, tree, f.desc)
				for _, xi := range r.Perm(len(features)) {
					feature := features[xi]
					if got, want := f.doc.Allowed(feature), f.ref.enabled(feature, f.ref.origin); got != want {
						t.Fatalf("%s: Allowed(%q) = %v; want %v", where, feature, got, want)
					}
					for _, o := range append(eqOrigins, f.ref.origin) {
						if got, want := f.doc.EnabledForOrigin(feature, o), f.ref.enabled(feature, o); got != want {
							t.Fatalf("%s: EnabledForOrigin(%q, %s) = %v; want %v", where, feature, o, got, want)
						}
					}
				}
				if got, want := f.doc.AllowedFeatures(), f.ref.allowedFeatures(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: AllowedFeatures = %v; want %v", where, got, want)
				}
				for _, feature := range eqFeatures {
					for _, o := range eqOrigins[:3] {
						if got, want := f.doc.CanDelegate(feature, o), f.ref.canDelegate(feature, o); got != want {
							t.Fatalf("%s: CanDelegate(%q, %s) = %v; want %v", where, feature, o, got, want)
						}
					}
				}
			}
		}
	}
}

// TestNewSubframeAllocs pins the per-frame cost of the on-demand
// engine: the document and its memo, nothing per feature. The eager
// engine built a 60-entry map per frame (13 allocs, 12.4 KB).
func TestNewSubframeAllocs(t *testing.T) {
	top := NewTopLevel(exampleOrg, Policy{})
	spec := FrameSpec{SrcOrigin: iframeCom, DocumentOrigin: iframeCom, Allow: mustAllow("camera; microphone; geolocation")}
	if got := testing.AllocsPerRun(200, func() {
		NewSubframe(top, spec, SpecActual).Allowed("camera")
	}); got > 2 {
		t.Errorf("NewSubframe + Allowed: %.1f allocs/op, want <= 2", got)
	}
}

var benchAllowed bool

func BenchmarkNewSubframe(b *testing.B) {
	top := NewTopLevel(exampleOrg, Policy{})
	spec := FrameSpec{SrcOrigin: iframeCom, DocumentOrigin: iframeCom, Allow: mustAllow("camera; microphone; geolocation")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchAllowed = NewSubframe(top, spec, SpecActual).Allowed("camera")
	}
}

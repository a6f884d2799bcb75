package policy

import (
	"sync/atomic"

	"permodyssey/internal/origin"
	"permodyssey/internal/permissions"
)

// SpecMode selects between the Permissions Policy specification as
// written (which Chromium implements, including the local-scheme
// inheritance defect the paper reports in §6.2 / W3C issue 552) and the
// behaviour the paper argues developers expect.
type SpecMode uint8

const (
	// SpecActual models the specification as written: local-scheme
	// documents (data:, about:srcdoc, blob:, javascript:) do NOT inherit
	// the declared policy of their parent. A page that declares
	// camera=(self) can therefore be bypassed by creating a local-scheme
	// iframe which, carrying no declared policy of its own, re-delegates
	// camera to an arbitrary third party.
	SpecActual SpecMode = iota
	// SpecExpected models the fixed behaviour: local-scheme documents
	// inherit their parent's declared policy, so the parent's
	// restrictions keep binding nested delegations.
	SpecExpected
)

func (m SpecMode) String() string {
	if m == SpecExpected {
		return "expected"
	}
	return "actual-specification"
}

// Document is a document with its computed Permissions Policy: the
// declared policy (from its own headers — or, for local-scheme
// documents under SpecExpected, inherited from the parent) and the
// per-feature inherited policy computed from the embedding context.
//
// The inherited policy is computed on demand: a subframe keeps its
// embedding context (parent, container policy, src origin) and runs
// the inheritance algorithm for a feature on that feature's first
// query, memoising the answer. A frame whose scripts ask about two
// features pays for two, not for the whole registry. Queries are safe
// from concurrent goroutines.
type Document struct {
	// Origin is the document's effective origin for policy evaluation.
	// Local-scheme documents evaluate with their parent's origin (they
	// are "the same site" for prompting purposes; the prompt says
	// "example.org is asking to use your camera", §2.2.2).
	Origin origin.Origin
	// Declared is the policy from the document's Permissions-Policy (or
	// fallback Feature-Policy) header.
	Declared Policy
	// LocalScheme marks documents loaded from local schemes.
	LocalScheme bool

	parent    *Document
	container Policy
	srcOrigin origin.Origin
	// inherited memoises the inherited policy per registry position
	// (permissions.Index): inheritUnknown until first queried. Nil for
	// a top-level document, whose inherited policy is always Enabled.
	inherited []atomic.Uint32
}

// Memo states of Document.inherited.
const (
	inheritUnknown uint32 = iota
	inheritDisabled
	inheritEnabled
)

// NewTopLevel creates the policy document for a top-level navigation.
func NewTopLevel(o origin.Origin, declared Policy) *Document {
	return &Document{Origin: o, Declared: declared}
}

// FrameSpec describes an iframe being loaded, as the engine needs it.
type FrameSpec struct {
	// SrcOrigin is the origin of the frame's src URL (the 'src' keyword
	// target). Zero for local-scheme frames.
	SrcOrigin origin.Origin
	// DocumentOrigin is the origin of the document that actually loaded
	// (usually SrcOrigin; differs after redirects).
	DocumentOrigin origin.Origin
	// Allow is the parsed allow attribute (container policy).
	Allow Policy
	// Declared is the child document's own header policy.
	Declared Policy
	// LocalScheme marks data:/about:/blob:/javascript: frames.
	LocalScheme bool
}

// NewSubframe computes the policy document for a frame embedded in
// parent, per the specification's inherited-policy algorithm, under the
// given SpecMode.
func NewSubframe(parent *Document, spec FrameSpec, mode SpecMode) *Document {
	d := &Document{
		LocalScheme: spec.LocalScheme,
		parent:      parent,
		container:   spec.Allow,
		inherited:   make([]atomic.Uint32, len(permissions.All())),
	}
	childOrigin := spec.DocumentOrigin
	srcOrigin := spec.SrcOrigin
	if spec.LocalScheme {
		// Local-scheme frames have no network src; the 'src' keyword (the
		// allow attribute's default) resolves to the embedding context.
		srcOrigin = parent.Origin
		// Local-scheme documents evaluate with the parent's origin: the
		// user-visible context (and the prompt) is the embedding page.
		childOrigin = parent.Origin
		switch mode {
		case SpecExpected:
			d.Declared = parent.Declared
		case SpecActual:
			// The defect: the parent's declared policy is NOT inherited.
			d.Declared = spec.Declared
		}
	} else {
		d.Declared = spec.Declared
	}
	d.Origin = childOrigin
	d.srcOrigin = srcOrigin
	return d
}

// inheritedAt reports the inherited policy for the policy-controlled
// feature p at registry position i, computing it on first use. Racing
// first queries compute the same answer, so any store is as good as
// another.
func (d *Document) inheritedAt(i int, p permissions.Permission) bool {
	if d.parent == nil {
		return true
	}
	if state := d.inherited[i].Load(); state != inheritUnknown {
		return state == inheritEnabled
	}
	enabled := d.inheritedPolicyFor(i, p)
	state := inheritDisabled
	if enabled {
		state = inheritEnabled
	}
	d.inherited[i].Store(state)
	return enabled
}

// inheritedPolicyFor implements "Define an inherited policy for feature
// in container at origin" for a subframe (step 1, the null container,
// is the top-level case inheritedAt answers itself):
//
//  1. If container is null, return Enabled.
//  2. If feature is Disabled in the container document for the container
//     document's origin, return Disabled.
//  3. If feature is Disabled in the container document for the new
//     document's origin, return Disabled.
//  4. If feature is present in the container policy (allow attribute),
//     return whether its allowlist matches the new document's origin.
//  5. If the feature's default allowlist is *, return Enabled.
//  6. If the feature's default allowlist is 'self' and the new origin is
//     same origin with the container document's origin, return Enabled.
//  7. Return Disabled.
func (d *Document) inheritedPolicyFor(i int, p permissions.Permission) bool {
	parent, childOrigin := d.parent, d.Origin
	if !parent.enabledAt(i, p, parent.Origin) {
		return false
	}
	if !parent.enabledAt(i, p, childOrigin) {
		return false
	}
	if al, ok := d.container.Get(p.Name); ok {
		return al.Matches(childOrigin, parent.Origin, d.srcOrigin)
	}
	switch p.Default {
	case permissions.DefaultAll:
		return true
	case permissions.DefaultSelf:
		return childOrigin.SameOrigin(parent.Origin)
	}
	return false
}

// EnabledForOrigin implements "Is feature enabled in document for
// origin?":
//
//  1. If the inherited policy for feature is Disabled, return Disabled.
//  2. If feature is in the declared policy, return whether its allowlist
//     matches origin.
//  3. Return Enabled (the inherited policy was Enabled).
//
// Features that are not policy-controlled are enabled exactly in
// top-level documents (paper §4.1.1: notifications "cannot be
// delegated", hence the low embedded counts).
func (d *Document) EnabledForOrigin(feature string, o origin.Origin) bool {
	i, exact := permissions.Index(feature)
	if !exact {
		// A non-canonical spelling ("Camera") has no inherited policy of
		// its own, so only the top-level rule for features that are not
		// policy-controlled can enable it.
		p, known := permissions.Lookup(feature)
		return known && !p.PolicyControlled() && d.parent == nil
	}
	return d.enabledAt(i, permissions.All()[i], o)
}

// enabledAt is EnabledForOrigin for the registry entry p at position i.
func (d *Document) enabledAt(i int, p permissions.Permission, o origin.Origin) bool {
	if !p.PolicyControlled() {
		return d.parent == nil
	}
	if !d.inheritedAt(i, p) {
		return false
	}
	if al, ok := d.Declared.Get(p.Name); ok {
		return al.Matches(o, d.Origin, origin.Origin{})
	}
	return true
}

// Allowed reports whether the document itself may use the feature — the
// condition for the corresponding APIs being callable (and, for
// powerful features, for the browser being willing to prompt).
func (d *Document) Allowed(feature string) bool {
	return d.EnabledForOrigin(feature, d.Origin)
}

// AllowedFeatures returns the features allowed in this document, in
// registry order — the value the
// document.featurePolicy.allowedFeatures() / permissionsPolicy API
// exposes to scripts (heavily called per Table 4/5).
func (d *Document) AllowedFeatures() []string {
	var out []string
	for i, p := range permissions.All() {
		if p.PolicyControlled() && d.enabledAt(i, p, d.Origin) {
			out = append(out, p.Name)
		}
	}
	return out
}

// CanDelegate reports whether this document can delegate the feature to
// a child at childOrigin via an allow attribute — i.e. whether the
// feature would be enabled in the child (before the child's own header).
// "Only permissions that a website has access to itself can be
// delegated" (§2.2.2).
func (d *Document) CanDelegate(feature string, childOrigin origin.Origin) bool {
	p, ok := permissions.Lookup(feature)
	if !ok || !p.PolicyControlled() {
		return false
	}
	allow := Policy{Directives: []Directive{{
		Feature:   feature,
		Allowlist: Allowlist{Origins: []string{childOrigin.String()}},
	}}}
	child := NewSubframe(d, FrameSpec{
		SrcOrigin:      childOrigin,
		DocumentOrigin: childOrigin,
		Allow:          allow,
	}, SpecActual)
	return child.Allowed(feature)
}

// Parent returns the embedding document, or nil for top-level.
func (d *Document) Parent() *Document { return d.parent }

// IsTopLevel reports whether this is a top-level document.
func (d *Document) IsTopLevel() bool { return d.parent == nil }

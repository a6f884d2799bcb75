// Package webapi builds the instrumented Web-API surface a document's
// scripts run against: navigator.permissions, mediaDevices, geolocation,
// battery, clipboard, the Permissions-Policy / Feature-Policy DOM APIs,
// Privacy-Sandbox calls, sensors, payment, credentials and more — every
// permission of Appendix A.4 plus the General Permission APIs.
//
// Each entry point is declared once (realm.go), and its declaration is
// the one wrapper of the paper's Figure 1: a call is recorded with the
// stack trace and the invoking script's URL before the "original"
// behaviour executes. These declarations, not the registry's static
// patterns (permissions.Permission.APIs), are the dynamic-analysis
// list. The host behaviour itself consults the policy engine, so
// blocked features reject the way a browser rejects them, and status
// checks observe the frame's real allowlist.
package webapi

import (
	"strings"

	"permodyssey/internal/permissions"
	"permodyssey/internal/script"
)

// Kind classifies a recorded API use, matching the paper's three
// reporting categories (§4.1).
type Kind uint8

const (
	// KindInvocation: a permission-related API was invoked (Table 4).
	KindInvocation Kind = iota
	// KindStatusCheck: the status of permissions was queried (Table 5).
	KindStatusCheck
)

func (k Kind) String() string {
	if k == KindStatusCheck {
		return "status-check"
	}
	return "invocation"
}

// Invocation is one recorded API use.
type Invocation struct {
	// API is the instrumented expression ("navigator.permissions.query").
	API string
	// Kind is the reporting category.
	Kind Kind
	// Permissions are the specific permissions involved (from the API
	// itself, e.g. getUserMedia → camera/microphone, or from arguments,
	// e.g. query({name:'camera'}) → camera).
	Permissions []string
	// AllPermissions is set when the call retrieved the complete
	// permission list (featurePolicy.allowedFeatures & friends) — the
	// paper's dominant usage pattern ("All Permissions" in Table 5).
	AllPermissions bool
	// ScriptURL is the URL of the script attributed by the stack trace
	// ("" for inline scripts, which the paper classifies first-party).
	ScriptURL string
	// Stack is the captured stack trace.
	Stack string
	// Blocked reports that the policy engine denied the call.
	Blocked bool
	// Deprecated marks uses of the old Feature Policy API names (§6.2:
	// 429,259 websites still rely on them).
	Deprecated bool
}

// General reports whether the call is one of the General Permission
// APIs of §4.1.1 — the Permissions API's query or a method of a policy
// object — or otherwise retrieved every permission at once. Tables 4
// and 5 count such a call in their General Permission APIs row, not
// under the permissions it names.
func (inv Invocation) General() bool {
	if inv.AllPermissions || inv.API == permissionsQuery {
		return true
	}
	if i := strings.LastIndexByte(inv.API, '.'); i >= 0 {
		for _, p := range policyObjects {
			if inv.API[:i] == p.api {
				return true
			}
		}
	}
	return false
}

// Recorder accumulates invocations for one document/execution context.
type Recorder struct {
	Invocations []Invocation
}

func (r *Recorder) record(inv Invocation) { r.Invocations = append(r.Invocations, inv) }

// ByKind returns the invocations of one kind.
func (r *Recorder) ByKind(k Kind) []Invocation {
	var out []Invocation
	for _, inv := range r.Invocations {
		if inv.Kind == k {
			out = append(out, inv)
		}
	}
	return out
}

// PermissionsSeen returns the distinct specific permissions touched by
// any record, regardless of kind.
func (r *Recorder) PermissionsSeen() []string {
	seen := map[string]bool{}
	var out []string
	for _, inv := range r.Invocations {
		for _, p := range inv.Permissions {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// UsedDeprecatedAPI reports whether any record used Feature-Policy-era
// API names.
func (r *Recorder) UsedDeprecatedAPI() bool {
	for _, inv := range r.Invocations {
		if inv.Deprecated {
			return true
		}
	}
	return false
}

// helper: resolve permission names from a query argument value.
func permissionFromQueryArg(arg script.Value) (string, bool) {
	if arg.Kind() != script.KindObject {
		return "", false
	}
	nameV, ok := arg.Obj().Get("name")
	if !ok || nameV.Kind() != script.KindString {
		return "", false
	}
	p, known := permissions.ByQueryName(nameV.Str())
	if !known {
		// Unknown query names still identify *which* string was checked;
		// record the raw name so the analysis can count it.
		return nameV.Str(), true
	}
	return p.Name, true
}

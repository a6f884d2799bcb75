package webapi

import (
	"fmt"
	"strings"
	"sync"

	"permodyssey/internal/permissions"
	"permodyssey/internal/policy"
	"permodyssey/internal/script"
)

// Realm is one document's JavaScript realm: an interpreter with the
// instrumented Web-API surface installed, bound to the document's
// Permissions Policy.
//
// The surface itself — hundreds of natives across navigator, document,
// and a dozen constructors — is built ONCE on a package-level template,
// sealed (script.GlobalSnapshot), and installed into each realm
// copy-on-write. Natives are shared across realms and recover their
// realm through script.Interp.Host at call time; a realm pays only for
// the template objects its scripts reach and the properties they write.
type Realm struct {
	Doc *policy.Document
	Rec *Recorder
	In  *script.Interp
	// FrameURL is the document's URL; inline scripts attribute to it.
	FrameURL string
	// Browser/Version select the support surface exposed to scripts
	// (feeding the fingerprinting observation of §4.1.1).
	Browser permissions.Browser
	Version int

	// handlers is allocated by the first addEventListener.
	handlers map[string][]script.Value
}

// NewRealm builds a realm for the document.
func NewRealm(doc *policy.Document, frameURL string) *Realm {
	r := &Realm{
		Doc:      doc,
		Rec:      &Recorder{},
		In:       script.NewBareInterp(),
		FrameURL: frameURL,
		Browser:  permissions.Chromium,
		Version:  127, // the paper crawled with Chromium 127 (C13)
	}
	r.In.InstallSnapshot(surfaceSnapshot())
	r.In.Host = r
	r.patchRealmState()
	return r
}

// RunScript parses, compiles and executes one script in the realm.
// scriptURL is "" for inline scripts (attributed to the frame itself,
// like the paper does).
func (r *Realm) RunScript(src, scriptURL string) error {
	if scriptURL == "" {
		scriptURL = r.FrameURL
	}
	return r.In.Run(src, scriptURL)
}

// RunCompiled executes an already compiled program in the realm, as
// RunScript does its source. Compiled programs are immutable, so the
// crawl compiles each script body once and runs it in every realm that
// includes it.
func (r *Realm) RunCompiled(prog *script.Compiled, scriptURL string) error {
	if scriptURL == "" {
		scriptURL = r.FrameURL
	}
	return r.In.RunCompiled(prog, scriptURL)
}

// FireEvent invokes every handler registered for the event — the
// "manual interaction" pass of Appendix A.3 (clicks, loads, logins).
// An event nobody listens for builds no event object.
func (r *Realm) FireEvent(name string) error {
	if len(r.handlers[name]) == 0 {
		return nil
	}
	ev := script.NewObject()
	ev.Class = "Event"
	ev.Set("type", script.String(name))
	for _, h := range r.handlers[name] {
		if _, err := r.In.CallFunction(h, script.Undefined(), []script.Value{script.ObjectValue(ev)}); err != nil {
			return err
		}
	}
	return nil
}

// HandlerCount reports how many handlers are registered for an event.
func (r *Realm) HandlerCount(name string) int { return len(r.handlers[name]) }

// record captures one instrumented call with stack attribution.
func (r *Realm) record(api string, kind Kind, perms []string, all, blocked, deprecated bool) {
	url := r.In.CurrentScriptURL()
	if url == r.FrameURL {
		url = "" // inline / document-attributed
	}
	r.Rec.record(Invocation{
		API:            api,
		Kind:           kind,
		Permissions:    perms,
		AllPermissions: all,
		ScriptURL:      url,
		Stack:          r.In.StackTrace(),
		Blocked:        blocked,
		Deprecated:     deprecated,
	})
}

// allowed consults the policy engine for a specific permission.
func (r *Realm) allowed(perm string) bool { return r.Doc.Allowed(perm) }

// gatedPromise records an invocation and returns a resolved promise
// with value v when allowed, or a rejected NotAllowedError otherwise.
func (r *Realm) gatedPromise(api string, perms []string, v script.Value) script.Value {
	blocked := false
	for _, p := range perms {
		if !r.allowed(p) {
			blocked = true
		}
	}
	r.record(api, KindInvocation, perms, false, blocked, false)
	if blocked {
		return rejectedDOMException("NotAllowedError",
			fmt.Sprintf("%s disallowed by permissions policy", api))
	}
	return script.ResolvedPromise(v)
}

// topLevelOnly records a call of a permission no policy controls
// (notifications, push): it is blocked outside top-level documents.
func (r *Realm) topLevelOnly(api, perm string) (blocked bool) {
	blocked = !r.Doc.IsTopLevel()
	r.record(api, KindInvocation, []string{perm}, false, blocked, false)
	return blocked
}

func rejectedDOMException(name, msg string) script.Value {
	e := script.NewObject()
	e.Class = "DOMException"
	e.Set("name", script.String(name))
	e.Set("message", script.String(msg))
	return script.RejectedPromise(script.ObjectValue(e))
}

// nat is shorthand for a realm-independent native function value.
func nat(name string, fn func(in *script.Interp, this script.Value, args []script.Value) (script.Value, error)) script.Value {
	return script.NativeValue(name, fn)
}

// hostRealm recovers the realm a native is executing in. Surface
// natives are shared across realms (they live in the sealed snapshot),
// so per-realm state — policy document, recorder, handlers — must come
// from the interpreter, not from captured variables.
func hostRealm(in *script.Interp) *Realm { return in.Host.(*Realm) }

// addEventListenerV is the shared handler-registration native; it
// appends into the calling realm's handlers map.
var addEventListenerV = nat("addEventListener", func(in *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
	if len(args) >= 2 && args[0].Kind() == script.KindString && args[1].IsCallable() {
		r := hostRealm(in)
		name := args[0].Str()
		if r.handlers == nil {
			r.handlers = map[string][]script.Value{}
		}
		r.handlers[name] = append(r.handlers[name], args[1])
	}
	return script.Undefined(), nil
})

var noopV = nat("noop", func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
	return script.Undefined(), nil
})

// surfaceSnapshot lazily builds the Web-API surface on a template
// interpreter and seals it for installing into realms.
var (
	surfaceOnce sync.Once
	surfaceSnap *script.GlobalSnapshot
)

func surfaceSnapshot() *script.GlobalSnapshot {
	surfaceOnce.Do(func() {
		tmpl := script.NewInterp()
		installSurface(tmpl)
		surfaceSnap = tmpl.SnapshotGlobals()
	})
	return surfaceSnap
}

// patchRealmState overwrites the per-realm bindings the template cannot
// know: the frame's location, secure-context bit, and UA string.
func (r *Realm) patchRealmState() {
	g := r.In.Global
	if nav, ok := g.Get("navigator"); ok && nav.Kind() == script.KindObject {
		nav.Obj().Set("userAgent", script.String(fmt.Sprintf("Mozilla/5.0 (X11; Linux x86_64) Chrome/%d.0.0.0", r.Version)))
	}
	if loc, ok := g.Get("location"); ok && loc.Kind() == script.KindObject {
		lo := loc.Obj()
		lo.Set("href", script.String(r.FrameURL))
		lo.Set("origin", script.String(r.Doc.Origin.String()))
		lo.Set("hostname", script.String(r.Doc.Origin.Host))
		lo.Set("protocol", script.String(r.Doc.Origin.Scheme+":"))
	}
	if win, ok := g.Get("window"); ok && win.Kind() == script.KindObject {
		win.Obj().Set("isSecureContext", script.Bool(r.Doc.Origin.Scheme == "https"))
	}
}

// Each instrumented entry point is one declaration below, in one of a
// few shapes: a policy-gated promise, a recorded call, a status check
// or a recording constructor; the rest have hand-written bodies. The
// declaration's API name, navigator.getBattery say, is its only
// spelling: the recorded Invocation.API, the native's name in stack
// traces, and, after its last dot, the property it is installed under.
// These declarations are the dynamic-analysis list of Appendix A.4.

// holder is where a declaration installs its entry point: a surface
// object, the global scope, or members every instance of a host
// object receives.
type holder interface {
	Set(key string, v script.Value)
}

// globals installs window-level functions, which are global bindings
// rather than properties of window.
type globals struct{ *script.Env }

func (g globals) Set(key string, v script.Value) { g.Define(key, v) }

// members are the properties each instance of a host object receives,
// in order.
type members []member

type member struct {
	key string
	v   script.Value
}

func (ms *members) Set(key string, v script.Value) { *ms = append(*ms, member{key, v}) }

// set gives o the members, after the properties it already has.
func (ms members) set(o *script.Object) *script.Object {
	for _, m := range ms {
		o.Set(m.key, m.v)
	}
	return o
}

// body is an entry point's behaviour in the realm it is called in; api
// is the name its declaration gave it.
type body func(r *Realm, api string, in *script.Interp, args []script.Value) (script.Value, error)

// key is the property an entry point is installed under.
func key(api string) string { return api[strings.LastIndexByte(api, '.')+1:] }

// entry declares an entry point with a hand-written body.
func entry(h holder, api string, fn body) {
	h.Set(key(api), script.NativeValue(api, func(in *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
		return fn(hostRealm(in), api, in, args)
	}))
}

// promise declares a policy-gated promise: a call records perm, then
// resolves with a fresh result, or rejects with NotAllowedError when
// the document's policy disallows perm.
func promise(h holder, api, perm string, result func() script.Value) {
	entry(h, api, func(r *Realm, api string, _ *script.Interp, _ []script.Value) (script.Value, error) {
		return r.gatedPromise(api, []string{perm}, result()), nil
	})
}

// call declares a recorded call: a call records perm under kind,
// blocked when the document's policy disallows it, and returns what
// ret makes of the policy's answer.
func call(h holder, api string, kind Kind, perm string, ret func(allowed bool) script.Value) {
	entry(h, api, func(r *Realm, api string, _ *script.Interp, _ []script.Value) (script.Value, error) {
		allowed := r.allowed(perm)
		r.record(api, kind, []string{perm}, false, !allowed, false)
		return ret(allowed), nil
	})
}

// check declares a status check that no policy blocks: a call records
// perm and resolves with what ok says of the realm.
func check(h holder, api, perm string, ok func(r *Realm) bool) {
	entry(h, api, func(r *Realm, api string, _ *script.Interp, _ []script.Value) (script.Value, error) {
		r.record(api, KindStatusCheck, []string{perm}, false, false, false)
		return script.ResolvedPromise(script.Bool(ok(r))), nil
	})
}

// construct makes the Call slot of the host constructor name: the
// native is named name, and its body records as "new name".
func construct(name string, fn body) *script.Native {
	api := "new " + name
	return &script.Native{Name: name, Fn: func(in *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
		return fn(hostRealm(in), api, in, args)
	}}
}

// constructor declares a recording constructor: `new name` records
// perm, blocked when the document's policy disallows it. A refusing
// constructor then throws a SecurityError; otherwise each call returns
// a fresh object of class name holding ms.
func constructor(g *script.Env, name, perm string, refuse bool, ms members) *script.Object {
	ctor := script.NewObject()
	ctor.Call = construct(name, func(r *Realm, api string, _ *script.Interp, _ []script.Value) (script.Value, error) {
		blocked := !r.allowed(perm)
		r.record(api, KindInvocation, []string{perm}, false, blocked, false)
		if blocked && refuse {
			return script.Undefined(), &script.RuntimeError{Msg: "SecurityError: " + perm + " disallowed by permissions policy"}
		}
		return script.ObjectValue(ms.set(object(name).Obj())), nil
	})
	g.Define(name, script.ObjectValue(ctor))
	return ctor
}

// namespace installs a fresh object of the class under key on o.
func namespace(o *script.Object, key, class string) *script.Object {
	ns := object(class)
	o.Set(key, ns)
	return ns.Obj()
}

// object makes a fresh host object of the class.
func object(class string) script.Value {
	o := script.NewObject()
	o.Class = class
	return script.ObjectValue(o)
}

// instance makes a promise result: a fresh object of the class per call.
func instance(class string) func() script.Value {
	return func() script.Value { return object(class) }
}

func emptyArray() script.Value { return script.ArrayValue() }

// permissionsQuery is the Permissions API's status query. With the
// methods of the policy objects it makes up the General Permission APIs
// of §4.1.1 (Invocation.General).
const permissionsQuery = "navigator.permissions.query"

// policyObjects are document.permissionsPolicy and the deprecated
// Feature Policy twin that Chromium still exposes (§6.2).
var policyObjects = [...]struct {
	api        string
	deprecated bool
}{{"document.featurePolicy", true}, {"document.permissionsPolicy", false}}

// installSurface wires the full API surface into a template
// interpreter's global scope. Everything installed here must be
// realm-independent: natives reach their realm via hostRealm, and
// per-realm scalars (location fields, userAgent, isSecureContext) are
// placeholders overwritten by patchRealmState in each realm.
func installSurface(in *script.Interp) {
	g := in.Global

	nav := script.NewObject()
	nav.Class = "Navigator"
	doc := script.NewObject()
	doc.Class = "Document"
	g.Define("navigator", script.ObjectValue(nav))
	g.Define("document", script.ObjectValue(doc))

	installNavigator(nav)
	installDocument(doc)
	installConstructors(g, nav)

	// navigator identity (the crawler disabled navigator.webdriver, C8).
	// userAgent is per-realm (Version-dependent); patched per realm.
	nav.Set("userAgent", script.String(""))
	nav.Set("webdriver", script.Bool(false))
	nav.Set("language", script.String("en-US"))

	// location of the frame — fields patched per realm.
	loc := script.NewObject()
	loc.Class = "Location"
	loc.Set("href", script.String(""))
	loc.Set("origin", script.String(""))
	loc.Set("hostname", script.String(""))
	loc.Set("protocol", script.String(""))

	// window: event target plus the usual aliases.
	win := script.NewObject()
	win.Class = "Window"
	win.Set("addEventListener", addEventListenerV)
	win.Set("removeEventListener", nat("removeEventListener", func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return script.Undefined(), nil
	}))
	win.Set("navigator", script.ObjectValue(nav))
	win.Set("document", script.ObjectValue(doc))
	win.Set("location", script.ObjectValue(loc))
	win.Set("isSecureContext", script.Bool(false))

	doc.Set("location", script.ObjectValue(loc))
	doc.Set("addEventListener", addEventListenerV)
	doc.Set("cookie", script.String(""))

	g.Define("window", script.ObjectValue(win))
	g.Define("self", script.ObjectValue(win))
	g.Define("globalThis", script.ObjectValue(win))
	g.Define("location", script.ObjectValue(loc))
	g.Define("addEventListener", addEventListenerV)
	g.Define("fetch", nat("fetch", func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		resp := script.NewObject()
		resp.Class = "Response"
		resp.Set("ok", script.Bool(true))
		resp.Set("status", script.Number(200))
		return script.ResolvedPromise(script.ObjectValue(resp)), nil
	}))
}

// installNavigator declares the navigator.* entry points.
func installNavigator(nav *script.Object) {
	entry(namespace(nav, "permissions", "Permissions"), permissionsQuery, queryPermission)

	md := namespace(nav, "mediaDevices", "MediaDevices")
	entry(md, "navigator.mediaDevices.getUserMedia", getUserMedia)
	promise(md, "navigator.mediaDevices.getDisplayMedia", "display-capture", instance("MediaStream"))
	promise(md, "navigator.mediaDevices.selectAudioOutput", "speaker-selection", instance("MediaDeviceInfo"))
	promise(nav, "navigator.requestMediaKeySystemAccess", "encrypted-media", instance("MediaKeySystemAccess"))

	geo := namespace(nav, "geolocation", "Geolocation")
	entry(geo, "navigator.geolocation.getCurrentPosition", position)
	entry(geo, "navigator.geolocation.watchPosition", position)
	geo.Set("clearWatch", nat("clearWatch", func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return script.Undefined(), nil
	}))

	// battery (tracking-associated, Table 4 rank 2).
	promise(nav, "navigator.getBattery", "battery", func() script.Value {
		bm := object("BatteryManager")
		bm.Obj().Set("level", script.Number(0.87))
		bm.Obj().Set("charging", script.Bool(true))
		bm.Obj().Set("addEventListener", addEventListenerV)
		return bm
	})
	cb := namespace(nav, "clipboard", "Clipboard")
	promise(cb, "navigator.clipboard.readText", "clipboard-read", func() script.Value { return script.String("") })
	promise(cb, "navigator.clipboard.read", "clipboard-read", emptyArray)
	promise(cb, "navigator.clipboard.writeText", "clipboard-write", script.Undefined)
	promise(cb, "navigator.clipboard.write", "clipboard-write", script.Undefined)
	promise(nav, "navigator.share", "web-share", script.Undefined)
	call(nav, "navigator.canShare", KindStatusCheck, "web-share", script.Bool)
	creds := namespace(nav, "credentials", "CredentialsContainer")
	entry(creds, "navigator.credentials.get", getCredential)
	promise(creds, "navigator.credentials.create", "publickey-credentials-create", instance("Credential"))
	kb := namespace(nav, "keyboard", "Keyboard")
	promise(kb, "navigator.keyboard.getLayoutMap", "keyboard-map", instance("KeyboardLayoutMap"))
	promise(kb, "navigator.keyboard.lock", "keyboard-lock", script.Undefined)
	call(nav, "navigator.getGamepads", KindInvocation, "gamepad", func(bool) script.Value { return script.ArrayValue() })
	promise(nav, "navigator.requestMIDIAccess", "midi", instance("MIDIAccess"))
	promise(namespace(nav, "usb", ""), "navigator.usb.requestDevice", "usb", instance("USBDevice"))
	promise(namespace(nav, "serial", ""), "navigator.serial.requestPort", "serial", instance("SerialPort"))
	promise(namespace(nav, "hid", ""), "navigator.hid.requestDevice", "hid", instance("HIDDevice"))
	promise(namespace(nav, "bluetooth", ""), "navigator.bluetooth.requestDevice", "bluetooth", instance("BluetoothDevice"))
	promise(namespace(nav, "wakeLock", ""), "navigator.wakeLock.request", "screen-wake-lock", instance("WakeLockSentinel"))
	xr := namespace(nav, "xr", "")
	promise(xr, "navigator.xr.requestSession", "xr-spatial-tracking", instance("XRSession"))
	check(xr, "navigator.xr.isSessionSupported", "xr-spatial-tracking", func(*Realm) bool { return false })
	// Privacy Sandbox ad APIs.
	promise(nav, "navigator.runAdAuction", "run-ad-auction", func() script.Value { return script.String("urn:uuid:auction-result") })
	promise(nav, "navigator.joinAdInterestGroup", "join-ad-interest-group", script.Undefined)
	// UA client hints.
	uad := namespace(nav, "userAgentData", "NavigatorUAData")
	uad.Set("mobile", script.Bool(false))
	entry(uad, "navigator.userAgentData.getHighEntropyValues", highEntropyValues)
}

// queryPermission is navigator.permissions.query — the most invoked
// General Permission API in the study. The permission comes from the
// descriptor; only policy-controlled ones can be denied by the policy.
func queryPermission(r *Realm, api string, _ *script.Interp, args []script.Value) (script.Value, error) {
	var names []string
	if len(args) > 0 {
		if p, ok := permissionFromQueryArg(args[0]); ok {
			names = []string{p}
		}
	}
	if len(names) == 0 {
		// TypeError in a real browser; record the probe anyway.
		r.record(api, KindStatusCheck, nil, false, false, false)
		return script.Undefined(), &script.RuntimeError{Msg: "query requires a PermissionDescriptor"}
	}
	perm := names[0]
	blocked := false
	if p, known := permissions.Lookup(perm); known && p.PolicyControlled() {
		blocked = !r.allowed(perm)
	}
	r.record(api, KindStatusCheck, names, false, blocked, false)
	status := object("PermissionStatus").Obj()
	status.Set("name", script.String(perm))
	state := "prompt"
	if blocked {
		state = "denied"
	}
	status.Set("state", script.String(state))
	status.Set("addEventListener", addEventListenerV)
	status.Set("onchange", script.Null())
	return script.ResolvedPromise(script.ObjectValue(status)), nil
}

// getUserMedia gates on the permissions its constraints ask for.
func getUserMedia(r *Realm, api string, _ *script.Interp, args []script.Value) (script.Value, error) {
	var perms []string
	if len(args) > 0 && args[0].Kind() == script.KindObject {
		if v, ok := args[0].Obj().Get("audio"); ok && v.Truthy() {
			perms = append(perms, "microphone")
		}
		if v, ok := args[0].Obj().Get("video"); ok && v.Truthy() {
			perms = append(perms, "camera")
		}
	}
	if len(perms) == 0 {
		return script.Undefined(), &script.RuntimeError{Msg: "getUserMedia requires audio or video"}
	}
	stream := object("MediaStream")
	stream.Obj().Set("active", script.Bool(true))
	return r.gatedPromise(api, perms, stream), nil
}

// position is getCurrentPosition and watchPosition: a blocked call
// reports PERMISSION_DENIED to its error callback, an allowed one hands
// a fixed position to its success callback.
func position(r *Realm, api string, in *script.Interp, args []script.Value) (script.Value, error) {
	blocked := !r.allowed("geolocation")
	r.record(api, KindInvocation, []string{"geolocation"}, false, blocked, false)
	if blocked {
		if len(args) > 1 && args[1].IsCallable() {
			e := script.NewObject()
			e.Set("code", script.Number(1)) // PERMISSION_DENIED
			e.Set("message", script.String("permissions policy"))
			if _, err := in.CallFunction(args[1], script.Undefined(), []script.Value{script.ObjectValue(e)}); err != nil {
				return script.Undefined(), err
			}
		}
		return script.Undefined(), nil
	}
	if len(args) > 0 && args[0].IsCallable() {
		pos := script.NewObject()
		coords := script.NewObject()
		coords.Set("latitude", script.Number(52.52))
		coords.Set("longitude", script.Number(13.405))
		pos.Set("coords", script.ObjectValue(coords))
		if _, err := in.CallFunction(args[0], script.Undefined(), []script.Value{script.ObjectValue(pos)}); err != nil {
			return script.Undefined(), err
		}
	}
	return script.Number(1), nil
}

// getCredential gates on the credential type its options ask for.
func getCredential(r *Realm, api string, _ *script.Interp, args []script.Value) (script.Value, error) {
	perm := "publickey-credentials-get"
	if len(args) > 0 && args[0].Kind() == script.KindObject {
		if _, ok := args[0].Obj().Get("identity"); ok {
			perm = "identity-credentials-get"
		} else if _, ok := args[0].Obj().Get("otp"); ok {
			perm = "otp-credentials"
		}
	}
	return r.gatedPromise(api, []string{perm}, object("Credential")), nil
}

// highEntropyValues records the client hints it is asked for, or
// ch-ua when none is known; no policy blocks it.
func highEntropyValues(r *Realm, api string, _ *script.Interp, args []script.Value) (script.Value, error) {
	var perms []string
	if len(args) > 0 && args[0].Kind() == script.KindArray {
		for _, h := range args[0].Arr().Elems {
			hint := "ch-ua-" + h.ToString()
			if permissions.Known(hint) {
				perms = append(perms, hint)
			}
		}
	}
	if len(perms) == 0 {
		perms = []string{"ch-ua"}
	}
	r.record(api, KindInvocation, perms, false, false, false)
	return script.ResolvedPromise(script.ObjectValue(script.NewObject())), nil
}

// element holds what every host element shares, the entry points of
// the element-level permissions (fullscreen, pointer lock,
// picture-in-picture, autoplay) among them.
var element = func() (el members) {
	el.Set("addEventListener", addEventListenerV)
	el.Set("setAttribute", noopV)
	el.Set("click", noopV)
	promise(&el, "element.requestFullscreen", "fullscreen", script.Undefined)
	call(&el, "element.requestPointerLock", KindInvocation, "pointer-lock", func(bool) script.Value { return script.Undefined() })
	promise(&el, "element.requestPictureInPicture", "picture-in-picture", instance("PictureInPictureWindow"))
	promise(&el, "element.play", "autoplay", script.Undefined)
	return el
}()

// mkElement builds a fresh host element.
func mkElement(tag string) script.Value {
	el := object("HTMLElement")
	el.Obj().Set("tagName", script.String(tag))
	element.set(el.Obj())
	return el
}

// installDocument declares the document-level entry points and the
// policy objects.
func installDocument(doc *script.Object) {
	promise(doc, "document.browsingTopics", "browsing-topics", func() script.Value {
		topic := script.NewObject()
		topic.Set("topic", script.Number(42))
		return script.ArrayValue(script.ObjectValue(topic))
	})
	promise(doc, "document.interestCohort", "interest-cohort", instance(""))
	promise(doc, "document.requestStorageAccess", "storage-access", script.Undefined)
	check(doc, "document.hasStorageAccess", "storage-access", func(r *Realm) bool { return r.Doc.IsTopLevel() })
	promise(doc, "document.requestStorageAccessFor", "top-level-storage-access", script.Undefined)

	doc.Set("createElement", nat("document.createElement", func(_ *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
		tag := "div"
		if len(args) > 0 {
			tag = args[0].ToString()
		}
		return mkElement(tag), nil
	}))
	doc.Set("getElementById", nat("document.getElementById", func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return mkElement("div"), nil
	}))
	doc.Set("querySelector", nat("document.querySelector", func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return mkElement("div"), nil
	}))
	doc.Set("body", mkElement("body"))

	for _, p := range policyObjects {
		installPolicyObject(doc, p.api, p.deprecated)
	}
}

// installPolicyObject declares one policy object's four status checks;
// those of the Feature Policy twin record as deprecated.
func installPolicyObject(doc *script.Object, api string, deprecated bool) {
	o := namespace(doc, key(api), "FeaturePolicy")
	entry(o, api+".allowedFeatures", func(r *Realm, api string, _ *script.Interp, _ []script.Value) (script.Value, error) {
		r.record(api, KindStatusCheck, nil, true, false, deprecated)
		return script.StringsValue(r.supportedAllowed()), nil
	})
	entry(o, api+".features", func(r *Realm, api string, _ *script.Interp, _ []script.Value) (script.Value, error) {
		r.record(api, KindStatusCheck, nil, true, false, deprecated)
		return script.StringsValue(permissions.SupportedPermissions(r.Browser, r.Version)), nil
	})
	entry(o, api+".allowsFeature", func(r *Realm, api string, _ *script.Interp, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.Bool(false), nil
		}
		name := args[0].ToString()
		allowed := r.allowed(name)
		r.record(api, KindStatusCheck, []string{name}, false, !allowed, deprecated)
		return script.Bool(allowed), nil
	})
	entry(o, api+".getAllowlistForFeature", func(r *Realm, api string, _ *script.Interp, _ []script.Value) (script.Value, error) {
		r.record(api, KindStatusCheck, nil, false, false, deprecated)
		return script.ArrayValue(), nil
	})
}

// supportedAllowed intersects the document's allowed features with the
// browser's supported surface — allowedFeatures() only reports features
// the engine knows, which is what makes it a version fingerprint.
func (r *Realm) supportedAllowed() []string {
	var out []string
	for _, f := range r.Doc.AllowedFeatures() {
		if permissions.SupportedIn(f, r.Browser, r.Version) {
			out = append(out, f)
		}
	}
	return out
}

// pushManager holds what every registration's push manager shares.
var pushManager = func() (pm members) {
	entry(&pm, "pushManager.subscribe", func(r *Realm, api string, _ *script.Interp, _ []script.Value) (script.Value, error) {
		if r.topLevelOnly(api, "push") {
			return rejectedDOMException("NotAllowedError", "push requires a top-level context"), nil
		}
		return script.ResolvedPromise(object("PushSubscription")), nil
	})
	return pm
}()

// newSWRegistration builds a fresh service-worker registration. Each
// register() call gets its own — a native-captured singleton would be
// one object shared, and written, by every realm.
func newSWRegistration() script.Value {
	swReg := script.NewObject()
	swReg.Set("pushManager", script.ObjectValue(pushManager.set(object("PushManager").Obj())))
	return script.ObjectValue(swReg)
}

// installConstructors declares the `new`-style APIs — Notification,
// sensors, PaymentRequest, IdleDetector, PressureObserver, direct
// sockets — with push and the window-level functions.
func installConstructors(g *script.Env, nav *script.Object) {
	// Notification: not policy-controlled; available only top-level.
	notif := script.NewObject()
	notif.Class = "NotificationConstructor"
	notif.Call = construct("Notification", func(r *Realm, api string, _ *script.Interp, args []script.Value) (script.Value, error) {
		r.topLevelOnly(api, "notifications")
		n := object("Notification")
		if len(args) > 0 {
			n.Obj().Set("title", args[0])
		}
		return n, nil
	})
	notif.Set("permission", script.String("default"))
	entry(notif, "Notification.requestPermission", func(r *Realm, api string, _ *script.Interp, _ []script.Value) (script.Value, error) {
		state := "default"
		if r.topLevelOnly(api, "notifications") {
			state = "denied"
		}
		return script.ResolvedPromise(script.String(state)), nil
	})
	g.Define("Notification", script.ObjectValue(notif))

	// Push (via a minimal service-worker registration surface).
	sw := namespace(nav, "serviceWorker", "")
	sw.Set("register", nat("serviceWorker.register", func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return script.ResolvedPromise(newSWRegistration()), nil
	}))
	sw.Set("ready", script.ResolvedPromise(newSWRegistration()))

	sensor := members{{"start", noopV}, {"stop", noopV}, {"addEventListener", addEventListenerV}}
	constructor(g, "Accelerometer", "accelerometer", true, sensor)
	constructor(g, "Gyroscope", "gyroscope", true, sensor)
	constructor(g, "Magnetometer", "magnetometer", true, sensor)
	constructor(g, "AmbientLightSensor", "ambient-light-sensor", true, sensor)

	var payment members
	promise(&payment, "PaymentRequest.show", "payment", instance("PaymentResponse"))
	check(&payment, "PaymentRequest.canMakePayment", "payment", func(*Realm) bool { return true })
	constructor(g, "PaymentRequest", "payment", true, payment)

	resolved := func(name string) script.Value {
		return nat(name, func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
			return script.ResolvedPromise(script.Undefined()), nil
		})
	}
	idle := constructor(g, "IdleDetector", "idle-detection", false, members{{"start", resolved("start")}, {"addEventListener", addEventListenerV}})
	call(idle, "IdleDetector.requestPermission", KindInvocation, "idle-detection", func(bool) script.Value {
		return script.ResolvedPromise(script.String("granted"))
	})
	constructor(g, "PressureObserver", "compute-pressure", false, members{{"observe", resolved("observe")}})
	constructor(g, "TCPSocket", "direct-sockets", false, nil)
	constructor(g, "UDPSocket", "direct-sockets", false, nil)

	promise(globals{g}, "queryLocalFonts", "local-fonts", emptyArray)
	promise(globals{g}, "getScreenDetails", "window-management", instance("ScreenDetails"))
}

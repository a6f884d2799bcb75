package webapi

import (
	"fmt"
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
	// ParseScript, when non-nil, replaces script.Parse — the crawl
	// installs a shared ParseCache here so each distinct script body is
	// parsed once per crawl instead of once per including frame.
	ParseScript func(src string) (*script.Program, error)
	// CompileScript, when non-nil, supplies pre-lowered programs
	// (typically CompileCache.Compile) and takes precedence over
	// ParseScript: scripts run through the compiled fast path.
	CompileScript func(src string) (*script.Compiled, error)

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
		handlers: map[string][]script.Value{},
	}
	r.In.InstallSnapshot(surfaceSnapshot())
	r.In.Host = r
	r.patchRealmState()
	return r
}

// RunScript executes one script in the realm. scriptURL is "" for
// inline scripts (attributed to the frame itself, like the paper does).
func (r *Realm) RunScript(src, scriptURL string) error {
	if scriptURL == "" {
		scriptURL = r.FrameURL
	}
	if r.CompileScript != nil {
		prog, err := r.CompileScript(src)
		if err != nil {
			return err
		}
		return r.In.RunCompiled(prog, scriptURL)
	}
	if r.ParseScript != nil {
		prog, err := r.ParseScript(src)
		if err != nil {
			return err
		}
		return r.In.RunProgram(prog, scriptURL)
	}
	return r.In.Run(src, scriptURL)
}

// FireEvent invokes every handler registered for the event — the
// "manual interaction" pass of Appendix A.3 (clicks, loads, logins).
func (r *Realm) FireEvent(name string) error {
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

// rnat is shorthand for a realm-aware native function value.
func rnat(name string, fn func(r *Realm, in *script.Interp, this script.Value, args []script.Value) (script.Value, error)) script.Value {
	return script.NativeValue(name, func(in *script.Interp, this script.Value, args []script.Value) (script.Value, error) {
		return fn(hostRealm(in), in, this, args)
	})
}

// rnativeOf is rnat for constructor Call slots.
func rnativeOf(name string, fn func(r *Realm, in *script.Interp, this script.Value, args []script.Value) (script.Value, error)) *script.Native {
	return &script.Native{Name: name, Fn: func(in *script.Interp, this script.Value, args []script.Value) (script.Value, error) {
		return fn(hostRealm(in), in, this, args)
	}}
}

// addEventListenerV is the shared handler-registration native; it
// appends into the calling realm's handlers map.
var addEventListenerV = rnat("addEventListener", func(r *Realm, _ *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
	if len(args) >= 2 && args[0].Kind() == script.KindString && args[1].IsCallable() {
		name := args[0].Str()
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
	// Define the globals before wiring members: installConstructors
	// attaches navigator.serviceWorker by global lookup.
	g.Define("navigator", script.ObjectValue(nav))
	g.Define("document", script.ObjectValue(doc))

	installPermissionsAPI(nav)
	installMedia(nav)
	installGeolocation(nav)
	installSimpleNavigatorAPIs(nav)
	installDocumentAPIs(doc)
	installPolicyAPIs(doc)
	installConstructors(g)

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

// installPermissionsAPI wires navigator.permissions.query — the most
// invoked general API in the study.
func installPermissionsAPI(nav *script.Object) {
	perms := script.NewObject()
	perms.Class = "Permissions"
	perms.Set("query", rnat("navigator.permissions.query", func(r *Realm, in *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
		var names []string
		if len(args) > 0 {
			if p, ok := permissionFromQueryArg(args[0]); ok {
				names = []string{p}
			}
		}
		if len(names) == 0 {
			// TypeError in a real browser; record the probe anyway.
			r.record("navigator.permissions.query", KindStatusCheck, nil, false, false, false)
			return script.Undefined(), &script.RuntimeError{Msg: "query requires a PermissionDescriptor"}
		}
		perm := names[0]
		blocked := false
		if p, known := permissions.Lookup(perm); known && p.PolicyControlled() {
			blocked = !r.allowed(perm)
		}
		r.record("navigator.permissions.query", KindStatusCheck, names, false, blocked, false)
		status := script.NewObject()
		status.Class = "PermissionStatus"
		status.Set("name", script.String(perm))
		state := "prompt"
		if blocked {
			state = "denied"
		}
		status.Set("state", script.String(state))
		status.Set("addEventListener", addEventListenerV)
		status.Set("onchange", script.Null())
		return script.ResolvedPromise(script.ObjectValue(status)), nil
	}))
	nav.Set("permissions", script.ObjectValue(perms))
}

// installMedia wires getUserMedia / getDisplayMedia / encrypted media.
func installMedia(nav *script.Object) {
	md := script.NewObject()
	md.Class = "MediaDevices"
	md.Set("getUserMedia", rnat("navigator.mediaDevices.getUserMedia", func(r *Realm, _ *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
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
		stream := script.NewObject()
		stream.Class = "MediaStream"
		stream.Set("active", script.Bool(true))
		return r.gatedPromise("navigator.mediaDevices.getUserMedia", perms, script.ObjectValue(stream)), nil
	}))
	md.Set("getDisplayMedia", rnat("navigator.mediaDevices.getDisplayMedia", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		stream := script.NewObject()
		stream.Class = "MediaStream"
		return r.gatedPromise("navigator.mediaDevices.getDisplayMedia", []string{"display-capture"}, script.ObjectValue(stream)), nil
	}))
	md.Set("selectAudioOutput", rnat("navigator.mediaDevices.selectAudioOutput", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		dev := script.NewObject()
		dev.Class = "MediaDeviceInfo"
		return r.gatedPromise("navigator.mediaDevices.selectAudioOutput", []string{"speaker-selection"}, script.ObjectValue(dev)), nil
	}))
	nav.Set("mediaDevices", script.ObjectValue(md))

	nav.Set("requestMediaKeySystemAccess", rnat("navigator.requestMediaKeySystemAccess", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		access := script.NewObject()
		access.Class = "MediaKeySystemAccess"
		return r.gatedPromise("navigator.requestMediaKeySystemAccess", []string{"encrypted-media"}, script.ObjectValue(access)), nil
	}))
}

func installGeolocation(nav *script.Object) {
	geo := script.NewObject()
	geo.Class = "Geolocation"
	positionCall := func(api string) script.Value {
		return rnat(api, func(r *Realm, in *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
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
		})
	}
	geo.Set("getCurrentPosition", positionCall("navigator.geolocation.getCurrentPosition"))
	geo.Set("watchPosition", positionCall("navigator.geolocation.watchPosition"))
	geo.Set("clearWatch", nat("clearWatch", func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return script.Undefined(), nil
	}))
	nav.Set("geolocation", script.ObjectValue(geo))
}

// installSimpleNavigatorAPIs wires the long tail of navigator.* calls.
func installSimpleNavigatorAPIs(nav *script.Object) {
	// battery (tracking-associated, Table 4 rank 2).
	nav.Set("getBattery", rnat("navigator.getBattery", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		bm := script.NewObject()
		bm.Class = "BatteryManager"
		bm.Set("level", script.Number(0.87))
		bm.Set("charging", script.Bool(true))
		bm.Set("addEventListener", addEventListenerV)
		return r.gatedPromise("navigator.getBattery", []string{"battery"}, script.ObjectValue(bm)), nil
	}))

	// clipboard.
	cb := script.NewObject()
	cb.Class = "Clipboard"
	cb.Set("readText", rnat("navigator.clipboard.readText", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("navigator.clipboard.readText", []string{"clipboard-read"}, script.String("")), nil
	}))
	cb.Set("read", rnat("navigator.clipboard.read", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("navigator.clipboard.read", []string{"clipboard-read"}, script.ArrayValue()), nil
	}))
	cb.Set("writeText", rnat("navigator.clipboard.writeText", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("navigator.clipboard.writeText", []string{"clipboard-write"}, script.Undefined()), nil
	}))
	cb.Set("write", rnat("navigator.clipboard.write", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("navigator.clipboard.write", []string{"clipboard-write"}, script.Undefined()), nil
	}))
	nav.Set("clipboard", script.ObjectValue(cb))

	// web share.
	nav.Set("share", rnat("navigator.share", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("navigator.share", []string{"web-share"}, script.Undefined()), nil
	}))
	nav.Set("canShare", rnat("navigator.canShare", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		r.record("navigator.canShare", KindStatusCheck, []string{"web-share"}, false, !r.allowed("web-share"), false)
		return script.Bool(r.allowed("web-share")), nil
	}))

	// credentials.
	creds := script.NewObject()
	creds.Class = "CredentialsContainer"
	creds.Set("get", rnat("navigator.credentials.get", func(r *Realm, _ *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
		perm := "publickey-credentials-get"
		if len(args) > 0 && args[0].Kind() == script.KindObject {
			if _, ok := args[0].Obj().Get("identity"); ok {
				perm = "identity-credentials-get"
			} else if _, ok := args[0].Obj().Get("otp"); ok {
				perm = "otp-credentials"
			}
		}
		cred := script.NewObject()
		cred.Class = "Credential"
		return r.gatedPromise("navigator.credentials.get", []string{perm}, script.ObjectValue(cred)), nil
	}))
	creds.Set("create", rnat("navigator.credentials.create", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		cred := script.NewObject()
		cred.Class = "Credential"
		return r.gatedPromise("navigator.credentials.create", []string{"publickey-credentials-create"}, script.ObjectValue(cred)), nil
	}))
	nav.Set("credentials", script.ObjectValue(creds))

	// keyboard.
	kb := script.NewObject()
	kb.Class = "Keyboard"
	kb.Set("getLayoutMap", rnat("navigator.keyboard.getLayoutMap", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		m := script.NewObject()
		m.Class = "KeyboardLayoutMap"
		return r.gatedPromise("navigator.keyboard.getLayoutMap", []string{"keyboard-map"}, script.ObjectValue(m)), nil
	}))
	kb.Set("lock", rnat("navigator.keyboard.lock", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("navigator.keyboard.lock", []string{"keyboard-lock"}, script.Undefined()), nil
	}))
	nav.Set("keyboard", script.ObjectValue(kb))

	// gamepad.
	nav.Set("getGamepads", rnat("navigator.getGamepads", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		blocked := !r.allowed("gamepad")
		r.record("navigator.getGamepads", KindInvocation, []string{"gamepad"}, false, blocked, false)
		return script.ArrayValue(), nil
	}))

	// midi.
	nav.Set("requestMIDIAccess", rnat("navigator.requestMIDIAccess", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		access := script.NewObject()
		access.Class = "MIDIAccess"
		return r.gatedPromise("navigator.requestMIDIAccess", []string{"midi"}, script.ObjectValue(access)), nil
	}))

	// device APIs: usb / serial / hid / bluetooth.
	deviceAPI := func(ns, method, perm, class string) {
		o := script.NewObject()
		api := "navigator." + ns + "." + method
		o.Set(method, rnat(api, func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
			dev := script.NewObject()
			dev.Class = class
			return r.gatedPromise(api, []string{perm}, script.ObjectValue(dev)), nil
		}))
		nav.Set(ns, script.ObjectValue(o))
	}
	deviceAPI("usb", "requestDevice", "usb", "USBDevice")
	deviceAPI("serial", "requestPort", "serial", "SerialPort")
	deviceAPI("hid", "requestDevice", "hid", "HIDDevice")
	deviceAPI("bluetooth", "requestDevice", "bluetooth", "BluetoothDevice")

	// wake lock.
	wl := script.NewObject()
	wl.Set("request", rnat("navigator.wakeLock.request", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		sentinel := script.NewObject()
		sentinel.Class = "WakeLockSentinel"
		return r.gatedPromise("navigator.wakeLock.request", []string{"screen-wake-lock"}, script.ObjectValue(sentinel)), nil
	}))
	nav.Set("wakeLock", script.ObjectValue(wl))

	// WebXR.
	xr := script.NewObject()
	xr.Set("requestSession", rnat("navigator.xr.requestSession", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		sess := script.NewObject()
		sess.Class = "XRSession"
		return r.gatedPromise("navigator.xr.requestSession", []string{"xr-spatial-tracking"}, script.ObjectValue(sess)), nil
	}))
	xr.Set("isSessionSupported", rnat("navigator.xr.isSessionSupported", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		r.record("navigator.xr.isSessionSupported", KindStatusCheck, []string{"xr-spatial-tracking"}, false, false, false)
		return script.ResolvedPromise(script.Bool(false)), nil
	}))
	nav.Set("xr", script.ObjectValue(xr))

	// Privacy Sandbox ad APIs.
	nav.Set("runAdAuction", rnat("navigator.runAdAuction", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("navigator.runAdAuction", []string{"run-ad-auction"}, script.String("urn:uuid:auction-result")), nil
	}))
	nav.Set("joinAdInterestGroup", rnat("navigator.joinAdInterestGroup", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("navigator.joinAdInterestGroup", []string{"join-ad-interest-group"}, script.Undefined()), nil
	}))

	// UA client hints.
	uad := script.NewObject()
	uad.Class = "NavigatorUAData"
	uad.Set("mobile", script.Bool(false))
	uad.Set("getHighEntropyValues", rnat("navigator.userAgentData.getHighEntropyValues", func(r *Realm, _ *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
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
		r.record("navigator.userAgentData.getHighEntropyValues", KindInvocation, perms, false, false, false)
		return script.ResolvedPromise(script.ObjectValue(script.NewObject())), nil
	}))
	nav.Set("userAgentData", script.ObjectValue(uad))
}

// mkElement builds a host element supporting the element-level
// permission surface (fullscreen, picture-in-picture, pointer lock,
// autoplay). Elements are created fresh per call; their methods are
// shared realm-aware natives.
func mkElement(tag string) script.Value {
	el := script.NewObject()
	el.Class = "HTMLElement"
	el.Set("tagName", script.String(tag))
	el.Set("addEventListener", addEventListenerV)
	el.Set("setAttribute", noopV)
	el.Set("click", noopV)
	el.Set("requestFullscreen", requestFullscreenV)
	el.Set("requestPointerLock", requestPointerLockV)
	el.Set("requestPictureInPicture", requestPictureInPictureV)
	el.Set("play", playV)
	return script.ObjectValue(el)
}

var (
	requestFullscreenV = rnat("element.requestFullscreen", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("element.requestFullscreen", []string{"fullscreen"}, script.Undefined()), nil
	})
	requestPointerLockV = rnat("element.requestPointerLock", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		blocked := !r.allowed("pointer-lock")
		r.record("element.requestPointerLock", KindInvocation, []string{"pointer-lock"}, false, blocked, false)
		return script.Undefined(), nil
	})
	requestPictureInPictureV = rnat("element.requestPictureInPicture", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		w := script.NewObject()
		w.Class = "PictureInPictureWindow"
		return r.gatedPromise("element.requestPictureInPicture", []string{"picture-in-picture"}, script.ObjectValue(w)), nil
	})
	playV = rnat("element.play", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("element.play", []string{"autoplay"}, script.Undefined()), nil
	})
)

// installDocumentAPIs wires document-level permission calls.
func installDocumentAPIs(doc *script.Object) {
	doc.Set("browsingTopics", rnat("document.browsingTopics", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		topic := script.NewObject()
		topic.Set("topic", script.Number(42))
		return r.gatedPromise("document.browsingTopics", []string{"browsing-topics"}, script.ArrayValue(script.ObjectValue(topic))), nil
	}))
	doc.Set("interestCohort", rnat("document.interestCohort", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("document.interestCohort", []string{"interest-cohort"}, script.ObjectValue(script.NewObject())), nil
	}))
	doc.Set("requestStorageAccess", rnat("document.requestStorageAccess", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("document.requestStorageAccess", []string{"storage-access"}, script.Undefined()), nil
	}))
	doc.Set("hasStorageAccess", rnat("document.hasStorageAccess", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		r.record("document.hasStorageAccess", KindStatusCheck, []string{"storage-access"}, false, false, false)
		return script.ResolvedPromise(script.Bool(r.Doc.IsTopLevel())), nil
	}))
	doc.Set("requestStorageAccessFor", rnat("document.requestStorageAccessFor", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("document.requestStorageAccessFor", []string{"top-level-storage-access"}, script.Undefined()), nil
	}))

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
}

// installPolicyAPIs wires the General Permission APIs of the Permissions
// Policy spec and the deprecated Feature Policy spec.
func installPolicyAPIs(doc *script.Object) {
	mk := func(prefix string, deprecated bool) script.Value {
		o := script.NewObject()
		o.Class = "FeaturePolicy"
		o.Set("allowedFeatures", rnat(prefix+".allowedFeatures", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
			r.record(prefix+".allowedFeatures", KindStatusCheck, nil, true, false, deprecated)
			return script.StringsValue(r.supportedAllowed()), nil
		}))
		o.Set("features", rnat(prefix+".features", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
			r.record(prefix+".features", KindStatusCheck, nil, true, false, deprecated)
			return script.StringsValue(permissions.SupportedPermissions(r.Browser, r.Version)), nil
		}))
		o.Set("allowsFeature", rnat(prefix+".allowsFeature", func(r *Realm, _ *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
			if len(args) == 0 {
				return script.Bool(false), nil
			}
			name := args[0].ToString()
			allowed := r.allowed(name)
			r.record(prefix+".allowsFeature", KindStatusCheck, []string{name}, false, !allowed, deprecated)
			return script.Bool(allowed), nil
		}))
		o.Set("getAllowlistForFeature", rnat(prefix+".getAllowlistForFeature", func(r *Realm, _ *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
			r.record(prefix+".getAllowlistForFeature", KindStatusCheck, nil, false, false, deprecated)
			return script.ArrayValue(), nil
		}))
		return script.ObjectValue(o)
	}
	doc.Set("featurePolicy", mk("document.featurePolicy", true))
	doc.Set("permissionsPolicy", mk("document.permissionsPolicy", false))
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

// pushSubscribeV backs pushManager.subscribe on every registration.
var pushSubscribeV = rnat("pushManager.subscribe", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
	blocked := !r.Doc.IsTopLevel()
	r.record("pushManager.subscribe", KindInvocation, []string{"push"}, false, blocked, false)
	sub := script.NewObject()
	sub.Class = "PushSubscription"
	if blocked {
		return rejectedDOMException("NotAllowedError", "push requires a top-level context"), nil
	}
	return script.ResolvedPromise(script.ObjectValue(sub)), nil
})

// newSWRegistration builds a fresh service-worker registration. Each
// register() call gets its own — a native-captured singleton would be
// one object shared, and written, by every realm.
func newSWRegistration() script.Value {
	swReg := script.NewObject()
	pushMgr := script.NewObject()
	pushMgr.Class = "PushManager"
	pushMgr.Set("subscribe", pushSubscribeV)
	swReg.Set("pushManager", script.ObjectValue(pushMgr))
	return script.ObjectValue(swReg)
}

// installConstructors wires `new`-style APIs: Notification, sensors,
// PaymentRequest, IdleDetector, PressureObserver, direct sockets.
func installConstructors(g *script.Env) {
	// Notification: not policy-controlled; available only top-level.
	notif := script.NewObject()
	notif.Class = "NotificationConstructor"
	notif.Call = rnativeOf("Notification", func(r *Realm, _ *script.Interp, _ script.Value, args []script.Value) (script.Value, error) {
		blocked := !r.Doc.IsTopLevel()
		r.record("new Notification", KindInvocation, []string{"notifications"}, false, blocked, false)
		n := script.NewObject()
		n.Class = "Notification"
		if len(args) > 0 {
			n.Set("title", args[0])
		}
		return script.ObjectValue(n), nil
	})
	notif.Set("permission", script.String("default"))
	notif.Set("requestPermission", rnat("Notification.requestPermission", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		blocked := !r.Doc.IsTopLevel()
		r.record("Notification.requestPermission", KindInvocation, []string{"notifications"}, false, blocked, false)
		state := "default"
		if blocked {
			state = "denied"
		}
		return script.ResolvedPromise(script.String(state)), nil
	}))
	g.Define("Notification", script.ObjectValue(notif))

	// Push (via a minimal service-worker registration surface).
	sw := script.NewObject()
	sw.Set("register", nat("serviceWorker.register", func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return script.ResolvedPromise(newSWRegistration()), nil
	}))
	sw.Set("ready", script.ResolvedPromise(newSWRegistration()))
	if nav, ok := g.Get("navigator"); ok && nav.Kind() == script.KindObject {
		nav.Obj().Set("serviceWorker", script.ObjectValue(sw))
	}

	// Sensor constructors.
	sensorCtor := func(name, perm string) {
		ctor := script.NewObject()
		ctor.Call = rnativeOf(name, func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
			blocked := !r.allowed(perm)
			r.record("new "+name, KindInvocation, []string{perm}, false, blocked, false)
			if blocked {
				return script.Undefined(), &script.RuntimeError{Msg: "SecurityError: " + perm + " disallowed by permissions policy"}
			}
			s := script.NewObject()
			s.Class = name
			s.Set("start", noopV)
			s.Set("stop", noopV)
			s.Set("addEventListener", addEventListenerV)
			return script.ObjectValue(s), nil
		})
		g.Define(name, script.ObjectValue(ctor))
	}
	sensorCtor("Accelerometer", "accelerometer")
	sensorCtor("Gyroscope", "gyroscope")
	sensorCtor("Magnetometer", "magnetometer")
	sensorCtor("AmbientLightSensor", "ambient-light-sensor")

	// PaymentRequest.
	pr := script.NewObject()
	pr.Call = rnativeOf("PaymentRequest", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		blocked := !r.allowed("payment")
		r.record("new PaymentRequest", KindInvocation, []string{"payment"}, false, blocked, false)
		if blocked {
			return script.Undefined(), &script.RuntimeError{Msg: "SecurityError: payment disallowed by permissions policy"}
		}
		req := script.NewObject()
		req.Class = "PaymentRequest"
		req.Set("show", rnat("PaymentRequest.show", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
			resp := script.NewObject()
			resp.Class = "PaymentResponse"
			return r.gatedPromise("PaymentRequest.show", []string{"payment"}, script.ObjectValue(resp)), nil
		}))
		req.Set("canMakePayment", rnat("PaymentRequest.canMakePayment", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
			r.record("PaymentRequest.canMakePayment", KindStatusCheck, []string{"payment"}, false, false, false)
			return script.ResolvedPromise(script.Bool(true)), nil
		}))
		return script.ObjectValue(req), nil
	})
	g.Define("PaymentRequest", script.ObjectValue(pr))

	// IdleDetector with static requestPermission.
	idle := script.NewObject()
	idle.Call = rnativeOf("IdleDetector", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		blocked := !r.allowed("idle-detection")
		r.record("new IdleDetector", KindInvocation, []string{"idle-detection"}, false, blocked, false)
		d := script.NewObject()
		d.Class = "IdleDetector"
		d.Set("start", nat("start", func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
			return script.ResolvedPromise(script.Undefined()), nil
		}))
		d.Set("addEventListener", addEventListenerV)
		return script.ObjectValue(d), nil
	})
	idle.Set("requestPermission", rnat("IdleDetector.requestPermission", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		blocked := !r.allowed("idle-detection")
		r.record("IdleDetector.requestPermission", KindInvocation, []string{"idle-detection"}, false, blocked, false)
		return script.ResolvedPromise(script.String("granted")), nil
	}))
	g.Define("IdleDetector", script.ObjectValue(idle))

	// PressureObserver (compute-pressure).
	po := script.NewObject()
	po.Call = rnativeOf("PressureObserver", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		blocked := !r.allowed("compute-pressure")
		r.record("new PressureObserver", KindInvocation, []string{"compute-pressure"}, false, blocked, false)
		o := script.NewObject()
		o.Class = "PressureObserver"
		o.Set("observe", nat("observe", func(_ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
			return script.ResolvedPromise(script.Undefined()), nil
		}))
		return script.ObjectValue(o), nil
	})
	g.Define("PressureObserver", script.ObjectValue(po))

	// Direct sockets.
	sockCtor := func(name string) {
		c := script.NewObject()
		c.Call = rnativeOf(name, func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
			blocked := !r.allowed("direct-sockets")
			r.record("new "+name, KindInvocation, []string{"direct-sockets"}, false, blocked, false)
			s := script.NewObject()
			s.Class = name
			return script.ObjectValue(s), nil
		})
		g.Define(name, script.ObjectValue(c))
	}
	sockCtor("TCPSocket")
	sockCtor("UDPSocket")

	// queryLocalFonts / getScreenDetails are window-level functions.
	g.Define("queryLocalFonts", rnat("queryLocalFonts", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		return r.gatedPromise("queryLocalFonts", []string{"local-fonts"}, script.ArrayValue()), nil
	}))
	g.Define("getScreenDetails", rnat("getScreenDetails", func(r *Realm, _ *script.Interp, _ script.Value, _ []script.Value) (script.Value, error) {
		details := script.NewObject()
		details.Class = "ScreenDetails"
		return r.gatedPromise("getScreenDetails", []string{"window-management"}, script.ObjectValue(details)), nil
	}))
}

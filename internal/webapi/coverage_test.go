package webapi

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"permodyssey/internal/origin"
	"permodyssey/internal/permissions"
	"permodyssey/internal/policy"
)

// permissionSnippets maps each instrumented permission to a script that
// must produce a dynamic record for it. Together they prove the realm
// covers the Appendix A.4 surface.
var permissionSnippets = map[string]string{
	"camera":                       `navigator.mediaDevices.getUserMedia({video: true})`,
	"microphone":                   `navigator.mediaDevices.getUserMedia({audio: true})`,
	"display-capture":              `navigator.mediaDevices.getDisplayMedia({video: true})`,
	"speaker-selection":            `navigator.mediaDevices.selectAudioOutput()`,
	"geolocation":                  `navigator.geolocation.watchPosition(function () {})`,
	"battery":                      `navigator.getBattery()`,
	"clipboard-read":               `navigator.clipboard.readText()`,
	"clipboard-write":              `navigator.clipboard.write([])`,
	"web-share":                    `navigator.share({url: 'https://x'})`,
	"publickey-credentials-get":    `navigator.credentials.get({publicKey: {}})`,
	"publickey-credentials-create": `navigator.credentials.create({})`,
	"identity-credentials-get":     `navigator.credentials.get({identity: {}})`,
	"otp-credentials":              `navigator.credentials.get({otp: {}})`,
	"keyboard-map":                 `navigator.keyboard.getLayoutMap()`,
	"keyboard-lock":                `navigator.keyboard.lock()`,
	"gamepad":                      `navigator.getGamepads()`,
	"midi":                         `navigator.requestMIDIAccess()`,
	"usb":                          `navigator.usb.requestDevice({})`,
	"serial":                       `navigator.serial.requestPort()`,
	"hid":                          `navigator.hid.requestDevice({})`,
	"bluetooth":                    `navigator.bluetooth.requestDevice({})`,
	"screen-wake-lock":             `navigator.wakeLock.request('screen')`,
	"xr-spatial-tracking":          `navigator.xr.requestSession('immersive-vr')`,
	"run-ad-auction":               `navigator.runAdAuction({})`,
	"join-ad-interest-group":       `navigator.joinAdInterestGroup({})`,
	"encrypted-media":              `navigator.requestMediaKeySystemAccess('x', [])`,
	"browsing-topics":              `document.browsingTopics()`,
	"interest-cohort":              `document.interestCohort()`,
	"storage-access":               `document.requestStorageAccess()`,
	"top-level-storage-access":     `document.requestStorageAccessFor('https://o.example')`,
	"fullscreen":                   `document.body.requestFullscreen()`,
	"pointer-lock":                 `document.body.requestPointerLock()`,
	"picture-in-picture":           `document.createElement('video').requestPictureInPicture()`,
	"autoplay":                     `document.createElement('video').play()`,
	"notifications":                `Notification.requestPermission()`,
	"push":                         `navigator.serviceWorker.register('/sw.js').then(function (r) { r.pushManager.subscribe({}); })`,
	"accelerometer":                `new Accelerometer()`,
	"gyroscope":                    `new Gyroscope()`,
	"magnetometer":                 `new Magnetometer()`,
	"ambient-light-sensor":         `new AmbientLightSensor()`,
	"idle-detection":               `IdleDetector.requestPermission()`,
	"compute-pressure":             `new PressureObserver(function () {})`,
	"payment":                      `new PaymentRequest([], {})`,
	"local-fonts":                  `queryLocalFonts()`,
	"window-management":            `getScreenDetails()`,
	"direct-sockets":               `new TCPSocket('h', 1)`,
	"ch-ua-arch":                   `navigator.userAgentData.getHighEntropyValues(['arch'])`,
}

// entryPointSnippets reach the entry points permissionSnippets leaves
// out: status checks, the General Permission APIs, the second method
// or constructor behind a permission, and calls whose arguments make
// them record nothing or fail.
var entryPointSnippets = map[string]string{
	"navigator.canShare":                                           `navigator.canShare({url: 'https://x'})`,
	"navigator.xr.isSessionSupported":                              `navigator.xr.isSessionSupported('immersive-vr')`,
	"document.hasStorageAccess":                                    `document.hasStorageAccess()`,
	"PaymentRequest.canMakePayment":                                `new PaymentRequest([], {}).canMakePayment()`,
	"PaymentRequest.show":                                          `new PaymentRequest([], {}).show()`,
	"navigator.permissions.query":                                  `navigator.permissions.query({name: 'camera'})`,
	"navigator.permissions.query (push)":                           `navigator.permissions.query({name: 'push'})`,
	"navigator.permissions.query (unknown)":                        `navigator.permissions.query({name: 'made-up'})`,
	"navigator.permissions.query (no descriptor)":                  `navigator.permissions.query()`,
	"document.featurePolicy.allowedFeatures":                       `document.featurePolicy.allowedFeatures()`,
	"document.featurePolicy.features":                              `document.featurePolicy.features()`,
	"document.featurePolicy.allowsFeature":                         `document.featurePolicy.allowsFeature('camera')`,
	"document.featurePolicy.allowsFeature (no name)":               `document.featurePolicy.allowsFeature()`,
	"document.featurePolicy.getAllowlistForFeature":                `document.featurePolicy.getAllowlistForFeature('camera')`,
	"document.permissionsPolicy.allowedFeatures":                   `document.permissionsPolicy.allowedFeatures()`,
	"document.permissionsPolicy.features":                          `document.permissionsPolicy.features()`,
	"document.permissionsPolicy.allowsFeature":                     `document.permissionsPolicy.allowsFeature('geolocation')`,
	"document.permissionsPolicy.getAllowlistForFeature":            `document.permissionsPolicy.getAllowlistForFeature('camera')`,
	"navigator.mediaDevices.getUserMedia (both)":                   `navigator.mediaDevices.getUserMedia({audio: true, video: true})`,
	"navigator.mediaDevices.getUserMedia (neither)":                `navigator.mediaDevices.getUserMedia({})`,
	"navigator.geolocation.getCurrentPosition":                     `navigator.geolocation.getCurrentPosition(function (p) { window.lat = p.coords.latitude; }, function (e) { window.code = e.code; })`,
	"navigator.clipboard.read":                                     `navigator.clipboard.read()`,
	"navigator.clipboard.writeText":                                `navigator.clipboard.writeText('x')`,
	"navigator.userAgentData.getHighEntropyValues (no known hint)": `navigator.userAgentData.getHighEntropyValues(['made-up'])`,
	"new Notification":                                             `new Notification('hello')`,
	"new IdleDetector":                                             `new IdleDetector()`,
	"new UDPSocket":                                                `new UDPSocket({})`,
	"sensor instance":                                              `(function () { var s = new Accelerometer(); s.start(); return s; })()`,
	"element instance":                                             `document.createElement('video')`,
	"idle instance":                                                `new IdleDetector().start()`,
	"pressure instance":                                            `new PressureObserver(function () {}).observe('cpu')`,
}

// surfaceDocuments are the documents every snippet runs in: a top-level
// document whose header allows every policy-controlled feature
// everywhere, one whose header disables them all, and a cross-origin
// iframe without an allow attribute (push and notifications gate on
// the top level, not on a policy).
func surfaceDocuments(t *testing.T) map[string]func() *Realm {
	header := func(value string) string {
		var b strings.Builder
		for i, name := range permissions.PolicyControlledNames() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(name + "=" + value)
		}
		return b.String()
	}
	return map[string]func() *Realm{
		"allow-all":   func() *Realm { return topLevelRealm(t, header("*")) },
		"disable-all": func() *Realm { return topLevelRealm(t, header("()")) },
		"embedded":    func() *Realm { return embeddedRealm(t, "", "") },
	}
}

// surfaceRun is what one snippet did in one document: its uncaught
// error, every invocation it recorded, and the value it evaluated to.
type surfaceRun struct {
	Err         string
	Invocations []Invocation
	Result      string
}

// surfaceGolden pins the whole instrumented surface: each snippet's run
// in each document, and a fresh realm's globals and an element, with
// every key in Object.keys order and every native by name.
type surfaceGolden struct {
	Rows    map[string]map[string]surfaceRun
	Surface []string
}

// surfaceRuns runs every snippet in every surface document and dumps
// a fresh realm's globals and an element.
func surfaceRuns(t *testing.T) surfaceGolden {
	docs := surfaceDocuments(t)
	got := surfaceGolden{Rows: map[string]map[string]surfaceRun{}}
	for _, table := range []map[string]string{permissionSnippets, entryPointSnippets} {
		for name, snippet := range table {
			if _, dup := got.Rows[name]; dup {
				t.Fatalf("snippet %q is in both tables", name)
			}
			got.Rows[name] = map[string]surfaceRun{}
			for docName, newRealm := range docs {
				r := newRealm()
				var res surfaceRun
				if err := r.RunScript("var __result = "+snippet+";", "https://example.org/app.js"); err != nil {
					res.Err = err.Error()
				}
				res.Invocations = r.Rec.Invocations
				res.Result = dumpGlobals(r.In, []string{"__result"})
				got.Rows[name][docName] = res
			}
		}
	}
	r := topLevelRealm(t, "")
	if err := r.RunScript("var __element = document.createElement('div');", ""); err != nil {
		t.Fatal(err)
	}
	names := append(surfaceSnapshot().Names(), "__element")
	got.Surface = strings.SplitAfter(strings.TrimSuffix(dumpGlobals(r.In, names), "\n"), "\n")
	return got
}

// TestAPICoverageAllPermissions requires each permission of
// permissionSnippets to be recorded in the allow-all document, and
// every snippet's runs to match testdata/surface.golden.json — API,
// kind, permissions, all-permissions, blocked, deprecated and stack of
// each invocation, the error and the evaluated value — as must the
// surface a fresh realm exposes, in install order.
func TestAPICoverageAllPermissions(t *testing.T) {
	raw, err := os.ReadFile("testdata/surface.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want surfaceGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := surfaceRuns(t)
	matchGolden := func(t *testing.T, name string) {
		for _, docName := range []string{"allow-all", "disable-all", "embedded"} {
			g, _ := json.Marshal(got.Rows[name][docName])
			w, _ := json.Marshal(want.Rows[name][docName])
			if !bytes.Equal(g, w) {
				t.Errorf("%s document differs from the golden:\ngot:  %s\nwant: %s", docName, g, w)
			}
		}
	}
	for perm := range permissionSnippets {
		t.Run(perm, func(t *testing.T) {
			recorded := false
			for _, inv := range got.Rows[perm]["allow-all"].Invocations {
				for _, p := range inv.Permissions {
					recorded = recorded || p == perm
				}
			}
			if !recorded {
				t.Errorf("no record for %s; got %+v", perm, got.Rows[perm]["allow-all"])
			}
			matchGolden(t, perm)
		})
	}
	for name := range entryPointSnippets {
		t.Run(name, func(t *testing.T) { matchGolden(t, name) })
	}
	t.Run("surface", func(t *testing.T) {
		if g, w := strings.Join(got.Surface, ""), strings.Join(want.Surface, ""); g != w {
			t.Errorf("realm surface differs from the golden:\ngot:  %s\nwant: %s", g, w)
		}
	})
	for name := range want.Rows {
		if got.Rows[name] == nil {
			t.Errorf("golden row %q has no snippet", name)
		}
	}
	if enc, err := json.MarshalIndent(got, "", "  "); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(append(enc, '\n'), raw) && !t.Failed() {
		t.Error("testdata/surface.golden.json is not the canonical encoding of what it pins")
	}
}

// TestGatingCoveragePolicyControlled verifies that for every
// policy-controlled permission in the snippet table, a header disabling
// it makes the realm record the call as blocked.
func TestGatingCoveragePolicyControlled(t *testing.T) {
	for _, perm := range []string{
		"camera", "microphone", "display-capture", "geolocation", "battery",
		"clipboard-read", "clipboard-write", "web-share", "keyboard-map",
		"midi", "usb", "serial", "hid", "bluetooth", "screen-wake-lock",
		"xr-spatial-tracking", "run-ad-auction", "join-ad-interest-group",
		"encrypted-media", "browsing-topics", "storage-access",
		"fullscreen", "picture-in-picture", "autoplay", "accelerometer",
		"payment", "local-fonts", "window-management",
	} {
		t.Run(perm, func(t *testing.T) {
			declared, _, err := policy.ParsePermissionsPolicy(perm + "=()")
			if err != nil {
				t.Fatal(err)
			}
			doc := policy.NewTopLevel(origin.MustParse("https://example.org"), declared)
			r := NewRealm(doc, "https://example.org/")
			snippet := permissionSnippets[perm]
			// Blocked constructors throw; wrap to keep the script alive.
			_ = r.RunScript("try { "+snippet+"; } catch (e) {}", "")
			blocked := false
			for _, inv := range r.Rec.Invocations {
				for _, p := range inv.Permissions {
					if p == perm && inv.Blocked {
						blocked = true
					}
				}
			}
			if !blocked {
				t.Errorf("%s=() did not block the call: %+v", perm, r.Rec.Invocations)
			}
		})
	}
}

// TestGeneralPermissionAPIs: of every call the surface records, exactly
// the Permissions API's query and the four methods of each policy
// object are General Permission APIs, and each of them is recorded.
func TestGeneralPermissionAPIs(t *testing.T) {
	want := map[string]bool{"navigator.permissions.query": true}
	for _, object := range []string{"document.featurePolicy", "document.permissionsPolicy"} {
		for _, method := range []string{"allowedFeatures", "features", "allowsFeature", "getAllowlistForFeature"} {
			want[object+"."+method] = true
		}
	}
	seen := map[string]bool{}
	for _, runs := range surfaceRuns(t).Rows {
		for _, run := range runs {
			for _, inv := range run.Invocations {
				seen[inv.API] = true
				if inv.General() != want[inv.API] {
					t.Errorf("%s: General() = %v", inv.API, inv.General())
				}
			}
		}
	}
	for api := range want {
		if !seen[api] {
			t.Errorf("%s is never recorded", api)
		}
	}
	if !(Invocation{API: "navigator.getBattery", AllPermissions: true}).General() {
		t.Error("a call that retrieved every permission must count as general")
	}
}

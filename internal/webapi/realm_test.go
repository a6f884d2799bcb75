package webapi

import (
	"runtime"
	"strings"
	"testing"

	"permodyssey/internal/origin"
	"permodyssey/internal/policy"
)

func topLevelRealm(t *testing.T, headerValue string) *Realm {
	t.Helper()
	var declared policy.Policy
	if headerValue != "" {
		p, _, err := policy.ParsePermissionsPolicy(headerValue)
		if err != nil {
			t.Fatalf("header %q: %v", headerValue, err)
		}
		declared = p
	}
	doc := policy.NewTopLevel(origin.MustParse("https://example.org"), declared)
	return NewRealm(doc, "https://example.org/")
}

func embeddedRealm(t *testing.T, parentHeader, allowAttr string) *Realm {
	t.Helper()
	var declared policy.Policy
	if parentHeader != "" {
		p, _, err := policy.ParsePermissionsPolicy(parentHeader)
		if err != nil {
			t.Fatal(err)
		}
		declared = p
	}
	top := policy.NewTopLevel(origin.MustParse("https://example.org"), declared)
	allow, _ := policy.ParseAllowAttr(allowAttr)
	child := origin.MustParse("https://widget.example")
	doc := policy.NewSubframe(top, policy.FrameSpec{
		SrcOrigin: child, DocumentOrigin: child, Allow: allow,
	}, policy.SpecActual)
	return NewRealm(doc, "https://widget.example/embed")
}

func apisRecorded(r *Realm) map[string]int {
	m := map[string]int{}
	for _, inv := range r.Rec.Invocations {
		m[inv.API]++
	}
	return m
}

func TestPermissionsQueryRecordsStatusCheck(t *testing.T) {
	r := topLevelRealm(t, "")
	err := r.RunScript(`navigator.permissions.query({name: 'camera'}).then(function (s) {
		window.state = s.state;
	});`, "https://cdn.example/probe.js")
	if err != nil {
		t.Fatal(err)
	}
	checks := r.Rec.ByKind(KindStatusCheck)
	if len(checks) != 1 {
		t.Fatalf("status checks: %d", len(checks))
	}
	c := checks[0]
	if c.API != "navigator.permissions.query" || len(c.Permissions) != 1 || c.Permissions[0] != "camera" {
		t.Errorf("check: %+v", c)
	}
	if c.ScriptURL != "https://cdn.example/probe.js" {
		t.Errorf("attribution: %q", c.ScriptURL)
	}
	if !strings.Contains(c.Stack, "cdn.example/probe.js") {
		t.Errorf("stack: %q", c.Stack)
	}
	if c.Blocked {
		t.Error("camera default-self at top level must not be blocked")
	}
}

func TestGetUserMediaPermissionsFromConstraints(t *testing.T) {
	r := topLevelRealm(t, "")
	if err := r.RunScript(`navigator.mediaDevices.getUserMedia({audio: true, video: true});`, ""); err != nil {
		t.Fatal(err)
	}
	invs := r.Rec.ByKind(KindInvocation)
	if len(invs) != 1 {
		t.Fatalf("invocations: %d", len(invs))
	}
	got := strings.Join(invs[0].Permissions, ",")
	if got != "microphone,camera" {
		t.Errorf("permissions: %q", got)
	}
	if invs[0].ScriptURL != "" {
		t.Errorf("inline script must attribute to the document: %q", invs[0].ScriptURL)
	}
}

func TestPolicyGatingBlocksCalls(t *testing.T) {
	// Header disables camera; getUserMedia({video}) must record blocked
	// and the script must observe the rejection.
	r := topLevelRealm(t, "camera=()")
	err := r.RunScript(`
	window.result = 'pending';
	navigator.mediaDevices.getUserMedia({video: true}).then(function () {
		window.result = 'granted';
	}).catch(function (e) {
		window.result = 'rejected:' + e.name;
	});`, "")
	if err != nil {
		t.Fatal(err)
	}
	invs := r.Rec.ByKind(KindInvocation)
	if len(invs) != 1 || !invs[0].Blocked {
		t.Fatalf("expected one blocked invocation: %+v", invs)
	}
	win, _ := r.In.Global.Get("window")
	res, _ := win.Obj().Get("result")
	if res.ToString() != "rejected:NotAllowedError" {
		t.Errorf("script observed %q", res.ToString())
	}
}

func TestQueryReportsDeniedUnderPolicy(t *testing.T) {
	r := topLevelRealm(t, "geolocation=()")
	if err := r.RunScript(`navigator.permissions.query({name:'geolocation'}).then(function(s){ window.st = s.state; });`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := r.In.Global.Get("window")
	st, _ := win.Obj().Get("st")
	if st.ToString() != "denied" {
		t.Errorf("state = %q; want denied", st.ToString())
	}
}

func TestEmbeddedFrameDelegation(t *testing.T) {
	// Without delegation: camera blocked in the iframe realm.
	r := embeddedRealm(t, "", "")
	if err := r.RunScript(`navigator.mediaDevices.getUserMedia({video:true}).catch(function(){});`, ""); err != nil {
		t.Fatal(err)
	}
	if invs := r.Rec.ByKind(KindInvocation); len(invs) != 1 || !invs[0].Blocked {
		t.Errorf("undelegated camera in iframe must be blocked: %+v", invs)
	}
	// With allow="camera": allowed.
	r2 := embeddedRealm(t, "", "camera")
	if err := r2.RunScript(`navigator.mediaDevices.getUserMedia({video:true});`, ""); err != nil {
		t.Fatal(err)
	}
	if invs := r2.Rec.ByKind(KindInvocation); len(invs) != 1 || invs[0].Blocked {
		t.Errorf("delegated camera must be allowed: %+v", invs)
	}
}

func TestFeaturePolicyAPIsAreDeprecatedAndAllFlagged(t *testing.T) {
	r := topLevelRealm(t, "")
	if err := r.RunScript(`
	var fp = document.featurePolicy.allowedFeatures();
	var pp = document.permissionsPolicy.allowedFeatures();
	window.hasCamera = fp.includes('camera');
	`, "https://legacy.example/lib.js"); err != nil {
		t.Fatal(err)
	}
	checks := r.Rec.ByKind(KindStatusCheck)
	if len(checks) != 2 {
		t.Fatalf("checks: %d", len(checks))
	}
	if !checks[0].Deprecated || !checks[0].AllPermissions {
		t.Errorf("featurePolicy call: %+v", checks[0])
	}
	if checks[1].Deprecated {
		t.Errorf("permissionsPolicy call must not be deprecated: %+v", checks[1])
	}
	if !r.Rec.UsedDeprecatedAPI() {
		t.Error("recorder must flag deprecated API usage")
	}
	win, _ := r.In.Global.Get("window")
	v, _ := win.Obj().Get("hasCamera")
	if !v.Truthy() {
		t.Error("allowedFeatures must include camera at top level")
	}
}

func TestAllowsFeatureReflectsPolicy(t *testing.T) {
	r := topLevelRealm(t, "microphone=()")
	if err := r.RunScript(`
	window.mic = document.featurePolicy.allowsFeature('microphone');
	window.cam = document.featurePolicy.allowsFeature('camera');
	`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := r.In.Global.Get("window")
	mic, _ := win.Obj().Get("mic")
	cam, _ := win.Obj().Get("cam")
	if mic.Truthy() || !cam.Truthy() {
		t.Errorf("mic=%v cam=%v", mic.ToString(), cam.ToString())
	}
}

func TestNotificationsTopLevelOnly(t *testing.T) {
	top := topLevelRealm(t, "")
	if err := top.RunScript(`Notification.requestPermission();`, ""); err != nil {
		t.Fatal(err)
	}
	if invs := top.Rec.ByKind(KindInvocation); len(invs) != 1 || invs[0].Blocked {
		t.Errorf("top-level notification must be allowed: %+v", invs)
	}
	frame := embeddedRealm(t, "", "")
	if err := frame.RunScript(`Notification.requestPermission();`, ""); err != nil {
		t.Fatal(err)
	}
	if invs := frame.Rec.ByKind(KindInvocation); len(invs) != 1 || !invs[0].Blocked {
		t.Errorf("embedded notification must be blocked (not delegatable): %+v", invs)
	}
}

func TestConstructorAPIs(t *testing.T) {
	r := topLevelRealm(t, "")
	src := `
	var a = new Accelerometer();
	a.start();
	var p = new PaymentRequest([], {});
	p.canMakePayment();
	var n = new Notification('hello');
	`
	if err := r.RunScript(src, "https://shop.example/pay.js"); err != nil {
		t.Fatal(err)
	}
	apis := apisRecorded(r)
	for _, want := range []string{"new Accelerometer", "new PaymentRequest", "PaymentRequest.canMakePayment", "new Notification"} {
		if apis[want] == 0 {
			t.Errorf("missing record for %s: %v", want, apis)
		}
	}
}

func TestSensorBlockedThrowsCatchable(t *testing.T) {
	r := embeddedRealm(t, "", "") // gyroscope default self → blocked cross-origin
	if err := r.RunScript(`
	window.err = '';
	try { var g = new Gyroscope(); g.start(); } catch (e) { window.err = 'caught'; }
	`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := r.In.Global.Get("window")
	v, _ := win.Obj().Get("err")
	if v.ToString() != "caught" {
		t.Error("blocked sensor construction must throw catchably")
	}
	if invs := r.Rec.ByKind(KindInvocation); len(invs) != 1 || !invs[0].Blocked {
		t.Errorf("blocked gyroscope: %+v", invs)
	}
}

func TestGeolocationCallbacks(t *testing.T) {
	r := topLevelRealm(t, "")
	if err := r.RunScript(`
	window.lat = 0;
	navigator.geolocation.getCurrentPosition(function (pos) { window.lat = pos.coords.latitude; });
	`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := r.In.Global.Get("window")
	lat, _ := win.Obj().Get("lat")
	if lat.Num() != 52.52 {
		t.Errorf("lat = %v", lat.ToString())
	}
	// Blocked: error callback path.
	r2 := topLevelRealm(t, "geolocation=()")
	if err := r2.RunScript(`
	window.code = 0;
	navigator.geolocation.getCurrentPosition(function () {}, function (e) { window.code = e.code; });
	`, ""); err != nil {
		t.Fatal(err)
	}
	win2, _ := r2.In.Global.Get("window")
	code, _ := win2.Obj().Get("code")
	if code.Num() != 1 {
		t.Errorf("error code = %v; want 1 (PERMISSION_DENIED)", code.ToString())
	}
}

func TestEventHandlersAndInteraction(t *testing.T) {
	// The Table 12 mechanism: a permission call hidden behind a click is
	// only observed after the interaction pass fires the handler.
	r := topLevelRealm(t, "")
	if err := r.RunScript(`
	document.getElementById('btn').addEventListener('click', function () {
		navigator.mediaDevices.getUserMedia({audio: true});
	});
	`, "https://site.example/app.js"); err != nil {
		t.Fatal(err)
	}
	if len(r.Rec.ByKind(KindInvocation)) != 0 {
		t.Fatal("no invocation before interaction")
	}
	if r.HandlerCount("click") != 1 {
		t.Fatalf("click handlers: %d", r.HandlerCount("click"))
	}
	if err := r.FireEvent("click"); err != nil {
		t.Fatal(err)
	}
	invs := r.Rec.ByKind(KindInvocation)
	if len(invs) != 1 || invs[0].Permissions[0] != "microphone" {
		t.Fatalf("after click: %+v", invs)
	}
	// Attribution: handler was defined by app.js, so the invocation must
	// attribute there even though the event fired from the host.
	if invs[0].ScriptURL != "https://site.example/app.js" {
		t.Errorf("attribution after event: %q", invs[0].ScriptURL)
	}
}

func TestBatteryAndTopicsAndStorageAccess(t *testing.T) {
	r := topLevelRealm(t, "")
	if err := r.RunScript(`
	navigator.getBattery().then(function (b) { window.level = b.level; });
	document.browsingTopics();
	document.requestStorageAccess();
	document.hasStorageAccess();
	`, "https://tracker.example/t.js"); err != nil {
		t.Fatal(err)
	}
	apis := apisRecorded(r)
	for _, want := range []string{"navigator.getBattery", "document.browsingTopics", "document.requestStorageAccess", "document.hasStorageAccess"} {
		if apis[want] == 0 {
			t.Errorf("missing %s: %v", want, apis)
		}
	}
	win, _ := r.In.Global.Get("window")
	level, _ := win.Obj().Get("level")
	if level.Num() != 0.87 {
		t.Errorf("battery level = %v", level.ToString())
	}
	seen := r.Rec.PermissionsSeen()
	joined := strings.Join(seen, ",")
	for _, p := range []string{"battery", "browsing-topics", "storage-access"} {
		if !strings.Contains(joined, p) {
			t.Errorf("permissions seen %v missing %s", seen, p)
		}
	}
}

func TestUnknownQueryNameRecordedRaw(t *testing.T) {
	r := topLevelRealm(t, "")
	if err := r.RunScript(`navigator.permissions.query({name: 'made-up'}).then(function(){});`, ""); err != nil {
		t.Fatal(err)
	}
	checks := r.Rec.ByKind(KindStatusCheck)
	if len(checks) != 1 || checks[0].Permissions[0] != "made-up" {
		t.Errorf("raw name: %+v", checks)
	}
}

func TestClipboardSplit(t *testing.T) {
	r := topLevelRealm(t, "")
	if err := r.RunScript(`
	navigator.clipboard.writeText('link');
	navigator.clipboard.readText();
	`, ""); err != nil {
		t.Fatal(err)
	}
	var perms []string
	for _, inv := range r.Rec.ByKind(KindInvocation) {
		perms = append(perms, inv.Permissions...)
	}
	got := strings.Join(perms, ",")
	if got != "clipboard-write,clipboard-read" {
		t.Errorf("clipboard perms: %q", got)
	}
}

func TestFingerprintSurfaceThroughFeatures(t *testing.T) {
	r := topLevelRealm(t, "")
	if err := r.RunScript(`window.count = document.featurePolicy.features().length;`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := r.In.Global.Get("window")
	count, _ := win.Obj().Get("count")
	if count.Num() < 30 {
		t.Errorf("Chromium 127 surface too small: %v", count.ToString())
	}
	// An older "browser" exposes fewer features — the version
	// fingerprint of §4.1.1.
	r2 := topLevelRealm(t, "")
	r2.Version = 80
	if err := r2.RunScript(`window.count = document.featurePolicy.features().length;`, ""); err != nil {
		t.Fatal(err)
	}
	win2, _ := r2.In.Global.Get("window")
	count2, _ := win2.Obj().Get("count")
	if count2.Num() >= count.Num() {
		t.Errorf("v80 surface (%v) should be smaller than v127 (%v)", count2.ToString(), count.ToString())
	}
}

func BenchmarkRealmProbeScript(b *testing.B) {
	doc := policy.NewTopLevel(origin.MustParse("https://example.org"), policy.Policy{})
	src := `
	document.featurePolicy.allowedFeatures();
	navigator.permissions.query({name: 'notifications'});
	navigator.getBattery();
	`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRealm(doc, "https://example.org/")
		if err := r.RunScript(src, "https://cdn.example/p.js"); err != nil {
			b.Fatal(err)
		}
	}
}

var benchRealm *Realm

func BenchmarkNewRealm(b *testing.B) {
	doc := policy.NewTopLevel(origin.MustParse("https://example.org"), policy.Policy{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRealm = NewRealm(doc, "https://example.org/")
	}
}

// TestNewRealmCost pins what a realm costs before any script runs. The
// surface is installed copy-on-write and its globals bound on first
// read, so it is the realm, its localizer and the three globals the
// per-realm patches bind (navigator, location, window): 20 allocations
// and 3,928 B. Binding every global up front cost 41 allocations and
// 10,065 B; the old per-realm deep clone of the whole surface cost
// 44.6 KB and 172 allocations.
func TestNewRealmCost(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pins need a quiet heap")
	}
	doc := policy.NewTopLevel(origin.MustParse("https://example.org"), policy.Policy{})
	newRealm := func() { benchRealm = NewRealm(doc, "https://example.org/") }
	if got := testing.AllocsPerRun(200, newRealm); got > 22 {
		t.Errorf("NewRealm: %.0f allocs/op, want <= 22", got)
	}
	if got := bytesPerRun(200, newRealm); got > 4400 {
		t.Errorf("NewRealm: %.0f B/op, want <= 4400", got)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes one call of f allocates.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up lazily built state, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

package synthweb

import (
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"permodyssey/internal/html"
	"permodyssey/internal/policy"
)

func TestGenerateDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 500
	for rank := 1; rank <= 500; rank += 37 {
		a := cfg.Generate(rank)
		b := cfg.Generate(rank)
		if a.Host != b.Host || a.Kind != b.Kind || a.PermissionsPolicy != b.PermissionsPolicy ||
			len(a.Widgets) != len(b.Widgets) || len(a.ScriptIdx) != len(b.ScriptIdx) {
			t.Fatalf("rank %d not deterministic: %+v vs %+v", rank, a, b)
		}
		if cfg.RenderHTML(a) != cfg.RenderHTML(b) {
			t.Fatalf("rank %d HTML not deterministic", rank)
		}
	}
	// Different seeds give different populations.
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	diff := 0
	for rank := 1; rank <= 100; rank++ {
		if cfg.Generate(rank).PermissionsPolicy != cfg2.Generate(rank).PermissionsPolicy ||
			len(cfg.Generate(rank).Widgets) != len(cfg2.Generate(rank).Widgets) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds must change the population")
	}
}

// TestPooledRandMatchesFresh: Generate and RenderHTML reseed pooled
// lazily seeded generators in place; every site and landing page must
// equal the one drawn from a fresh rand.New(rand.NewSource(seed)) per
// stream, under the default calibration, with the chaos stream on and
// under an era calibration.
func TestPooledRandMatchesFresh(t *testing.T) {
	fresh := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	chaos := DefaultConfig()
	chaos.Chaos = DefaultChaosConfig()
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "chaos": chaos, "era 2022": EraConfig(2022)} {
		for rank := 1; rank <= 2000; rank++ {
			got, want := cfg.Generate(rank), cfg.generate(rank, fresh)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s rank %d: pooled %+v, fresh %+v", name, rank, got, want)
			}
			if cfg.RenderHTML(got) != cfg.renderHTML(want, fresh) {
				t.Fatalf("%s rank %d: pooled and fresh landing pages differ", name, rank)
			}
		}
	}
}

func TestPopulationCalibration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 8000
	var headered, broken, fp, withDelegation, failures int
	for rank := 1; rank <= cfg.NumSites; rank++ {
		s := cfg.Generate(rank)
		if s.Kind != KindOK {
			failures++
		}
		if s.PermissionsPolicy != "" {
			headered++
			if _, _, err := policy.ParsePermissionsPolicy(s.PermissionsPolicy); err != nil {
				broken++
			}
		}
		if s.FeaturePolicy != "" {
			fp++
		}
		for _, w := range s.Widgets {
			if w.WithDelegation {
				withDelegation++
				break
			}
		}
	}
	headerRate := float64(headered) / float64(cfg.NumSites)
	if headerRate < 0.03 || headerRate > 0.06 {
		t.Errorf("top-level header rate %.3f outside 4.5%% band", headerRate)
	}
	brokenShare := float64(broken) / float64(headered)
	if brokenShare < 0.01 || brokenShare > 0.12 {
		t.Errorf("broken-header share %.3f outside ~5.5%% band", brokenShare)
	}
	if fp == 0 {
		t.Error("Feature-Policy headers must appear")
	}
	failureRate := float64(failures) / float64(cfg.NumSites)
	if failureRate < 0.08 || failureRate > 0.16 {
		t.Errorf("failure rate %.3f outside band", failureRate)
	}
	delegRate := float64(withDelegation) / float64(cfg.NumSites)
	if delegRate < 0.08 || delegRate > 0.25 {
		t.Errorf("widget-delegation rate %.3f outside band (paper 12.07%%)", delegRate)
	}
}

func TestCatalogInvariants(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range Catalog {
		if w.Site == "" || w.Path == "" {
			t.Errorf("widget %+v missing identity", w)
		}
		if seen[w.Site] {
			t.Errorf("duplicate widget site %s", w.Site)
		}
		seen[w.Site] = true
		// InclusionProb 0 is legal: nested-only creatives (2mdn.net) are
		// reachable exclusively through other widgets' frames.
		if w.InclusionProb < 0 || w.InclusionProb > 0.1 {
			t.Errorf("%s: implausible inclusion prob %f", w.Site, w.InclusionProb)
		}
		if w.DelegationRate < 0 || w.DelegationRate > 1 {
			t.Errorf("%s: delegation rate %f", w.Site, w.DelegationRate)
		}
		// Every allow template must parse without hard errors.
		p, _ := policy.ParseAllowAttr(w.AllowTemplate)
		if w.AllowTemplate != "" && p.Empty() {
			t.Errorf("%s: allow template %q yields no directives", w.Site, w.AllowTemplate)
		}
		// Widget headers must parse (they are served as real headers).
		if w.Header != "" {
			if _, _, err := policy.ParsePermissionsPolicy(w.Header); err != nil {
				t.Errorf("%s: header %q invalid: %v", w.Site, w.Header, err)
			}
		}
	}
	// The paper's protagonists must be present.
	for _, site := range []string{"google.com", "youtube.com", "livechatinc.com", "doubleclick.net", "stripe.com"} {
		if _, ok := WidgetBySite(site); !ok {
			t.Errorf("catalog missing %s", site)
		}
	}
}

func TestLiveChatTemplateMatchesPaper(t *testing.T) {
	lc, ok := WidgetBySite("livechatinc.com")
	if !ok {
		t.Fatal("livechat missing")
	}
	if lc.DelegationRate < 0.99 {
		t.Errorf("livechat delegation rate %.4f; paper says 99.69%%", lc.DelegationRate)
	}
	p, _ := policy.ParseAllowAttr(lc.AllowTemplate)
	for _, feature := range []string{"clipboard-read", "clipboard-write", "autoplay",
		"microphone", "camera", "display-capture", "picture-in-picture", "fullscreen"} {
		al, ok := p.Get(feature)
		if !ok {
			t.Errorf("livechat template missing %s", feature)
			continue
		}
		switch feature {
		case "microphone", "camera", "display-capture", "picture-in-picture", "fullscreen":
			if !al.All {
				t.Errorf("livechat %s must be a wildcard delegation (§5.2)", feature)
			}
		}
	}
	if strings.Contains(lc.Script, "getUserMedia") || strings.Contains(lc.Script, "clipboard.read") {
		t.Error("the livechat widget must not contain camera/microphone/clipboard-read APIs (§5.2)")
	}
}

func TestRenderHTMLParsable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 200
	for rank := 1; rank <= 200; rank += 11 {
		s := cfg.Generate(rank)
		doc := html.Parse(cfg.RenderHTML(s))
		frames := html.Iframes(doc)
		wantMin := len(s.Widgets) + s.LocalIframes + s.PlainIframes
		if len(frames) < wantMin {
			t.Errorf("rank %d: %d iframes rendered, want ≥ %d", rank, len(frames), wantMin)
		}
		scripts := html.Scripts(doc)
		if len(scripts) < len(s.ScriptIdx) {
			t.Errorf("rank %d: %d scripts rendered, want ≥ %d", rank, len(scripts), len(s.ScriptIdx))
		}
	}
}

func TestServerVirtualHosting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 50
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0
	srv := NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := srv.Client(5 * time.Second)

	// A site page.
	site := cfg.Generate(1)
	resp, err := client.Get(site.URL())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "Site 1") {
		t.Errorf("site page: %d %q", resp.StatusCode, string(body)[:min(80, len(body))])
	}

	// A widget host.
	resp, err = client.Get("https://www.livechatinc.com/chat")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "livechatinc.com widget") {
		t.Errorf("widget body: %q", string(body)[:min(80, len(body))])
	}

	// A script CDN.
	resp, err = client.Get("https://cdn.googletagmanager.com/gtag.js")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "allowed") {
		t.Errorf("script body: %q", string(body)[:min(80, len(body))])
	}

	// Widget headers are served.
	resp, err = client.Get("https://www.doubleclick.net/ads")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Permissions-Policy") == "" {
		t.Error("doubleclick must serve a Permissions-Policy header (drives Figure 2 embedded adoption)")
	}

	// Unknown hosts 404.
	resp, err = client.Get("https://unknown.example/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown host: %d", resp.StatusCode)
	}
}

func TestServerFailureModes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 300
	cfg.Seed = 9
	cfg.UnreachableRate, cfg.TimeoutRate = 0.15, 0.1
	cfg.EphemeralRate, cfg.MinorRate = 0.1, 0.05
	srv := NewServer(cfg)
	srv.StallTime = 300 * time.Millisecond
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	find := func(kind SiteKind) Site {
		for rank := 1; rank <= cfg.NumSites; rank++ {
			if s := cfg.Generate(rank); s.Kind == kind {
				return s
			}
		}
		t.Fatalf("no site of kind %v", kind)
		return Site{}
	}

	// Unreachable: DNS error from the transport.
	client := srv.Client(5 * time.Second)
	if _, err := client.Get(find(KindUnreachable).URL()); err == nil ||
		!strings.Contains(err.Error(), "no such host") {
		t.Errorf("unreachable site error: %v", err)
	}

	// Timeout: deadline exceeded under a short client timeout.
	quick := srv.Client(50 * time.Millisecond)
	if _, err := quick.Get(find(KindTimeout).URL()); err == nil {
		t.Error("timeout site must exceed the deadline")
	}

	// Ephemeral: body dies mid-read.
	resp, err := client.Get(find(KindEphemeral).URL())
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Error("ephemeral site must fail the body read")
	}

	// Minor: malformed response.
	if _, err := client.Get(find(KindMinor).URL()); err == nil ||
		!strings.Contains(err.Error(), "malformed") {
		t.Errorf("minor site error: %v", err)
	}
}

// closeQuickly closes srv and requires it to finish within 250 ms.
func closeQuickly(t *testing.T, srv *Server) {
	t.Helper()
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Errorf("Close took %v, want at most 250ms", took)
	}
}

// TestCloseAfterAbandonedStall: a stalled timeout-kind request ends when
// its client gives up, so Close does not wait out the stall.
func TestCloseAfterAbandonedStall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 300
	cfg.Seed = 9
	cfg.TimeoutRate = 0.1
	srv := NewServer(cfg)
	srv.StallTime = 10 * time.Second
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	var stalled Site
	for _, site := range srv.Sites() {
		if site.Kind == KindTimeout {
			stalled = site
			break
		}
	}
	if stalled.Kind != KindTimeout {
		t.Fatal("no timeout-kind site")
	}
	if _, err := srv.Client(50 * time.Millisecond).Get(stalled.URL()); err == nil {
		t.Error("timeout site must exceed the client deadline")
	}
	closeQuickly(t, srv)
}

// TestCloseWithUnusedConnection: a connection that never carries a
// request does not hold Close open.
func TestCloseWithUnusedConnection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 5
	srv := NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	closeQuickly(t, srv)
}

func TestTransportContextCancel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 5
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0
	srv := NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", cfg.Generate(1).URL(), nil)
	if _, err := srv.Client(0).Do(req); err == nil {
		t.Error("cancelled context must fail")
	}
}

func TestHeaderTemplatesAllValid(t *testing.T) {
	for _, ht := range HeaderTemplates {
		if _, _, err := policy.ParsePermissionsPolicy(ht.Value); err != nil {
			t.Errorf("template %s invalid: %v", ht.Name, err)
		}
	}
	for _, ht := range BrokenHeaders {
		if _, _, err := policy.ParsePermissionsPolicy(ht.Value); err == nil {
			t.Errorf("broken template %s parsed cleanly", ht.Name)
		}
	}
	for _, ht := range MisconfiguredHeaders {
		_, issues, err := policy.ParsePermissionsPolicy(ht.Value)
		if err != nil {
			t.Errorf("misconfigured template %s must parse (semantic, not syntax): %v", ht.Name, err)
		}
		if len(issues) == 0 {
			t.Errorf("misconfigured template %s produced no issues", ht.Name)
		}
	}
	for _, ht := range FeaturePolicyHeaders {
		p, _ := policy.ParseFeaturePolicy(ht.Value)
		if p.Empty() {
			t.Errorf("FP template %s yields no directives", ht.Name)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkGenerateSite(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Generate(i%20000 + 1)
	}
}

func BenchmarkRenderHTML(b *testing.B) {
	cfg := DefaultConfig()
	site := cfg.Generate(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.RenderHTML(site)
	}
}

func TestEraConfigPresets(t *testing.T) {
	if EraConfig(2019).TopHeaderRate != 0 {
		t.Error("pre-rename era must have no Permissions-Policy header")
	}
	if EraConfig(2019).FPHeaderRate == 0 {
		t.Error("2020 era must serve some Feature-Policy")
	}
	mid := EraConfig(2022)
	if mid.TopHeaderRate <= 0 || mid.TopHeaderRate >= DefaultConfig().TopHeaderRate {
		t.Errorf("2022 adoption must sit between 2020 and 2024: %f", mid.TopHeaderRate)
	}
	if EraConfig(2024).TopHeaderRate != DefaultConfig().TopHeaderRate {
		t.Error("2024 era is the calibrated default")
	}
}

func TestSiteKindString(t *testing.T) {
	for kind, want := range map[SiteKind]string{
		KindOK: "ok", KindUnreachable: "unreachable", KindTimeout: "timeout",
		KindEphemeral: "ephemeral", KindMinor: "minor", SiteKind(99): "unknown",
	} {
		if kind.String() != want {
			t.Errorf("SiteKind(%d) = %q; want %q", kind, kind.String(), want)
		}
	}
}

func TestRenderInternalPage(t *testing.T) {
	cfg := DefaultConfig()
	// Find an ecommerce site with a store locator.
	var site Site
	found := false
	for rank := 1; rank <= 4000 && !found; rank++ {
		s := cfg.Generate(rank)
		for _, p := range s.InternalPages {
			if p == "/stores" {
				site, found = s, true
			}
		}
	}
	if !found {
		t.Fatal("no store-locator site generated")
	}
	body, ok := cfg.RenderInternalPage(site, "/stores")
	if !ok || !strings.Contains(body, "geolocation") {
		t.Errorf("store page: ok=%v body=%q", ok, body)
	}
	if _, ok := cfg.RenderInternalPage(site, "/not-linked"); ok {
		t.Error("unlinked paths must not render")
	}
	if about, ok := cfg.RenderInternalPage(site, "/about"); ok && strings.Contains(about, "geolocation") {
		t.Error("about pages are permission-inert")
	}
}

func TestServerSitesAndInternalPages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 30
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0
	srv := NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sites := srv.Sites()
	if len(sites) != 30 || sites[0].Rank != 1 {
		t.Fatalf("Sites(): %d", len(sites))
	}
	client := srv.Client(5 * time.Second)
	// Serve an internal page over HTTP when one exists.
	for _, s := range sites {
		for _, p := range s.InternalPages {
			resp, err := client.Get("https://" + s.Host + p)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 || len(body) == 0 {
				t.Errorf("internal page %s%s: %d", s.Host, p, resp.StatusCode)
			}
			return
		}
	}
	t.Skip("no internal pages in this small sample")
}

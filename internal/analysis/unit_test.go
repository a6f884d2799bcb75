package analysis

import (
	"testing"

	"permodyssey/internal/browser"
	"permodyssey/internal/html"
	"permodyssey/internal/static"
	"permodyssey/internal/store"
	"permodyssey/internal/webapi"
)

// handDataset builds a tiny, fully-specified dataset where every
// expected number can be verified by hand.
func handDataset() *store.Dataset {
	inv := func(api string, kind webapi.Kind, perms []string, scriptURL string, all bool) webapi.Invocation {
		return webapi.Invocation{API: api, Kind: kind, Permissions: perms, ScriptURL: scriptURL, AllPermissions: all}
	}
	ds := &store.Dataset{}

	// Site 1: header camera=(), battery invoked by 3P at top level,
	// youtube iframe with delegation, srcdoc local frame.
	ds.Add(store.SiteRecord{Rank: 1, URL: "https://one.example/", Page: &browser.PageResult{
		URL: "https://one.example/",
		Frames: []browser.FrameResult{
			{
				URL: "https://one.example/", FinalURL: "https://one.example/",
				TopLevel: true, Origin: "https://one.example", Site: "one.example",
				HasPermissionsPolicy: true, HeaderValid: true,
				PermissionsPolicyRaw: "camera=(), geolocation=(self)",
				Invocations: []webapi.Invocation{
					inv("navigator.getBattery", webapi.KindInvocation, []string{"battery"}, "https://cdn3p.example/a.js", false),
					inv("navigator.getBattery", webapi.KindInvocation, []string{"battery"}, "https://cdn3p.example/a.js", false), // dup: dedup to 1 context
					inv("document.featurePolicy.allowedFeatures", webapi.KindStatusCheck, nil, "https://cdn3p.example/a.js", true),
				},
				StaticFindings: []static.Finding{{Permission: "battery", Pattern: "navigator.getBattery"}},
			},
			{
				URL: "https://youtube.com/embed", FinalURL: "https://youtube.com/embed",
				Depth: 1, Origin: "https://youtube.com", Site: "youtube.com",
				Element: html.Iframe{Src: "https://youtube.com/embed", Allow: "autoplay; gyroscope", HasAllow: true},
				Invocations: []webapi.Invocation{
					inv("element.play", webapi.KindInvocation, []string{"autoplay"}, "", false),
				},
			},
			{
				URL: "about:srcdoc", FinalURL: "about:srcdoc", Depth: 1,
				LocalScheme: true, Origin: "null",
			},
		},
	}})

	// Site 2: broken header (FP syntax), geolocation 1P top level,
	// youtube iframe WITHOUT delegation.
	ds.Add(store.SiteRecord{Rank: 2, URL: "https://two.example/", Page: &browser.PageResult{
		URL: "https://two.example/",
		Frames: []browser.FrameResult{
			{
				URL: "https://two.example/", FinalURL: "https://two.example/",
				TopLevel: true, Origin: "https://two.example", Site: "two.example",
				HasPermissionsPolicy: true, HeaderValid: false,
				PermissionsPolicyRaw: "camera 'none'",
				Invocations: []webapi.Invocation{
					inv("navigator.geolocation.getCurrentPosition", webapi.KindInvocation, []string{"geolocation"}, "", false),
				},
			},
			{
				URL: "https://youtube.com/embed", FinalURL: "https://youtube.com/embed",
				Depth: 1, Origin: "https://youtube.com", Site: "youtube.com",
				Element: html.Iframe{Src: "https://youtube.com/embed"},
			},
		},
	}})

	// Site 3: failed visit.
	ds.Add(store.SiteRecord{Rank: 3, URL: "https://three.example/", Failure: store.FailureTimeout})
	return ds
}

func TestHandCraftedCounts(t *testing.T) {
	a := New(handDataset())
	if a.Websites() != 2 || a.TotalRecords() != 3 {
		t.Fatalf("census: %d/%d", a.Websites(), a.TotalRecords())
	}

	rd := a.ReportData(0)

	// Table 3: youtube.com included by both sites.
	t3, total := rd.Table3, rd.Table3Total
	if len(t3) != 1 || t3[0].Site != "youtube.com" || t3[0].Count != 2 || total != 2 {
		t.Errorf("table 3: %+v total=%d", t3, total)
	}

	// Table 4: battery 1 top-level ctx (100% 3P), geolocation 1 (100%
	// 1P), autoplay 1 embedded (1P), general 1 top ctx.
	rows, totalRow, sum := rd.Table4, rd.Table4Total, rd.Usage
	byName := map[string]UsageRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	bat := byName["Battery"]
	if bat.TopContexts != 1 || bat.Top3PPct != 100 || bat.Top1PPct != 0 {
		t.Errorf("battery row: %+v", bat)
	}
	geo := byName["Geolocation"]
	if geo.TopContexts != 1 || geo.Top1PPct != 100 {
		t.Errorf("geolocation row: %+v", geo)
	}
	ap := byName["Autoplay"]
	if ap.EmbContexts != 1 || ap.Emb1PPct != 100 {
		t.Errorf("autoplay row: %+v", ap)
	}
	gen := byName["General Permission APIs"]
	if gen.TopContexts != 1 {
		t.Errorf("general row: %+v", gen)
	}
	// Total: top contexts = 2 (one per site), embedded = 1.
	if totalRow.TopContexts != 2 || totalRow.EmbContexts != 1 {
		t.Errorf("total row: %+v", totalRow)
	}
	if sum.WithAnyInvocation != 2 || sum.WithTopLevelActivity != 2 || sum.WithEmbeddedActivity != 1 {
		t.Errorf("summary: %+v", sum)
	}

	// Table 5: one All-Permissions check on one website.
	t5, cstats := rd.Table5, rd.Checks
	if len(t5) != 1 || t5[0].Name != "All Permissions" || t5[0].Websites != 1 {
		t.Errorf("table 5: %+v", t5)
	}
	if cstats.Websites != 1 || cstats.AtTopLevel != 1 || cstats.InEmbedded != 0 {
		t.Errorf("check stats: %+v", cstats)
	}

	// Table 6: battery static on 1 website.
	t6, ssum := rd.Table6, rd.Static
	if len(t6) != 1 || t6[0].Name != "Battery" || t6[0].Websites != 1 {
		t.Errorf("table 6: %+v", t6)
	}
	if ssum.Websites != 1 {
		t.Errorf("static summary: %+v", ssum)
	}

	// Delegation: only site 1 delegates (site 2's youtube has no allow).
	dsum := rd.Delegation
	if dsum.AnyDelegation != 1 || dsum.ExternalDelegation != 1 || dsum.ThirdPartyDelegation != 1 {
		t.Errorf("delegation summary: %+v", dsum)
	}

	// Table 8: autoplay and gyroscope, one delegation each.
	t8, t8Total := rd.Table8, rd.Table8Total
	if len(t8) != 2 || t8Total.Delegations != 2 || t8Total.Websites != 1 {
		t.Errorf("table 8: %+v %+v", t8, t8Total)
	}

	// Figure 2: 4 non-local documents (2 top + 2 youtube embeds), 2 with
	// PP at top level, 0 embedded.
	ad := rd.Adoption
	if ad.Documents != 4 || ad.PPTopLevel != 2 || ad.PPEmbedded != 0 {
		t.Errorf("adoption: %+v", ad)
	}

	// Table 9: only site 1's header parses → camera Disable,
	// geolocation Self.
	t9, t9Total, hstats := rd.Table9, rd.Table9Total, rd.HeaderStats
	if hstats.HeaderWebsites != 2 || hstats.ParsedWebsites != 1 {
		t.Errorf("header stats: %+v", hstats)
	}
	if len(t9) != 2 || t9Total.Websites != 1 {
		t.Errorf("table 9: %+v", t9)
	}

	// Misconfigurations: one syntax-invalid frame.
	mis := rd.Misconfig
	if mis.FramesWithHeader != 2 || mis.SyntaxErrorFrames != 1 || mis.SyntaxErrorTopLevel != 1 {
		t.Errorf("misconfig: %+v", mis)
	}

	// Over-permission: youtube delegated gyroscope (unused; autoplay is
	// used). 2 inclusions, 1 delegated = 50% ≥ 5%; MinInclusions must
	// accept 2.
	over, affected := a.OverPermissioned(OverPermissionConfig{Threshold: 0.05, MinInclusions: 2}, 0)
	if len(over) != 1 || over[0].Site != "youtube.com" ||
		len(over[0].UnusedPermissions) != 1 || over[0].UnusedPermissions[0] != "gyroscope" {
		t.Errorf("over-permission: %+v", over)
	}
	if affected != 1 {
		t.Errorf("affected: %d", affected)
	}

	// JSON renders.
	out, err := a.JSON(10)
	if err != nil || len(out) < 200 {
		t.Errorf("JSON: %v, %d bytes", err, len(out))
	}
}

package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"permodyssey/internal/browser"
	"permodyssey/internal/permissions"
	"permodyssey/internal/static"
	"permodyssey/internal/synthweb"
	"permodyssey/internal/webapi"
)

// ValidationRow is one row of Table 12 (Appendix A.3): for one site
// population, the average permissions reported without interaction
// (static and dynamic) versus the permissions activated with
// interaction, and how much of the activated set the no-interaction
// analyses already captured.
type ValidationRow struct {
	Experiment string
	Sites      int
	// Averages per site.
	AvgStatic    float64
	AvgDynamic   float64
	AvgActivated float64
	// Detection rates over the activated permissions.
	DetectedByStatic        float64
	DetectedByStaticOrDynam float64
}

// ValidationExperiment reproduces the Appendix A.3 manual-testing
// methodology on the synthetic web: crawl candidate sites without
// interaction, then again with the interaction pass (the stand-in for a
// researcher clicking through the site), and compare.
type ValidationExperiment struct {
	// Web is the population to draw candidates from.
	Web synthweb.Config
	// SitesPerExperiment mirrors the paper's 25-site samples.
	SitesPerExperiment int
}

// Run executes all three experiments of Table 12.
func (v ValidationExperiment) Run(ctx context.Context) ([]ValidationRow, error) {
	if v.SitesPerExperiment <= 0 {
		v.SitesPerExperiment = 25
	}
	srv := synthweb.NewServer(v.Web)
	srv.StallTime = time.Second
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Close()
	client := srv.Client(0)

	plainOpts := browser.DefaultOptions()
	interOpts := browser.DefaultOptions()
	interOpts.Interact = true
	plain := browser.New(browser.NewHTTPFetcher(client), plainOpts)
	inter := browser.New(browser.NewHTTPFetcher(client), interOpts)

	// Candidate selection. Experiment 1: sites with static findings but
	// no dynamic activity (drawn from a preliminary pass, like the
	// paper samples from its own measurement results). Experiments 2/3:
	// by category, the paper's "Ecommerce" and "Video players".
	var staticOnly, ecommerce, video []synthweb.Site
	for _, s := range srv.Sites() {
		if s.Kind != synthweb.KindOK {
			continue
		}
		switch s.Category {
		case synthweb.CatEcommerce:
			ecommerce = append(ecommerce, s)
		case synthweb.CatVideo:
			video = append(video, s)
		}
	}
	for _, s := range srv.Sites() {
		if len(staticOnly) >= v.SitesPerExperiment*3 {
			break
		}
		if s.Kind != synthweb.KindOK {
			continue
		}
		page, err := plain.Visit(ctx, s.URL())
		if err != nil {
			continue
		}
		st, dyn := sitePermissions(page)
		if len(st) > 0 && len(dyn) == 0 {
			staticOnly = append(staticOnly, s)
		}
	}

	experiments := []struct {
		name  string
		sites []synthweb.Site
	}{
		{"Static-Only", staticOnly},
		{"Ecommerce", ecommerce},
		{"Video Players", video},
	}
	var rows []ValidationRow
	for _, exp := range experiments {
		sites := exp.sites
		if len(sites) > v.SitesPerExperiment {
			sites = sites[:v.SitesPerExperiment]
		}
		row := ValidationRow{Experiment: exp.name, Sites: len(sites)}
		var sumStatic, sumDyn, sumAct, sumHitStatic, sumHitEither, totalAct int
		for _, s := range sites {
			noInter, err := plain.Visit(ctx, s.URL())
			if err != nil {
				continue
			}
			withInter, err := inter.Visit(ctx, s.URL())
			if err != nil {
				continue
			}
			st, dyn := sitePermissions(noInter)
			_, activated := sitePermissions(withInter)
			sumStatic += len(st)
			sumDyn += len(dyn)
			sumAct += len(activated)
			for p := range activated {
				totalAct++
				if st[p] {
					sumHitStatic++
				}
				if st[p] || dyn[p] {
					sumHitEither++
				}
			}
		}
		if row.Sites > 0 {
			row.AvgStatic = float64(sumStatic) / float64(row.Sites)
			row.AvgDynamic = float64(sumDyn) / float64(row.Sites)
			row.AvgActivated = float64(sumAct) / float64(row.Sites)
		}
		if totalAct > 0 {
			row.DetectedByStatic = 100 * float64(sumHitStatic) / float64(totalAct)
			row.DetectedByStaticOrDynam = 100 * float64(sumHitEither) / float64(totalAct)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// sitePermissions extracts the distinct specific permissions seen
// statically and dynamically anywhere on the page.
func sitePermissions(page *browser.PageResult) (staticSet, dynamicSet map[string]bool) {
	staticSet, dynamicSet = map[string]bool{}, map[string]bool{}
	for _, f := range page.Frames {
		for _, p := range static.Permissions(f.StaticFindings) {
			if permissions.Known(p) {
				staticSet[p] = true
			}
		}
		for _, inv := range f.Invocations {
			if inv.Kind == webapi.KindStatusCheck {
				continue // Table 12 compares *activated* permissions
			}
			for _, p := range inv.Permissions {
				if permissions.Known(p) {
					dynamicSet[p] = true
				}
			}
		}
	}
	return staticSet, dynamicSet
}

// RenderValidation renders Table 12.
func RenderValidation(rows []ValidationRow) string {
	var b strings.Builder
	b.WriteString("Table 12: Manual Testing of Average Permission Detection Across Experiments\n")
	fmt.Fprintf(&b, "%-14s %5s  %10s %10s %11s  %10s %10s\n",
		"Experiment", "Sites", "Static", "Dynamic", "Activated", "by Static", "by S∪D")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %5d  %10.2f %10.2f %11.2f  %9.2f%% %9.2f%%\n",
			r.Experiment, r.Sites, r.AvgStatic, r.AvgDynamic, r.AvgActivated,
			r.DetectedByStatic, r.DetectedByStaticOrDynam)
	}
	return b.String()
}

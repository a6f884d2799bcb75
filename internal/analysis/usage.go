package analysis

import (
	"permodyssey/internal/browser"
	"permodyssey/internal/permissions"
	"permodyssey/internal/static"
	"permodyssey/internal/webapi"
)

// UsageRow is one row of Table 4: contexts invoking a permission, split
// top-level vs embedded, with first/third-party script percentages.
// When both parties invoke in the same context it counts once overall
// but contributes to both percentages (the paper's rule, which is why
// percentages can exceed 100%).
type UsageRow struct {
	Name          string
	TopContexts   int
	Top1PPct      float64
	Top3PPct      float64
	EmbContexts   int
	Emb1PPct      float64
	Emb3PPct      float64
	TotalContexts int
}

// UsageSummary carries the §4.1.1 headline shares.
type UsageSummary struct {
	Websites              int
	WithAnyInvocation     int // 40.65% in the paper
	WithTopLevelActivity  int // 39.41%
	WithEmbeddedActivity  int // 7.98%
	DeprecatedAPIWebsites int // 429,259 websites still on Feature Policy API
}

// CheckRow is one row of Table 5, a permission whose status was
// checked, or of Table 6, a statically detected one.
type CheckRow struct {
	Name string
	// EmbeddedPct is the share of its contexts that are embedded.
	EmbeddedPct float64
	// Websites is the number of top-level websites where it was seen
	// (at any level).
	Websites int
}

// CheckStats carries the §4.1.2 aggregates.
type CheckStats struct {
	Websites   int // any status-check activity (435,185 in the paper)
	AtTopLevel int // 433,555
	InEmbedded int // 187,555
	MeanPerTop float64
	MaxPerTop  int
}

// StaticSummary carries §4.1.3's aggregates.
type StaticSummary struct {
	Websites      int // any static functionality (30.5% in the paper)
	TopLevelOnly  int
	EmbeddedAtAll int
}

// HybridSummary is the §4.1.4 headline: websites with any
// permission-related functionality, dynamic or static (48.52% in the
// paper), with the per-method shares.
type HybridSummary struct {
	Websites    int
	AnyActivity int
	DynamicOnly int
	StaticOnly  int
	Both        int
}

// t4cell accumulates Table 4 context counts for one row.
type t4cell struct {
	top, emb     int
	top1p, top3p int
	emb1p, emb3p int
}

func (c *t4cell) bump(topLevel, p1, p3 bool) {
	if topLevel {
		c.top++
		if p1 {
			c.top1p++
		}
		if p3 {
			c.top3p++
		}
	} else {
		c.emb++
		if p1 {
			c.emb1p++
		}
		if p3 {
			c.emb3p++
		}
	}
}

// ctxCell accumulates one Table 5 or 6 row: contexts by level, and the
// websites they are on.
type ctxCell struct {
	top, emb int
	websites tally
}

func (c *ctxCell) add(topLevel bool, rec int) {
	if topLevel {
		c.top++
	} else {
		c.emb++
	}
	c.websites.add(rec)
}

// allPermissions is Table 5's row for full-list retrievals.
const allPermissions = "All Permissions"

// usageFrame folds one frame into Tables 4-6: a context counts each
// permission once, however many of its invocations or findings name it.
func (a *Analysis) usageFrame(f *browser.FrameResult, statics []string, r *record) {
	r.dyn = r.dyn || len(f.Invocations) > 0
	r.stat = r.stat || len(f.StaticFindings) > 0
	if len(f.Invocations) > 0 {
		names := map[string]*[2]bool{} // Table 4 row → [first-party, third-party]
		checked := map[string]bool{}   // Table 5 rows
		for _, inv := range f.Invocations {
			if inv.Deprecated {
				a.depr.add(r.n)
			}
			firstParty := scriptParty(inv.ScriptURL, f.Site)
			for _, name := range invocationNames(inv) {
				flags := names[name]
				if flags == nil {
					flags = &[2]bool{}
					names[name] = flags
				}
				if firstParty {
					flags[0] = true
				} else {
					flags[1] = true
				}
			}
			if inv.Kind != webapi.KindStatusCheck {
				continue
			}
			checks := inv.Permissions
			if inv.AllPermissions {
				checks = []string{allPermissions}
			}
			for _, name := range checks {
				if name != allPermissions && f.TopLevel && cell(a.specific, name).add(r.n) {
					r.specific++
				}
				if !checked[name] {
					checked[name] = true
					cell(a.t5, name).add(f.TopLevel, r.n)
				}
			}
		}
		if len(names) > 0 {
			a.invAny.add(r.n)
			if f.TopLevel {
				a.invTop.add(r.n)
			} else {
				a.invEmb.add(r.n)
			}
			frame1p, frame3p := false, false
			for name, flags := range names {
				cell(a.t4, name).bump(f.TopLevel, flags[0], flags[1])
				frame1p = frame1p || flags[0]
				frame3p = frame3p || flags[1]
			}
			a.t4Total.bump(f.TopLevel, frame1p, frame3p)
		}
		if len(checked) > 0 {
			a.t5Total.add(f.TopLevel, r.n)
			if f.TopLevel {
				a.checkTop.add(r.n)
			} else {
				a.checkEmb.add(r.n)
			}
		}
	}
	if len(statics) > 0 || static.HasGeneralAPI(f.StaticFindings) {
		a.t6Total.add(f.TopLevel, r.n)
		if !f.TopLevel {
			a.staticEmb.add(r.n)
		}
		for _, p := range statics {
			cell(a.t6, p).add(f.TopLevel, r.n)
		}
	}
}

// usageReport fills Tables 4-6 and their summaries.
func (a *Analysis) usageReport(rd *ReportData, n int) {
	t4row := func(name string, c *t4cell) UsageRow {
		return UsageRow{
			Name:          name,
			TopContexts:   c.top,
			Top1PPct:      pct(c.top1p, c.top),
			Top3PPct:      pct(c.top3p, c.top),
			EmbContexts:   c.emb,
			Emb1PPct:      pct(c.emb1p, c.emb),
			Emb3PPct:      pct(c.emb3p, c.emb),
			TotalContexts: c.top + c.emb,
		}
	}
	rows := make([]UsageRow, 0, len(a.t4))
	for name, c := range a.t4 {
		rows = append(rows, t4row(displayName(name), c))
	}
	rd.Table4 = rank(rows, func(r UsageRow) (string, int) { return r.Name, r.TotalContexts }, n)
	rd.Table4Total = t4row(totalName, &a.t4Total)
	rd.Usage = UsageSummary{
		Websites:              a.websites,
		WithAnyInvocation:     a.invAny.n,
		WithTopLevelActivity:  a.invTop.n,
		WithEmbeddedActivity:  a.invEmb.n,
		DeprecatedAPIWebsites: a.depr.n,
	}

	rd.Table5, rd.Table5Total = ctxRows(a.t5, &a.t5Total, n)
	rd.Checks = CheckStats{
		Websites:   a.t5Total.websites.n,
		AtTopLevel: a.checkTop.n,
		InEmbedded: a.checkEmb.n,
		MaxPerTop:  a.specificMax,
	}
	if a.specificSites > 0 {
		rd.Checks.MeanPerTop = float64(a.specificSum) / float64(a.specificSites)
	}

	rd.Table6, rd.Table6Total = ctxRows(a.t6, &a.t6Total, n)
	// Top-level-only websites are those with any static functionality
	// less those with some in an embedded frame.
	rd.Static = StaticSummary{
		Websites:      a.t6Total.websites.n,
		TopLevelOnly:  a.t6Total.websites.n - a.staticEmb.n,
		EmbeddedAtAll: a.staticEmb.n,
	}
	rd.Hybrid = a.hybrid
	rd.Hybrid.Websites = a.websites
}

// invocationNames maps a record to its Table 4/5 row names: the
// specific permissions, or the General-Permission-APIs row.
func invocationNames(inv webapi.Invocation) []string {
	if inv.General() {
		return []string{permissions.GeneralAPIDisplayName}
	}
	return inv.Permissions
}

// ctxRows ranks Table 5 or 6 rows by websites and adds the Total row.
func ctxRows(m map[string]*ctxCell, total *ctxCell, n int) ([]CheckRow, CheckRow) {
	row := func(name string, c *ctxCell) CheckRow {
		return CheckRow{Name: name, EmbeddedPct: pct(c.emb, c.top+c.emb), Websites: c.websites.n}
	}
	rows := make([]CheckRow, 0, len(m))
	for name, c := range m {
		rows = append(rows, row(displayName(name), c))
	}
	return rank(rows, func(r CheckRow) (string, int) { return r.Name, r.Websites }, n), row(totalName, total)
}

func displayName(name string) string {
	if name == permissions.GeneralAPIDisplayName {
		return name
	}
	if p, ok := permissions.Lookup(name); ok {
		return p.DisplayName
	}
	return name
}

package analysis

import (
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

// Table4Invocations builds the dynamic-usage ranking (paper Table 4)
// plus the Total row and summary shares.
func (a *Analysis) Table4Invocations(n int) ([]UsageRow, UsageRow, UsageSummary) {
	perName := map[string]*t4cell{}
	total := &t4cell{}
	sum := UsageSummary{Websites: len(a.recs)}

	for _, rec := range a.recs {
		anyTop, anyEmb, usedDeprecated := false, false, false
		for fi := range rec.Page.Frames {
			f := &rec.Page.Frames[fi]
			if len(f.Invocations) == 0 {
				continue
			}
			// First occurrence per permission per context, with party
			// flags accumulated across the frame's invocations.
			names := map[string]*[2]bool{} // name → [1p, 2:3p]
			for _, inv := range f.Invocations {
				if inv.Deprecated {
					usedDeprecated = true
				}
				for _, name := range invocationNames(inv) {
					flags, ok := names[name]
					if !ok {
						flags = &[2]bool{}
						names[name] = flags
					}
					if scriptParty(inv.ScriptURL, f.Site) {
						flags[0] = true
					} else {
						flags[1] = true
					}
				}
			}
			if len(names) == 0 {
				continue
			}
			if f.TopLevel {
				anyTop = true
			} else {
				anyEmb = true
			}
			frame1p, frame3p := false, false
			for name, flags := range names {
				c, ok := perName[name]
				if !ok {
					c = &t4cell{}
					perName[name] = c
				}
				c.bump(f.TopLevel, flags[0], flags[1])
				frame1p = frame1p || flags[0]
				frame3p = frame3p || flags[1]
			}
			total.bump(f.TopLevel, frame1p, frame3p)
		}
		if anyTop || anyEmb {
			sum.WithAnyInvocation++
		}
		if anyTop {
			sum.WithTopLevelActivity++
		}
		if anyEmb {
			sum.WithEmbeddedActivity++
		}
		if usedDeprecated {
			sum.DeprecatedAPIWebsites++
		}
	}

	mkRow := func(name string, c *t4cell) UsageRow {
		return UsageRow{
			Name:          displayName(name),
			TopContexts:   c.top,
			Top1PPct:      pct(c.top1p, c.top),
			Top3PPct:      pct(c.top3p, c.top),
			EmbContexts:   c.emb,
			Emb1PPct:      pct(c.emb1p, c.emb),
			Emb3PPct:      pct(c.emb3p, c.emb),
			TotalContexts: c.top + c.emb,
		}
	}
	rows := make([]UsageRow, 0, len(perName))
	for name, c := range perName {
		rows = append(rows, mkRow(name, c))
	}
	rows = rank(rows, func(r UsageRow) (string, int) { return r.Name, r.TotalContexts }, n)
	totalRow := mkRow("Total (any permission)", total)
	totalRow.Name = "Total (any permission)"
	return rows, totalRow, sum
}

func displayName(name string) string {
	if name == generalRow {
		return generalRow
	}
	if p, ok := permissions.Lookup(name); ok {
		return p.DisplayName
	}
	return name
}

// CheckRow is one row of Table 5: a permission whose status was checked.
type CheckRow struct {
	Name string
	// EmbeddedPct is the share of checking contexts that are embedded.
	EmbeddedPct float64
	// Websites is the number of top-level websites where the permission
	// was checked (at any level).
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

// Table5StatusChecks builds the status-check ranking (paper Table 5):
// the synthetic "All Permissions" row counts full-list retrievals.
func (a *Analysis) Table5StatusChecks(n int) ([]CheckRow, CheckRow, CheckStats) {
	type cell struct {
		topCtx, embCtx int
		websites       map[int]bool
	}
	perName := map[string]*cell{}
	total := &cell{websites: map[int]bool{}}
	stats := CheckStats{}
	specificCounts := []int{}

	get := func(name string) *cell {
		c, ok := perName[name]
		if !ok {
			c = &cell{websites: map[int]bool{}}
			perName[name] = c
		}
		return c
	}

	for _, rec := range a.recs {
		siteKey := rec.Rank
		anyTop, anyEmb := false, false
		topSpecific := map[string]bool{}
		for fi := range rec.Page.Frames {
			f := &rec.Page.Frames[fi]
			seen := map[string]bool{}
			for _, inv := range f.Invocations {
				if inv.Kind != webapi.KindStatusCheck {
					continue
				}
				var names []string
				if inv.AllPermissions {
					names = []string{"All Permissions"}
				} else {
					names = inv.Permissions
				}
				for _, name := range names {
					if name != "All Permissions" && f.TopLevel {
						topSpecific[name] = true
					}
					if seen[name] {
						continue
					}
					seen[name] = true
					c := get(name)
					if f.TopLevel {
						c.topCtx++
					} else {
						c.embCtx++
					}
					c.websites[siteKey] = true
				}
				if len(names) > 0 {
					if f.TopLevel {
						anyTop = true
					} else {
						anyEmb = true
					}
				}
			}
			if len(seen) > 0 {
				if f.TopLevel {
					total.topCtx++
				} else {
					total.embCtx++
				}
				total.websites[siteKey] = true
			}
		}
		if anyTop || anyEmb {
			stats.Websites++
		}
		if anyTop {
			stats.AtTopLevel++
		}
		if anyEmb {
			stats.InEmbedded++
		}
		if len(topSpecific) > 0 {
			specificCounts = append(specificCounts, len(topSpecific))
		}
	}

	mkRow := func(name string, c *cell) CheckRow {
		return CheckRow{
			Name:        displayName(name),
			EmbeddedPct: pct(c.embCtx, c.topCtx+c.embCtx),
			Websites:    len(c.websites),
		}
	}
	rows := make([]CheckRow, 0, len(perName))
	for name, c := range perName {
		rows = append(rows, mkRow(name, c))
	}
	rows = rank(rows, func(r CheckRow) (string, int) { return r.Name, r.Websites }, n)
	sumN, maxN := 0, 0
	for _, k := range specificCounts {
		sumN += k
		if k > maxN {
			maxN = k
		}
	}
	if len(specificCounts) > 0 {
		stats.MeanPerTop = float64(sumN) / float64(len(specificCounts))
	}
	stats.MaxPerTop = maxN
	totalRow := mkRow("Total (any permission)", total)
	totalRow.Name = "Total (any permission)"
	return rows, totalRow, stats
}

// StaticRow is one row of Table 6.
type StaticRow struct {
	Name        string
	EmbeddedPct float64
	Websites    int
}

// StaticSummary carries §4.1.3's aggregates.
type StaticSummary struct {
	Websites      int // any static functionality (30.5% in the paper)
	TopLevelOnly  int
	EmbeddedAtAll int
}

// Table6Static builds the static-detection ranking (paper Table 6).
func (a *Analysis) Table6Static(n int) ([]StaticRow, StaticRow, StaticSummary) {
	type cell struct {
		topCtx, embCtx int
		websites       map[int]bool
	}
	perName := map[string]*cell{}
	total := &cell{websites: map[int]bool{}}
	sum := StaticSummary{}

	for _, rec := range a.recs {
		anyTop, anyEmb := false, false
		for fi := range rec.Page.Frames {
			f := &rec.Page.Frames[fi]
			perms := static.Permissions(f.StaticFindings)
			hasGeneral := static.HasGeneralAPI(f.StaticFindings)
			if len(perms) == 0 && !hasGeneral {
				continue
			}
			if f.TopLevel {
				anyTop = true
				total.topCtx++
			} else {
				anyEmb = true
				total.embCtx++
			}
			total.websites[rec.Rank] = true
			for _, p := range perms {
				c, ok := perName[p]
				if !ok {
					c = &cell{websites: map[int]bool{}}
					perName[p] = c
				}
				if f.TopLevel {
					c.topCtx++
				} else {
					c.embCtx++
				}
				c.websites[rec.Rank] = true
			}
		}
		if anyTop || anyEmb {
			sum.Websites++
		}
		if anyTop && !anyEmb {
			sum.TopLevelOnly++
		}
		if anyEmb {
			sum.EmbeddedAtAll++
		}
	}

	mkRow := func(name string, c *cell) StaticRow {
		return StaticRow{
			Name:        displayName(name),
			EmbeddedPct: pct(c.embCtx, c.topCtx+c.embCtx),
			Websites:    len(c.websites),
		}
	}
	rows := make([]StaticRow, 0, len(perName))
	for name, c := range perName {
		rows = append(rows, mkRow(name, c))
	}
	rows = rank(rows, func(r StaticRow) (string, int) { return r.Name, r.Websites }, n)
	totalRow := mkRow("Total (any permission)", total)
	totalRow.Name = "Total (any permission)"
	return rows, totalRow, sum
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

// SummaryHybrid computes the §4.1.4 headline result.
func (a *Analysis) SummaryHybrid() HybridSummary {
	s := HybridSummary{Websites: len(a.recs)}
	for _, rec := range a.recs {
		dyn, stat := false, false
		for fi := range rec.Page.Frames {
			f := &rec.Page.Frames[fi]
			if len(f.Invocations) > 0 {
				dyn = true
			}
			if len(f.StaticFindings) > 0 {
				stat = true
			}
		}
		switch {
		case dyn && stat:
			s.AnyActivity++
			s.Both++
		case dyn:
			s.AnyActivity++
			s.DynamicOnly++
		case stat:
			s.AnyActivity++
			s.StaticOnly++
		}
	}
	return s
}

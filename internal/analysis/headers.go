package analysis

import (
	"maps"

	"permodyssey/internal/browser"
	"permodyssey/internal/origin"
	"permodyssey/internal/policy"
)

// AdoptionStats reproduces Figure 2 and the §4.3 adoption numbers.
// Local-scheme documents are excluded throughout (they carry no
// headers).
type AdoptionStats struct {
	Documents      int
	TopLevelDocs   int
	EmbeddedDocs   int
	PPDocuments    int // Permissions-Policy anywhere (7.90% in the paper)
	FPDocuments    int // Feature-Policy (0.51%)
	BothDocuments  int // overlap (2,302 websites in the paper)
	PPTopLevel     int // 4.5% of top-level
	PPEmbedded     int // 12.3% of embedded
	PPDocumentsPct float64
	FPDocumentsPct float64
	PPTopLevelPct  float64
	PPEmbeddedPct  float64
}

// DirectiveBreadthRow is one row of Table 9: for one permission, how
// many top-level websites declare each least-restrictive breadth.
type DirectiveBreadthRow struct {
	Name     string
	Counts   map[policy.Breadth]int
	Websites int
}

// HeaderContentStats carries the §4.3.1 aggregates.
type HeaderContentStats struct {
	HeaderWebsites int // top-level docs with the header (50,469)
	ParsedWebsites int // correctly parsed (47,681)
	AvgPermissions float64
	MaxPermissions int
	// SizeHistogram: directive-count → websites (the 18/1/9 template
	// signature of §4.3.1).
	SizeHistogram map[int]int
	// DisablePct etc. aggregate ALL directives, matching the Total row.
	DisablePct               float64
	SelfPct                  float64
	AllPct                   float64
	PowerfulDisableOrSelfPct float64
}

// EmbeddedHeaderStats reproduces §4.3.2: header content in embedded
// documents, where the most prevalent directives are User-Agent
// Client-Hints features granted '*' (which "effectively has no impact
// because the header can only enforce restrictions"), and the
// disable share drops to ~51% (vs 83.5% top-level).
type EmbeddedHeaderStats struct {
	// Documents is the number of embedded non-local frames with a valid
	// Permissions-Policy header.
	Documents int
	// TopFeatures ranks declared features by document count.
	TopFeatures []SiteCount
	// DisablePct / SelfPct / AllPct split all directives by breadth.
	DisablePct float64
	SelfPct    float64
	AllPct     float64
	// PowerfulDirectivePct is the share of directives naming powerful
	// permissions (56.29% top-level vs 26.30% embedded in the paper).
	PowerfulDirectivePct float64
}

// MisconfigStats reproduces §4.3.3.
type MisconfigStats struct {
	// FramesWithHeader is the number of non-local frames declaring the
	// Permissions-Policy header (157,048 in the paper).
	FramesWithHeader int
	// SyntaxErrorFrames lost the whole header (3,244; 2%).
	SyntaxErrorFrames   int
	SyntaxErrorTopLevel int
	SyntaxErrorEmbedded int
	// ByKind counts linter findings per issue kind over all frames.
	ByKind map[policy.IssueKind]int
	// SemanticMisconfigWebsites: websites whose top-level header parses
	// but carries semantic defects (6,408 in the paper).
	SemanticMisconfigWebsites int
	// SemanticMisconfigEmbedded: websites that embed a document with a
	// misconfigured header (653).
	SemanticMisconfigEmbedded int
}

// ReportOnlyStats measures Permissions-Policy-Report-Only adoption —
// the observe-before-enforce mode the specification inherits from CSP.
type ReportOnlyStats struct {
	Documents      int
	WithReportOnly int
	// AlsoEnforcing of those serve an enforced header too.
	AlsoEnforcing int
	// EndpointsSeen counts distinct report-to endpoint names.
	EndpointsSeen int
}

// LocalSchemeExposure estimates how many measured websites satisfy the
// §6.2 exploitability preconditions for the local-scheme bypass: a
// valid top-level header restricting a powerful permission to self
// (the "second most common" configuration), combined with a CSP that
// does not govern frames (or no CSP at all) — so an HTML injection
// could introduce the local-scheme intermediary.
type LocalSchemeExposure struct {
	// SelfOnlyPowerful: websites whose header grants some powerful
	// permission exactly 'self'.
	SelfOnlyPowerful int
	// Exposed of those lack a frame-governing CSP directive.
	Exposed int
}

// headerFrame folds one frame's headers into Figure 2, report-only
// adoption, the §4.3.3 misconfigurations and the §4.3.2 embedded
// header content. Local-scheme documents carry no headers.
func (a *Analysis) headerFrame(f *browser.FrameResult, r *record) {
	if f.LocalScheme {
		return
	}
	if f.LoadError == "" {
		s := &a.adoption
		s.Documents++
		if f.TopLevel {
			s.TopLevelDocs++
		} else {
			s.EmbeddedDocs++
		}
		if f.HasPermissionsPolicy {
			s.PPDocuments++
			if f.TopLevel {
				s.PPTopLevel++
			} else {
				s.PPEmbedded++
			}
		}
		if f.HasFeaturePolicy {
			s.FPDocuments++
		}
		if f.HasPermissionsPolicy && f.HasFeaturePolicy {
			s.BothDocuments++
		}
		if f.HasReportOnly {
			a.reportOnly.WithReportOnly++
			if f.HasPermissionsPolicy {
				a.reportOnly.AlsoEnforcing++
			}
			if _, eps, _, err := policy.ParseReportOnly(f.ReportOnlyRaw); err == nil {
				for _, name := range eps {
					a.endpoints[name] = true
				}
			}
		}
	}
	if !f.HasPermissionsPolicy {
		return
	}
	m := &a.misconfig
	m.FramesWithHeader++
	semantic := false
	for _, issue := range f.HeaderIssues {
		m.ByKind[issue.Kind]++
		switch issue.Kind {
		case policy.IssueUnrecognizedToken, policy.IssueUnquotedOrigin,
			policy.IssueContradictory, policy.IssueOriginsWithoutSelf,
			policy.IssueInvalidOrigin:
			semantic = true
		}
	}
	if !f.HeaderValid {
		m.SyntaxErrorFrames++
		if f.TopLevel {
			m.SyntaxErrorTopLevel++
		} else {
			m.SyntaxErrorEmbedded++
		}
		return
	}
	switch {
	case semantic && f.TopLevel:
		a.semanticTop.add(r.n)
	case semantic:
		a.semanticEmb.add(r.n)
	}
	if f.TopLevel {
		return
	}
	p, _, err := policy.ParsePermissionsPolicy(f.PermissionsPolicyRaw)
	if err != nil {
		return
	}
	a.embDocs++
	self, _ := origin.Parse(f.Origin)
	for _, d := range p.Directives {
		a.embFeatures[d.Feature]++
		a.embDirectives++
		if isPowerful(d.Feature) {
			a.embPowerful++
		}
		a.embBreadth[d.Allowlist.BreadthFor(self)]++
	}
}

// topHeader folds the top-level document's Permissions-Policy header,
// parsed once, into Table 9, the §4.3.1 content statistics and the
// §6.2 exposure.
func (a *Analysis) topHeader(top *browser.FrameResult) {
	if !top.HasPermissionsPolicy {
		return
	}
	s := &a.header
	s.HeaderWebsites++
	if !top.HeaderValid {
		return
	}
	p, _, err := policy.ParsePermissionsPolicy(top.PermissionsPolicyRaw)
	if err != nil {
		return
	}
	s.ParsedWebsites++
	s.SizeHistogram[len(p.Directives)]++
	s.MaxPermissions = max(s.MaxPermissions, len(p.Directives))
	self, _ := origin.Parse(top.Origin)
	selfPowerful := false
	for _, d := range p.Directives {
		breadth := d.Allowlist.BreadthFor(self)
		row, ok := a.t9[d.Feature]
		if !ok {
			row = &DirectiveBreadthRow{Name: d.Feature, Counts: map[policy.Breadth]int{}}
			a.t9[d.Feature] = row
		}
		row.Counts[breadth]++
		row.Websites++
		a.t9Total.Counts[breadth]++
		a.t9Directives++
		if isPowerful(d.Feature) {
			a.powerfulDirectives++
			if breadth <= policy.BreadthSelf {
				a.powerfulTight++
			}
			selfPowerful = selfPowerful ||
				d.Allowlist.Self && !d.Allowlist.All && len(d.Allowlist.Origins) == 0
		}
	}
	a.t9Total.Websites++
	if selfPowerful {
		a.exposure.SelfOnlyPowerful++
		// Exposed when the CSP would let an injected data: iframe load
		// (no governing directive, or one not admitting data:).
		if browser.ParseCSP(top.CSPRaw).AllowsFrame("data:text/html,x") {
			a.exposure.Exposed++
		}
	}
}

// headerReport fills Figure 2, Table 9 and the §4.3 header statistics.
func (a *Analysis) headerReport(rd *ReportData, n int) {
	rd.Adoption = a.adoption
	s := &rd.Adoption
	s.PPDocumentsPct = pct(s.PPDocuments, s.Documents)
	s.FPDocumentsPct = pct(s.FPDocuments, s.Documents)
	s.PPTopLevelPct = pct(s.PPTopLevel, s.TopLevelDocs)
	s.PPEmbeddedPct = pct(s.PPEmbedded, s.EmbeddedDocs)

	rows := make([]DirectiveBreadthRow, 0, len(a.t9))
	for _, row := range a.t9 {
		rows = append(rows, DirectiveBreadthRow{Name: row.Name, Counts: maps.Clone(row.Counts), Websites: row.Websites})
	}
	rd.Table9 = rank(rows, func(r DirectiveBreadthRow) (string, int) { return r.Name, r.Websites }, n)
	rd.Table9Total = a.t9Total
	rd.Table9Total.Counts = maps.Clone(a.t9Total.Counts)
	rd.HeaderStats = a.header
	h := &rd.HeaderStats
	h.SizeHistogram = maps.Clone(a.header.SizeHistogram)
	if h.ParsedWebsites > 0 {
		h.AvgPermissions = float64(a.t9Directives) / float64(h.ParsedWebsites)
	}
	h.DisablePct = pct(a.t9Total.Counts[policy.BreadthDisable], a.t9Directives)
	h.SelfPct = pct(a.t9Total.Counts[policy.BreadthSelf], a.t9Directives)
	h.AllPct = pct(a.t9Total.Counts[policy.BreadthAll], a.t9Directives)
	h.PowerfulDisableOrSelfPct = pct(a.powerfulTight, a.powerfulDirectives)

	rd.EmbeddedHdr = EmbeddedHeaderStats{
		Documents:            a.embDocs,
		TopFeatures:          topCounts(a.embFeatures, func(c int) int { return c }, n),
		DisablePct:           pct(a.embBreadth[policy.BreadthDisable], a.embDirectives),
		SelfPct:              pct(a.embBreadth[policy.BreadthSelf], a.embDirectives),
		AllPct:               pct(a.embBreadth[policy.BreadthAll], a.embDirectives),
		PowerfulDirectivePct: pct(a.embPowerful, a.embDirectives),
	}

	rd.Misconfig = a.misconfig
	rd.Misconfig.ByKind = maps.Clone(a.misconfig.ByKind)
	rd.Misconfig.SemanticMisconfigWebsites = a.semanticTop.n
	rd.Misconfig.SemanticMisconfigEmbedded = a.semanticEmb.n
	rd.IssueKinds = rd.Misconfig.ByKind
	rd.ReportOnlyH = a.reportOnly
	rd.ReportOnlyH.Documents = a.adoption.Documents
	rd.ReportOnlyH.EndpointsSeen = len(a.endpoints)
	rd.Exposure = a.exposure
}

package analysis

import (
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

// Figure2Adoption computes header adoption over all non-local frames.
func (a *Analysis) Figure2Adoption() AdoptionStats {
	var s AdoptionStats
	for _, fr := range a.frames() {
		f := fr.frame
		if f.LocalScheme || f.LoadError != "" {
			continue
		}
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
	}
	s.PPDocumentsPct = pct(s.PPDocuments, s.Documents)
	s.FPDocumentsPct = pct(s.FPDocuments, s.Documents)
	s.PPTopLevelPct = pct(s.PPTopLevel, s.TopLevelDocs)
	s.PPEmbeddedPct = pct(s.PPEmbedded, s.EmbeddedDocs)
	return s
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

// Table9HeaderDirectives computes, for top-level documents with a valid
// Permissions-Policy header, the least restrictive directive per
// feature per website (paper Table 9), plus a Total row and content
// statistics.
func (a *Analysis) Table9HeaderDirectives(n int) ([]DirectiveBreadthRow, DirectiveBreadthRow, HeaderContentStats) {
	perName := map[string]*DirectiveBreadthRow{}
	total := &DirectiveBreadthRow{Name: "Total (any permission)", Counts: map[policy.Breadth]int{}}
	stats := HeaderContentStats{SizeHistogram: map[int]int{}}
	totalDirectives := 0
	powerfulDirectives, powerfulTight := 0, 0
	sumPerms := 0

	for _, rec := range a.recs {
		top := rec.Page.TopFrame()
		if !top.HasPermissionsPolicy {
			continue
		}
		stats.HeaderWebsites++
		if !top.HeaderValid {
			continue
		}
		p, _, err := policy.ParsePermissionsPolicy(top.PermissionsPolicyRaw)
		if err != nil {
			continue
		}
		stats.ParsedWebsites++
		stats.SizeHistogram[len(p.Directives)]++
		sumPerms += len(p.Directives)
		if len(p.Directives) > stats.MaxPermissions {
			stats.MaxPermissions = len(p.Directives)
		}
		self, _ := origin.Parse(top.Origin)
		for _, d := range p.Directives {
			breadth := d.Allowlist.BreadthFor(self)
			row, ok := perName[d.Feature]
			if !ok {
				row = &DirectiveBreadthRow{Name: d.Feature, Counts: map[policy.Breadth]int{}}
				perName[d.Feature] = row
			}
			row.Counts[breadth]++
			row.Websites++
			total.Counts[breadth]++
			totalDirectives++
			if isPowerful(d.Feature) {
				powerfulDirectives++
				if breadth <= policy.BreadthSelf {
					powerfulTight++
				}
			}
		}
		total.Websites++ // websites with ≥1 parsed directive
	}

	if stats.ParsedWebsites > 0 {
		stats.AvgPermissions = float64(sumPerms) / float64(stats.ParsedWebsites)
	}
	stats.DisablePct = pct(total.Counts[policy.BreadthDisable], totalDirectives)
	stats.SelfPct = pct(total.Counts[policy.BreadthSelf], totalDirectives)
	stats.AllPct = pct(total.Counts[policy.BreadthAll], totalDirectives)
	stats.PowerfulDisableOrSelfPct = pct(powerfulTight, powerfulDirectives)

	rows := make([]DirectiveBreadthRow, 0, len(perName))
	for _, row := range perName {
		rows = append(rows, *row)
	}
	rows = rank(rows, func(r DirectiveBreadthRow) (string, int) { return r.Name, r.Websites }, n)
	return rows, *total, stats
}

func isPowerful(name string) bool {
	if p, ok := lookupPermission(name); ok {
		return p
	}
	return false
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

// EmbeddedHeaders computes §4.3.2 over embedded documents.
func (a *Analysis) EmbeddedHeaders(topN int) EmbeddedHeaderStats {
	s := EmbeddedHeaderStats{}
	features := map[string]int{}
	var disable, self, all, total, powerful int
	for _, fr := range a.frames() {
		f := fr.frame
		if f.TopLevel || f.LocalScheme || !f.HasPermissionsPolicy || !f.HeaderValid {
			continue
		}
		p, _, err := policy.ParsePermissionsPolicy(f.PermissionsPolicyRaw)
		if err != nil {
			continue
		}
		s.Documents++
		selfOrigin, _ := origin.Parse(f.Origin)
		for _, d := range p.Directives {
			features[d.Feature]++
			total++
			if isPowerful(d.Feature) {
				powerful++
			}
			switch d.Allowlist.BreadthFor(selfOrigin) {
			case policy.BreadthDisable:
				disable++
			case policy.BreadthSelf:
				self++
			case policy.BreadthAll:
				all++
			}
		}
	}
	s.TopFeatures = topCounts(features, topN)
	s.DisablePct = pct(disable, total)
	s.SelfPct = pct(self, total)
	s.AllPct = pct(all, total)
	s.PowerfulDirectivePct = pct(powerful, total)
	return s
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

// Misconfigurations analyzes header defects across all frames.
func (a *Analysis) Misconfigurations() MisconfigStats {
	s := MisconfigStats{ByKind: map[policy.IssueKind]int{}}
	for _, rec := range a.recs {
		topSemantic, embSemantic := false, false
		for fi := range rec.Page.Frames {
			f := &rec.Page.Frames[fi]
			if f.LocalScheme || !f.HasPermissionsPolicy {
				continue
			}
			s.FramesWithHeader++
			for _, issue := range f.HeaderIssues {
				s.ByKind[issue.Kind]++
			}
			if !f.HeaderValid {
				s.SyntaxErrorFrames++
				if f.TopLevel {
					s.SyntaxErrorTopLevel++
				} else {
					s.SyntaxErrorEmbedded++
				}
				continue
			}
			semantic := false
			for _, issue := range f.HeaderIssues {
				switch issue.Kind {
				case policy.IssueUnrecognizedToken, policy.IssueUnquotedOrigin,
					policy.IssueContradictory, policy.IssueOriginsWithoutSelf,
					policy.IssueInvalidOrigin:
					semantic = true
				}
			}
			if semantic {
				if f.TopLevel {
					topSemantic = true
				} else {
					embSemantic = true
				}
			}
		}
		if topSemantic {
			s.SemanticMisconfigWebsites++
		}
		if embSemantic {
			s.SemanticMisconfigEmbedded++
		}
	}
	return s
}

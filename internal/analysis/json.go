package analysis

import (
	"encoding/json"
	"maps"

	"permodyssey/internal/policy"
	"permodyssey/internal/store"
)

// ReportData is the machine-readable form of every table and figure —
// the open-data artifact accompanying the measurement (the paper
// commits to making results publicly available, criterion C15).
type ReportData struct {
	Websites     int                        `json:"websites"`
	TotalRecords int                        `json:"total_records"`
	Failures     map[store.FailureClass]int `json:"failures"`
	Retries      RetryStats                 `json:"retry_outcomes"`
	Frames       FrameStats                 `json:"frames"`
	Table3       []SiteCount                `json:"table3_top_embeds"`
	Table3Total  int                        `json:"table3_total_any_site"`
	Table4       []UsageRow                 `json:"table4_invocations"`
	Table4Total  UsageRow                   `json:"table4_total"`
	Usage        UsageSummary               `json:"usage_summary"`
	Table5       []CheckRow                 `json:"table5_status_checks"`
	Table5Total  CheckRow                   `json:"table5_total"`
	Checks       CheckStats                 `json:"check_stats"`
	Table6       []CheckRow                 `json:"table6_static"`
	Table6Total  CheckRow                   `json:"table6_total"`
	Static       StaticSummary              `json:"static_summary"`
	Hybrid       HybridSummary              `json:"hybrid_summary"`
	Delegation   DelegationSummary          `json:"delegation_summary"`
	Table7       []SiteCount                `json:"table7_delegated_embeds"`
	Table7Total  int                        `json:"table7_total_any_site"`
	Table8       []DelegatedPermissionRow   `json:"table8_delegated_permissions"`
	Table8Total  DelegatedPermissionRow     `json:"table8_total"`
	Directives   DirectiveShares            `json:"delegation_directives"`
	Adoption     AdoptionStats              `json:"figure2_adoption"`
	Table9       []DirectiveBreadthRow      `json:"table9_header_directives"`
	Table9Total  DirectiveBreadthRow        `json:"table9_total"`
	HeaderStats  HeaderContentStats         `json:"header_content"`
	Misconfig    MisconfigStats             `json:"misconfigurations"`
	Table10      []OverPermissionRow        `json:"table10_overpermissioned"`
	Table10Total int                        `json:"table10_total_affected"`
	Wildcards    []WildcardRisk             `json:"wildcard_risks"`
	Nested       NestedDelegationStats      `json:"nested_delegations"`
	Prevalence   []PrevalenceTier           `json:"delegated_embed_prevalence"`
	ReportOnlyH  ReportOnlyStats            `json:"report_only"`
	IssueKinds   map[policy.IssueKind]int   `json:"issue_kinds"`
	Purposes     []PurposeRow               `json:"delegation_purposes"`
	Exposure     LocalSchemeExposure        `json:"local_scheme_exposure"`
	EmbeddedHdr  EmbeddedHeaderStats        `json:"embedded_headers"`
	InternalGain InternalPageGain           `json:"internal_page_gain"`
}

// ReportData ranks, truncates and divides the folded aggregates into
// every table, keeping topN rows per ranking (all when topN <= 0).
func (a *Analysis) ReportData(topN int) ReportData {
	rd := ReportData{
		Websites:     a.websites,
		TotalRecords: a.total,
		Failures:     maps.Clone(a.failures),
		Retries:      a.retryStats(),
		Frames:       a.census,
	}
	rd.Frames.Websites = a.websites
	if rd.Frames.WebsitesWithFrame > 0 {
		rd.Frames.AvgIframesPerSite = float64(a.iframes) / float64(rd.Frames.WebsitesWithFrame)
	}
	a.usageReport(&rd, topN)
	a.delegationReport(&rd, topN)
	a.headerReport(&rd, topN)
	rd.Table10, rd.Table10Total = a.OverPermissioned(DefaultOverPermissionConfig(), topN)
	a.extensionReport(&rd)
	return rd
}

// JSON renders the report data as indented JSON.
func (a *Analysis) JSON(topN int) ([]byte, error) {
	return json.MarshalIndent(a.ReportData(topN), "", "  ")
}

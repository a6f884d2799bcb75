package analysis

import (
	"fmt"
	"strings"

	"permodyssey/internal/store"
)

// DriftRow is one compared metric: its value in the before and after
// snapshots, and how it moved. Status marks rows that exist on only
// one side — a permission newly in use ("new") or one that vanished
// ("gone") — which per-table deltas would otherwise hide.
type DriftRow struct {
	Name      string  `json:"name"`
	Before    int     `json:"before"`
	After     int     `json:"after"`
	Delta     int     `json:"delta"`
	Status    string  `json:"status,omitempty"`
	BeforePct float64 `json:"before_pct,omitempty"`
	AfterPct  float64 `json:"after_pct,omitempty"`
	HasPct    bool    `json:"-"`
}

// DriftReport is the longitudinal comparison of two ReportData
// snapshots — the paper's measurement repeated over time, reduced to
// what moved: population health, header adoption (Figure 2), dynamic
// API usage (Table 4), delegation (summary + Table 8), and
// header-declared permissions (Table 9).
type DriftReport struct {
	LabelA, LabelB string     `json:"-"`
	Population     []DriftRow `json:"population"`
	Adoption       []DriftRow `json:"adoption"`
	Usage          []DriftRow `json:"usage"`
	Delegation     []DriftRow `json:"delegation"`
	Delegated      []DriftRow `json:"delegated_permissions"`
	Headers        []DriftRow `json:"header_permissions"`
}

// Diff compares two report snapshots, before → after. Compute both
// sides with ReportData(0) — unbounded tables — so a permission
// appearing or disappearing is population drift, never a top-N
// truncation artifact. The output ordering is deterministic: within
// each section, absolute delta descending, then name.
func Diff(before, after ReportData, labelA, labelB string) DriftReport {
	d := DriftReport{LabelA: labelA, LabelB: labelB}

	d.Population = append(d.Population,
		DriftRow{Name: "analyzable websites", Before: before.Websites, After: after.Websites, Delta: after.Websites - before.Websites},
		DriftRow{Name: "total records", Before: before.TotalRecords, After: after.TotalRecords, Delta: after.TotalRecords - before.TotalRecords},
	)
	d.Population = append(d.Population, diffCounts(failureCounts(before.Failures), failureCounts(after.Failures), "failures: ")...)

	d.Adoption = adoptionDrift(before.Adoption, after.Adoption)

	d.Usage = diffCounts(usageCounts(before.Table4), usageCounts(after.Table4), "")
	d.Delegated = diffCounts(delegatedCounts(before.Table8), delegatedCounts(after.Table8), "")
	d.Headers = diffCounts(headerCounts(before.Table9), headerCounts(after.Table9), "")

	d.Delegation = []DriftRow{
		delta("websites with any delegation", before.Delegation.AnyDelegation, after.Delegation.AnyDelegation),
		delta("websites delegating to external embeds", before.Delegation.ExternalDelegation, after.Delegation.ExternalDelegation),
		delta("third-party delegated iframes", before.Delegation.ThirdPartyDelegation, after.Delegation.ThirdPartyDelegation),
		delta("deep (depth>1) delegated frames", before.Nested.DeepDelegated, after.Nested.DeepDelegated),
	}
	return d
}

func delta(name string, before, after int) DriftRow {
	return DriftRow{Name: name, Before: before, After: after, Delta: after - before}
}

func failureCounts(m map[store.FailureClass]int) map[string]int {
	out := make(map[string]int, len(m))
	for class, n := range m {
		name := string(class)
		if name == "" {
			name = "none"
		}
		out[name] = n
	}
	return out
}

func usageCounts(rows []UsageRow) map[string]int {
	out := make(map[string]int, len(rows))
	for _, r := range rows {
		out[r.Name] = r.TotalContexts
	}
	return out
}

func delegatedCounts(rows []DelegatedPermissionRow) map[string]int {
	out := make(map[string]int, len(rows))
	for _, r := range rows {
		out[r.Name] = r.Websites
	}
	return out
}

func headerCounts(rows []DirectiveBreadthRow) map[string]int {
	out := make(map[string]int, len(rows))
	for _, r := range rows {
		out[r.Name] = r.Websites
	}
	return out
}

// diffCounts turns two name→count maps into drift rows over the union
// of names, marking one-sided names new/gone and dropping untouched
// zero rows. Deterministic order: |delta| descending, then name.
func diffCounts(before, after map[string]int, prefix string) []DriftRow {
	names := make(map[string]bool, len(before)+len(after))
	for n := range before {
		names[n] = true
	}
	for n := range after {
		names[n] = true
	}
	rows := make([]DriftRow, 0, len(names))
	for n := range names {
		b, inB := before[n]
		a, inA := after[n]
		row := DriftRow{Name: prefix + n, Before: b, After: a, Delta: a - b}
		switch {
		case !inB:
			row.Status = "new"
		case !inA:
			row.Status = "gone"
		}
		rows = append(rows, row)
	}
	return rank(rows, func(r DriftRow) (string, int) { return r.Name, abs(r.Delta) }, 0)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func adoptionDrift(b, a AdoptionStats) []DriftRow {
	pctRow := func(name string, bc, ac int, bp, ap float64) DriftRow {
		return DriftRow{Name: name, Before: bc, After: ac, Delta: ac - bc, BeforePct: bp, AfterPct: ap, HasPct: true}
	}
	return []DriftRow{
		delta("documents (non-local)", b.Documents, a.Documents),
		pctRow("Permissions-Policy documents", b.PPDocuments, a.PPDocuments, b.PPDocumentsPct, a.PPDocumentsPct),
		pctRow("Feature-Policy documents", b.FPDocuments, a.FPDocuments, b.FPDocumentsPct, a.FPDocumentsPct),
		delta("documents with both headers", b.BothDocuments, a.BothDocuments),
		pctRow("PP on top-level documents", b.PPTopLevel, a.PPTopLevel, b.PPTopLevelPct, a.PPTopLevelPct),
		pctRow("PP on embedded documents", b.PPEmbedded, a.PPEmbedded, b.PPEmbeddedPct, a.PPEmbeddedPct),
	}
}

// signed renders a delta with an explicit sign so "no change" reads as
// +0 rather than a bare count.
func signed(v int) string { return fmt.Sprintf("%+d", v) }

func driftTable(title, counted, labelA, labelB string, rows []DriftRow) Table {
	hasPct := false
	for _, r := range rows {
		if r.HasPct {
			hasPct = true
			break
		}
	}
	t := Table{Title: title}
	if hasPct {
		t.Headers = []string{counted, labelA, "", labelB, "", "Δ"}
	} else {
		t.Headers = []string{counted, labelA, labelB, "Δ", ""}
	}
	for _, r := range rows {
		if hasPct {
			bp, ap := "", ""
			if r.HasPct {
				bp, ap = f2(r.BeforePct), f2(r.AfterPct)
			}
			t.Rows = append(t.Rows, []string{r.Name, d(r.Before), bp, d(r.After), ap, signed(r.Delta)})
		} else {
			t.Rows = append(t.Rows, []string{r.Name, d(r.Before), d(r.After), signed(r.Delta), r.Status})
		}
	}
	return t
}

// String renders the drift report as aligned text tables, fully
// deterministic for a given pair of snapshots.
func (r DriftReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Longitudinal drift report: %s → %s\n", r.LabelA, r.LabelB)
	newGone := func(rows []DriftRow) (n, g int) {
		for _, row := range rows {
			switch row.Status {
			case "new":
				n++
			case "gone":
				g++
			}
		}
		return
	}
	un, ug := newGone(r.Usage)
	hn, hg := newGone(r.Headers)
	dn, dg := newGone(r.Delegated)
	fmt.Fprintf(&b, "permissions: %d newly invoked, %d no longer invoked; %d newly declared in headers, %d dropped; %d newly delegated, %d no longer delegated\n\n",
		un, ug, hn, hg, dn, dg)
	sections := []Table{
		driftTable("Population", "Metric", r.LabelA, r.LabelB, r.Population),
		driftTable("Figure 2 drift: header adoption (documents)", "Metric", r.LabelA, r.LabelB, r.Adoption),
		driftTable("Table 4 drift: permission API usage (total contexts)", "Permission", r.LabelA, r.LabelB, r.Usage),
		driftTable("Delegation drift", "Metric", r.LabelA, r.LabelB, r.Delegation),
		driftTable("Table 8 drift: delegated permissions (websites)", "Permission", r.LabelA, r.LabelB, r.Delegated),
		driftTable("Table 9 drift: header-declared permissions (websites)", "Permission", r.LabelA, r.LabelB, r.Headers),
	}
	for i, t := range sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String()
}

package analysis

import (
	"fmt"
	"html"
	"strings"
)

// HTML renders the full report as a self-contained HTML page — the
// shareable artifact counterpart of the paper's results website. It
// renders the text report's blocks: each table as a heading and a
// table, each prose block preformatted.
func (a *Analysis) HTML(topN int) string {
	rd := a.ReportData(topN)
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>Permissions Odyssey — measurement report</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #1a202c; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; border-bottom: 1px solid #e2e8f0; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .75rem 0; font-size: .9rem; }
th, td { border: 1px solid #e2e8f0; padding: .3rem .6rem; text-align: left; }
th { background: #f7fafc; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
p.meta { color: #4a5568; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>Permissions Odyssey — measurement report</h1>\n")
	fmt.Fprintf(&b, "<p class=\"meta\">%d of %d sites measured successfully.</p>\n",
		rd.Websites, rd.TotalRecords)
	for _, blk := range rd.Blocks() {
		if blk.Table != nil {
			blk.Table.writeHTML(&b)
		}
		if prose := strings.Trim(blk.Prose, "\n"); prose != "" {
			fmt.Fprintf(&b, "<pre>%s</pre>\n", html.EscapeString(prose))
		}
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// writeHTML renders the table as an <h2> title and a <table>; cells
// after the first that start with a digit are numeric.
func (t Table) writeHTML(b *strings.Builder) {
	fmt.Fprintf(b, "<h2>%s</h2>\n<table><tr>", html.EscapeString(t.Title))
	for _, h := range t.Headers {
		fmt.Fprintf(b, "<th>%s</th>", html.EscapeString(h))
	}
	b.WriteString("</tr>\n")
	for _, row := range t.Rows {
		b.WriteString("<tr>")
		for i, cell := range row {
			class := ""
			if i > 0 && looksNumeric(cell) {
				class = ` class="num"`
			}
			fmt.Fprintf(b, "<td%s>%s</td>", class, html.EscapeString(cell))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n")
}

func looksNumeric(s string) bool {
	return s != "" && s[0] >= '0' && s[0] <= '9'
}

package main

import (
	"encoding/json"
	"os"
	"sort"
)

// span is one timed interval the runner observed from outside the
// program: a phase of the run or one visit. Times are Unix
// nanoseconds; Parent names the enclosing span ("" for top level).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id,omitempty"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanSummary aggregates every span of one name.
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTime is a span's duration minus the time covered by its
// children, clipped to the span. Children may overlap (concurrent
// visits under one crawl span), so covered time is the length of the
// union of their intervals, not the sum of their durations.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.End - parent.Start - covered
}

// summarizeSpans totals and self-times spans by name, in first-seen
// order. A span's children are the spans whose Parent is its name.
func summarizeSpans(spans []span) []spanSummary {
	children := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	idx := map[string]int{}
	var out []spanSummary
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanSummary{Name: s.Name})
		}
		out[i].Count++
		out[i].TotalS += float64(s.End-s.Start) / 1e9
		out[i].SelfS += float64(selfTime(s, children[s.Name])) / 1e9
	}
	return out
}

// writeSpans writes the spans and their summary as one JSON document.
func writeSpans(path string, spans []span) error {
	buf, err := json.MarshalIndent(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{summarizeSpans(spans), spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

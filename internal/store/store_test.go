package store

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"permodyssey/internal/browser"
	"permodyssey/internal/webapi"
)

func sampleDataset() *Dataset {
	d := &Dataset{}
	d.Add(SiteRecord{
		Rank: 1, URL: "https://a.example/",
		Elapsed: 120 * time.Millisecond,
		Page: &browser.PageResult{
			URL: "https://a.example/",
			Frames: []browser.FrameResult{
				{
					URL: "https://a.example/", TopLevel: true,
					Origin: "https://a.example", Site: "a.example",
					HasPermissionsPolicy: true,
					PermissionsPolicyRaw: "camera=()",
					HeaderValid:          true,
					Invocations: []webapi.Invocation{{
						API: "navigator.getBattery", Kind: webapi.KindInvocation,
						Permissions: []string{"battery"},
						ScriptURL:   "https://cdn.example/a.js",
					}},
				},
			},
		},
	})
	d.Add(SiteRecord{Rank: 2, URL: "https://b.example/", Failure: FailureTimeout, Error: "deadline"})
	d.Add(SiteRecord{Rank: 3, URL: "https://c.example/", Failure: FailureUnreachable, Error: "dns"})
	return d
}

func TestJSONLRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("lines: %d", lines)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 3 {
		t.Fatalf("records: %d", len(back.Records))
	}
	r := back.Records[0]
	if !r.OK() || r.Page.TopFrame().PermissionsPolicyRaw != "camera=()" {
		t.Errorf("record 0: %+v", r)
	}
	if got := r.Page.TopFrame().Invocations[0].Permissions[0]; got != "battery" {
		t.Errorf("invocation: %q", got)
	}
	if back.Records[1].Failure != FailureTimeout || back.Records[1].OK() {
		t.Errorf("record 1: %+v", back.Records[1])
	}
}

func TestFileRoundTrip(t *testing.T) {
	d := sampleDataset()
	path := filepath.Join(t.TempDir(), "crawl.jsonl")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(d.Records) {
		t.Fatalf("records: %d", len(back.Records))
	}
}

func TestFailureCountsAndSuccessful(t *testing.T) {
	d := sampleDataset()
	counts := d.FailureCounts()
	if counts["ok"] != 1 || counts[FailureTimeout] != 1 || counts[FailureUnreachable] != 1 {
		t.Errorf("counts: %v", counts)
	}
	if len(d.Successful()) != 1 {
		t.Errorf("successful: %d", len(d.Successful()))
	}
}

func TestReadJSONLBadInput(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Error("expected decode error")
	}
	d, err := ReadJSONL(strings.NewReader(""))
	if err != nil || len(d.Records) != 0 {
		t.Errorf("empty input: %v, %d", err, len(d.Records))
	}

	// Every page holds its top-level document: a page with no frames is
	// refused by name, and a partial read keeps the records before it.
	frameless := `{"rank":1,"url":"https://a.example/","failure":"timeout"}` + "\n" +
		`{"rank":2,"url":"https://b.example/","page":{"URL":"https://b.example/","Frames":null}}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(frameless)); err == nil || !strings.Contains(err.Error(), "record 1 (rank 2)") {
		t.Errorf("frameless page: err = %v, want it refused by name", err)
	}
	if d := ReadJSONLPartial(strings.NewReader(frameless)); len(d.Records) != 1 {
		t.Errorf("partial read before a frameless page kept %d records, want 1", len(d.Records))
	}
}

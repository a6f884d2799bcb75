// Package store holds measurement results: one record per visited site,
// with the full per-frame data the browser collected, JSONL persistence
// (the paper saves each site to its database immediately after the
// visit, C14), and dataset-level accessors the analysis builds on.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"permodyssey/internal/browser"
)

// SchemaVersion identifies the SiteRecord JSONL wire format. Sealed
// crawl bundles (internal/bundle) record it so a future reader can
// refuse — or migrate — a dataset whose schema it no longer
// understands. Bump it when a field changes shape or meaning, not when
// one is added compatibly.
const SchemaVersion = 1

// FailureClass is the crawl-failure taxonomy of §4.
type FailureClass string

const (
	FailureNone FailureClass = ""
	// FailureUnreachable: DNS errors and other major fetch failures
	// (27,733 sites in the paper).
	FailureUnreachable FailureClass = "unreachable"
	// FailureTimeout: the page-load deadline expired (28,700 sites).
	FailureTimeout FailureClass = "timeout"
	// FailureEphemeral: content vanished mid-collection — "execution
	// context was destroyed" (60,183 sites).
	FailureEphemeral FailureClass = "ephemeral"
	// FailureMinor: crawler-level errors (315 sites).
	FailureMinor FailureClass = "minor"
	// FailureExcluded: visited but excluded from analysis for incomplete
	// frame data (the paper's 65,169 exclusions).
	FailureExcluded FailureClass = "excluded"
	// FailureBreakerOpen: the per-host circuit breaker was open — the
	// crawler refused to hammer a host that had just failed repeatedly.
	// Transient by definition: a later half-open probe may pass.
	FailureBreakerOpen FailureClass = "breaker-open"
	// FailureCanceled: the crawl itself was cancelled while this visit
	// was in flight. An artifact of the interrupted run, not a site
	// property — resume drops these records and re-crawls their ranks
	// (a non-transient class here would persist the misclassification
	// and skip the sites forever).
	FailureCanceled FailureClass = "canceled"
)

// SiteRecord is one site's outcome.
type SiteRecord struct {
	Rank    int                 `json:"rank"`
	URL     string              `json:"url"`
	Failure FailureClass        `json:"failure,omitempty"`
	Error   string              `json:"error,omitempty"`
	Page    *browser.PageResult `json:"page,omitempty"`
	// InternalPages are additional same-site pages visited when the
	// crawler follows internal links (off by default, matching the
	// paper's landing-page-only scope; §6.1 lists the restriction as a
	// limitation).
	InternalPages []browser.PageResult `json:"internal_pages,omitempty"`
	// Retries is how many extra visit attempts transient failures cost
	// before this record settled (0 when the first attempt stood).
	Retries int `json:"retries,omitempty"`
	// FirstAttemptFailure records how the first visit attempt failed
	// when retries followed it — the raw material for the
	// first-attempt-vs-recovered analysis. Empty when the first attempt
	// stood (no retries).
	FirstAttemptFailure FailureClass `json:"first_attempt_failure,omitempty"`
	// Partial marks a degraded-but-usable record: the main document
	// loaded and was analyzed, but some subresource — a widget frame, an
	// external script, the tail of an oversized body — did not survive.
	// Partial records stay in the analyzable set.
	Partial bool `json:"partial,omitempty"`
	// DegradedReasons lists what degraded a Partial record
	// ("frame-load-failed", "script-load-failed", "body-truncated").
	DegradedReasons []string      `json:"degraded_reasons,omitempty"`
	Elapsed         time.Duration `json:"elapsed_ns"`
}

// OK reports whether the site was measured successfully.
func (r SiteRecord) OK() bool { return r.Failure == FailureNone && r.Page != nil }

// Transient reports whether a retry of this failure class could
// plausibly succeed: timeouts (a slow server may answer within a fresh
// deadline), ephemeral mid-body deaths, circuit-breaker refusals (the
// breaker half-opens after its cooldown), and cancelled visits (a
// resumed crawl visits them again under a live context). Unreachable
// hosts (DNS) and minor protocol garbage are persistent site
// properties.
func (f FailureClass) Transient() bool {
	return f == FailureTimeout || f == FailureEphemeral || f == FailureBreakerOpen ||
		f == FailureCanceled
}

// Dataset is an in-memory result set.
type Dataset struct {
	Records []SiteRecord
}

// Add appends a record.
func (d *Dataset) Add(r SiteRecord) { d.Records = append(d.Records, r) }

// Successful returns the analyzable records.
func (d *Dataset) Successful() []SiteRecord {
	var out []SiteRecord
	for _, r := range d.Records {
		if r.OK() {
			out = append(out, r)
		}
	}
	return out
}

// Outcome is the record's bucket in FailureCounts: "ok" (clean),
// "partial" (degraded-but-usable) or its failure class.
func (r SiteRecord) Outcome() FailureClass {
	switch {
	case r.OK() && r.Partial:
		return "partial"
	case r.OK():
		return "ok"
	}
	return r.Failure
}

// FailureCounts tallies records per Outcome, so the buckets partition
// the dataset: every record lands in exactly one.
func (d *Dataset) FailureCounts() map[FailureClass]int {
	out := map[FailureClass]int{}
	for _, r := range d.Records {
		out[r.Outcome()]++
	}
	return out
}

// WriteJSONL streams the dataset as JSON lines.
func (d *Dataset) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range d.Records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode streams JSON lines from r to fn, one record at a time in file
// order, and holds none of them. It stops at the first line that does
// not decode, or that holds a page with no frames (every page has its
// top-level document), and returns an error naming that record.
func Decode(r io.Reader, fn func(SiteRecord)) error {
	dec := json.NewDecoder(bufio.NewReader(r))
	for n := 0; ; n++ {
		var rec SiteRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("store: decoding record %d: %w", n, err)
		}
		if rec.Page != nil && len(rec.Page.Frames) == 0 {
			return fmt.Errorf("store: record %d (rank %d) has a page with no frames", n, rec.Rank)
		}
		fn(rec)
	}
}

// DecodeFile streams the dataset at path to fn; see Decode.
func DecodeFile(path string, fn func(SiteRecord)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Decode(f, fn)
}

// ReadJSONL loads a dataset from JSON lines.
func ReadJSONL(r io.Reader) (*Dataset, error) {
	d := &Dataset{}
	if err := Decode(r, d.Add); err != nil {
		return nil, err
	}
	return d, nil
}

// ReadJSONLPartial loads records until EOF or the first record Decode
// refuses, returning everything decoded so far. An interrupted crawl
// (process killed mid-write) leaves a truncated final line in its JSONL
// sink; resume loads the complete prefix and re-crawls the rest.
func ReadJSONLPartial(r io.Reader) *Dataset {
	d := &Dataset{}
	_ = Decode(r, d.Add) // the prefix before the error is the result
	return d
}

// LoadPartialFile reads a possibly-truncated dataset from a file path.
func LoadPartialFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONLPartial(f), nil
}

// SaveFile writes the dataset to a file path.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.WriteJSONL(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset from a file path.
func LoadFile(path string) (*Dataset, error) {
	d := &Dataset{}
	if err := DecodeFile(path, d.Add); err != nil {
		return nil, err
	}
	return d, nil
}

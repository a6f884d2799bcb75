package analysis

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"permodyssey/internal/store"
)

// TestFoldOrderIndependent: a resumed -out file holds records in
// completion order and permreport folds them in file order, so every
// report must come out the same for any order of the same records.
func TestFoldOrderIndependent(t *testing.T) {
	recs := append([]store.SiteRecord(nil), dataset(t).Records...)
	recs = append(recs, handDataset().Records...)
	recs = append(recs,
		store.SiteRecord{Rank: 9001, URL: "https://retried.example/", Failure: store.FailureEphemeral,
			Retries: 2, FirstAttemptFailure: store.FailureTimeout},
		store.SiteRecord{Rank: 9002, URL: "https://canceled.example/", Failure: store.FailureCanceled})
	want := New(&store.Dataset{Records: recs})
	wantJSON, err := want.JSON(0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		got := New(&store.Dataset{Records: recs})
		gotJSON, err := got.JSON(0)
		if err != nil {
			t.Fatal(err)
		}
		if got.FullReport() != want.FullReport() {
			t.Errorf("shuffle %d: FullReport differs", i)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("shuffle %d: JSON(0) differs", i)
		}
		if got.HTML(10) != want.HTML(10) {
			t.Errorf("shuffle %d: HTML(10) differs", i)
		}
	}
}

// FuzzReport feeds arbitrary bytes through the dataset decoder, the
// fold and every renderer. Datasets and bundles are untrusted input:
// none may panic the report, and every report must marshal to JSON.
// The fold renders whatever prefix decoded, as it is a fold's state.
func FuzzReport(f *testing.F) {
	// Seeds stay a few KB: each new input the fuzzer finds is minimized,
	// one run per byte, and a run renders every report.
	var small []store.SiteRecord
	for _, rec := range crawl(f, 12, 5).Records {
		if rec.OK() && len(rec.Page.Frames) > 1 {
			small = append(small, rec)
		}
	}
	sort.Slice(small, func(i, j int) bool { return len(jsonl(f, small[i])) < len(jsonl(f, small[j])) })
	for _, rec := range small[:min(2, len(small))] {
		f.Add(jsonl(f, rec))
	}
	f.Add(jsonl(f, handDataset().Records...))
	f.Add(jsonl(f, store.SiteRecord{Rank: 4, URL: "https://four.example/", Failure: store.FailureEphemeral,
		Retries: 2, FirstAttemptFailure: store.FailureTimeout}))
	f.Add([]byte(`{"rank":1,"url":"https://a.example/","page":{"URL":"https://a.example/","Frames":null}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a := New(nil)
		_ = store.Decode(bytes.NewReader(data), a.Add) // a refused record ends the prefix
		_ = a.FullReport()
		if _, err := a.JSON(3); err != nil {
			t.Fatalf("JSON: %v", err)
		}
		_ = a.HTML(0)
	})
}

// jsonl encodes records as a dataset file holds them.
func jsonl(tb testing.TB, recs ...store.SiteRecord) []byte {
	var buf bytes.Buffer
	if err := (&store.Dataset{Records: recs}).WriteJSONL(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

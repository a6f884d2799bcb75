package crawler

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"permodyssey/internal/browser"
	"permodyssey/internal/memo"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

func TestClassify(t *testing.T) {
	tests := []struct {
		err  error
		want store.FailureClass
	}{
		{nil, store.FailureNone},
		{context.DeadlineExceeded, store.FailureTimeout},
		{&net.DNSError{Err: "no such host", IsNotFound: true}, store.FailureUnreachable},
		{io.ErrUnexpectedEOF, store.FailureEphemeral},
		{errors.New("reading x: unexpected EOF"), store.FailureEphemeral},
		{errors.New("malformed HTTP response"), store.FailureMinor},
		{errors.New("status 404 fetching x"), store.FailureUnreachable},
		{errors.New("anything else"), store.FailureMinor},
	}
	for _, tt := range tests {
		if got := Classify(tt.err); got != tt.want {
			t.Errorf("Classify(%v) = %q; want %q", tt.err, got, tt.want)
		}
	}
}

// TestCrawlSyntheticWeb is the pipeline integration test: generate a
// small synthetic web, serve it, crawl it, and verify the failure
// taxonomy and the collected structure.
func TestCrawlSyntheticWeb(t *testing.T) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = 250
	cfg.Seed = 7
	// Push failure rates up so each class appears in a small sample.
	cfg.UnreachableRate = 0.06
	cfg.TimeoutRate = 0.05
	cfg.EphemeralRate = 0.08
	cfg.MinorRate = 0.02

	srv := synthweb.NewServer(cfg)
	srv.StallTime = 500 * time.Millisecond
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fetcher := browser.NewHTTPFetcher(srv.Client(0))
	b := browser.New(fetcher, browser.DefaultOptions())
	c := New(b, Config{Workers: 16, PerSiteTimeout: 250 * time.Millisecond})

	var targets []Target
	for _, s := range srv.Sites() {
		targets = append(targets, Target{Rank: s.Rank, URL: s.URL()})
	}
	ds := c.Crawl(context.Background(), targets)
	if len(ds.Records) != cfg.NumSites {
		t.Fatalf("records: %d", len(ds.Records))
	}

	counts := ds.FailureCounts()
	t.Logf("failure taxonomy: %v", counts)
	for _, class := range []store.FailureClass{
		store.FailureUnreachable, store.FailureTimeout, store.FailureEphemeral,
	} {
		if counts[class] == 0 {
			t.Errorf("failure class %q never observed", class)
		}
	}
	if counts["ok"] < cfg.NumSites*3/4 {
		t.Errorf("too few successful sites: %d", counts["ok"])
	}

	// Collected structure sanity: some sites have headers, widgets with
	// delegation, local frames, dynamic invocations and static findings.
	var withHeader, withDelegation, withLocal, withInvocations, withStatic int
	for _, rec := range ds.Successful() {
		top := rec.Page.TopFrame()
		if top.HasPermissionsPolicy {
			withHeader++
		}
		if len(top.Invocations) > 0 {
			withInvocations++
		}
		if len(top.StaticFindings) > 0 {
			withStatic++
		}
		for _, fr := range rec.Page.EmbeddedFrames() {
			if fr.Element.HasAllow {
				withDelegation++
				break
			}
		}
		for _, fr := range rec.Page.EmbeddedFrames() {
			if fr.LocalScheme {
				withLocal++
				break
			}
		}
	}
	if withHeader == 0 || withDelegation == 0 || withLocal == 0 ||
		withInvocations == 0 || withStatic == 0 {
		t.Errorf("structure: header=%d delegation=%d local=%d dyn=%d static=%d",
			withHeader, withDelegation, withLocal, withInvocations, withStatic)
	}
	// The crawl is ordered by rank.
	for i := 1; i < len(ds.Records); i++ {
		if ds.Records[i].Rank <= ds.Records[i-1].Rank {
			t.Fatal("records not sorted by rank")
		}
	}
}

// TestCrawlDeterminism proves re-runs yield identical datasets — and
// that the fetch/compile caches are observationally transparent: a
// cached crawl produces record-for-record the same output as an
// uncached one.
func TestCrawlDeterminism(t *testing.T) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = 40
	cfg.Seed = 11
	// Timing-dependent failure classes would make the success set depend
	// on scheduler load; determinism is about content, so use a healthy
	// population and a generous deadline.
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0

	run := func(cached bool) []string {
		srv := synthweb.NewServer(cfg)
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var fetcher browser.Fetcher = browser.NewHTTPFetcher(srv.Client(0))
		opts := browser.DefaultOptions()
		if cached {
			fetcher = browser.NewCachingFetcher(fetcher, 0)
			opts.ScriptCache = memo.New[memo.Key, *browser.Script](0)
		}
		b := browser.New(fetcher, opts)
		c := New(b, Config{Workers: 8, PerSiteTimeout: 5 * time.Second})
		var targets []Target
		for _, s := range srv.Sites() {
			targets = append(targets, Target{Rank: s.Rank, URL: s.URL()})
		}
		ds := c.Crawl(context.Background(), targets)
		if len(ds.Records) != cfg.NumSites {
			t.Fatalf("records: %d", len(ds.Records))
		}
		return normalizeRecords(t, ds)
	}
	uncachedA, uncachedB, cached := run(false), run(false), run(true)
	for i := range uncachedA {
		if uncachedA[i] != uncachedB[i] {
			t.Errorf("record %d differs between uncached runs:\n%s\n%s",
				i, uncachedA[i], uncachedB[i])
		}
		if uncachedA[i] != cached[i] {
			t.Errorf("record %d differs with cache on:\nuncached: %s\ncached:   %s",
				i, uncachedA[i], cached[i])
		}
	}
}

// TestCrawlCompileEquivalence proves the compiled script path is
// observationally faithful at crawl scale: a crawl executing every
// script through cached compiled programs produces, record for record,
// the dataset frozen in testdata/crawl_compile_equivalence.golden.jsonl,
// recorded from the AST interpreter the compiler replaced.
func TestCrawlCompileEquivalence(t *testing.T) {
	cfg := synthweb.DefaultConfig()
	cfg.NumSites = 40
	cfg.Seed = 23
	cfg.UnreachableRate, cfg.TimeoutRate, cfg.EphemeralRate, cfg.MinorRate = 0, 0, 0, 0

	srv := synthweb.NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	opts := browser.DefaultOptions()
	opts.ScriptCache = memo.New[memo.Key, *browser.Script](0)
	b := browser.New(browser.NewHTTPFetcher(srv.Client(0)), opts)
	c := New(b, Config{Workers: 8, PerSiteTimeout: 5 * time.Second})
	var targets []Target
	for _, s := range srv.Sites() {
		targets = append(targets, Target{Rank: s.Rank, URL: s.URL()})
	}
	ds := c.Crawl(context.Background(), targets)
	got := normalizeRecords(t, ds)

	raw, err := os.ReadFile("testdata/crawl_compile_equivalence.golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("records: %d, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d differs from the golden:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
	if st := opts.ScriptCache.Stats(); st.Hits == 0 {
		t.Errorf("no compiled program was shared across frames: %+v", st)
	}
}

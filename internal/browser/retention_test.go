package browser

import (
	"context"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"permodyssey/internal/memo"
)

// paddedPageFetcher builds a fresh size-byte page on every call: an
// iframe, an inline script and a link, then padding. Nothing but the
// returned Response holds the body.
type paddedPageFetcher struct{ size int }

func (f paddedPageFetcher) Fetch(_ context.Context, rawURL string) (*Response, error) {
	pad := strings.Repeat("padding ", 128)
	var b strings.Builder
	b.Grow(f.size)
	b.WriteString(`<iframe src="about:blank" allow="camera" id="w"></iframe>` +
		`<script>var where = "here"; navigator.geolocation.getCurrentPosition(function () {});</script>` +
		`<a href="/next">next</a><div>`)
	for b.Len() < f.size {
		b.WriteString(pad[:min(len(pad), f.size-b.Len())])
	}
	return &Response{Status: 200, Header: http.Header{}, Body: b.String(), FinalURL: rawURL}, nil
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestVisitDoesNotPinBody is the flat-memory guarantee: once a visit
// returns, neither its record nor the script memo keeps the fetched
// body reachable. A crawl holds every record until it ends, so a record
// that pinned its page would hold every page crawled. The memo is
// checked set, then nil, so the record is also checked alone.
func TestVisitDoesNotPinBody(t *testing.T) {
	const size, bound = 32 << 20, 8 << 20
	for _, cached := range []bool{true, false} {
		opts := DefaultOptions()
		if cached {
			opts.ScriptCache = memo.New[memo.Key, *Script](0)
		}
		b := New(paddedPageFetcher{size}, opts)
		res, err := b.Visit(context.Background(), "https://site.example/")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Frames) != 2 || res.Frames[1].Element.Allow != "camera" ||
			len(res.Links) != 1 || len(res.Frames[0].Invocations) == 0 {
			t.Fatalf("cached %v: visit did not read the page: %d frames, links %v", cached, len(res.Frames), res.Links)
		}
		live := liveHeap()
		runtime.KeepAlive(res)
		runtime.KeepAlive(opts.ScriptCache)
		t.Logf("cached %v: %.1f MiB live", cached, float64(live)/(1<<20))
		if live >= bound {
			t.Errorf("cached %v: %d MiB live after the visit of a %d MiB page, want under %d MiB",
				cached, live>>20, size>>20, bound>>20)
		}
	}
}

// Package browser implements the miniature headless browser the
// measurement pipeline drives: it fetches documents over real HTTP,
// captures the response headers of every frame at any depth (§3.1.3),
// parses the HTML, extracts iframe attributes (§3.1.2), executes
// scripts against the instrumented Web-API surface (dynamic analysis),
// runs the static analyzer over every loaded script, triggers
// lazy-loaded iframes the way the crawler scrolls to them (§3.2), and
// optionally simulates user interaction (Appendix A.3).
package browser

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Response is a fetched document or script.
type Response struct {
	Status   int
	Header   http.Header
	Body     string
	FinalURL string // after redirects
	// BodyTruncated reports that the server offered more bytes than the
	// fetcher's MaxBodyBytes budget and Body holds only the prefix. The
	// crawler records such visits as degraded rather than failed.
	BodyTruncated bool
}

// Fetcher retrieves resources. The crawler plugs in an HTTP client
// whose dialer is pointed at the synthetic web; tests plug in maps.
type Fetcher interface {
	Fetch(ctx context.Context, rawURL string) (*Response, error)
}

// HTTPFetcher fetches over net/http.
type HTTPFetcher struct {
	Client *http.Client
	// MaxBodyBytes caps response bodies (default 4 MiB).
	MaxBodyBytes int64
	// UserAgent is sent with every request.
	UserAgent string
}

// defaultMaxBodyBytes is the body cap NewHTTPFetcher sets and Fetch
// applies when MaxBodyBytes is unset.
const defaultMaxBodyBytes = 4 << 20

// NewHTTPFetcher builds a fetcher with sane crawl defaults.
func NewHTTPFetcher(client *http.Client) *HTTPFetcher {
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	return &HTTPFetcher{
		Client:       client,
		MaxBodyBytes: defaultMaxBodyBytes,
		UserAgent:    "Mozilla/5.0 (X11; Linux x86_64) Chrome/127.0.0.0 permodyssey-crawler",
	}
}

// Fetch implements Fetcher.
func (f *HTTPFetcher) Fetch(ctx context.Context, rawURL string) (*Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("User-Agent", f.UserAgent)
	resp, err := f.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	limit := f.MaxBodyBytes
	if limit <= 0 {
		limit = defaultMaxBodyBytes
	}
	body, truncated, err := readBody(resp.Body, limit)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", rawURL, err)
	}
	return &Response{
		Status:        resp.StatusCode,
		Header:        resp.Header,
		Body:          body,
		FinalURL:      resp.Request.URL.String(),
		BodyTruncated: truncated,
	}, nil
}

// bodyChunk is the size of the pooled buffers readBody reads into.
const bodyChunk = 32 << 10

var bodyChunks = sync.Pool{New: func() any { return new([bodyChunk]byte) }}

// readBody reads r to EOF and returns at most limit bytes of it as a
// string allocated once, at its final length: the bytes land in pooled
// chunks and are joined once, where io.ReadAll would regrow its buffer
// about 1.25x at a time and the string conversion copy it again. One
// byte past the budget is read so truncation is detectable rather than
// silent. Any read error but io.EOF, a connection reset or a short
// chunked or Content-Length body included, fails the read.
func readBody(r io.Reader, limit int64) (body string, truncated bool, err error) {
	r = io.LimitReader(r, limit+1)
	var chunks []*[bodyChunk]byte
	defer func() {
		for _, c := range chunks {
			bodyChunks.Put(c)
		}
	}()
	var total int64
	for n := bodyChunk; ; {
		if n == bodyChunk {
			chunks = append(chunks, bodyChunks.Get().(*[bodyChunk]byte))
			n = 0
		}
		m, err := r.Read(chunks[len(chunks)-1][n:])
		n += m
		total += int64(m)
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", false, err
		}
	}
	if truncated = total > limit; truncated {
		total = limit
	}
	var b strings.Builder
	b.Grow(int(total))
	for _, c := range chunks {
		b.Write(c[:min(int64(bodyChunk), total-int64(b.Len()))])
	}
	return b.String(), truncated, nil
}

// MapFetcher serves canned responses; for tests and examples.
type MapFetcher map[string]*Response

// Fetch implements Fetcher.
func (m MapFetcher) Fetch(_ context.Context, rawURL string) (*Response, error) {
	if r, ok := m[rawURL]; ok {
		if r.FinalURL == "" {
			cp := *r
			cp.FinalURL = rawURL
			return &cp, nil
		}
		return r, nil
	}
	return nil, fmt.Errorf("map fetcher: no entry for %q", rawURL)
}

// resolveURL resolves ref against base, returning "" on failure.
func resolveURL(base, ref string) string {
	b, err := url.Parse(base)
	if err != nil {
		return ""
	}
	r, err := url.Parse(strings.TrimSpace(ref))
	if err != nil {
		return ""
	}
	return b.ResolveReference(r).String()
}

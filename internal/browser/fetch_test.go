package browser

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestHTTPFetcherMaxBodyBytes pins the truncation contract: bodies are
// capped at MaxBodyBytes without error, and the zero value falls back
// to the 4 MiB default.
func TestHTTPFetcherMaxBodyBytes(t *testing.T) {
	body := strings.Repeat("x", 1<<16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		if _, err := w.Write([]byte(body)); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	t.Run("truncates at limit", func(t *testing.T) {
		f := NewHTTPFetcher(srv.Client())
		f.MaxBodyBytes = 1024
		resp, err := f.Fetch(context.Background(), srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Body) != 1024 {
			t.Errorf("body length = %d, want 1024", len(resp.Body))
		}
		if resp.Body != body[:1024] {
			t.Error("truncated body is not a prefix of the response")
		}
	})

	t.Run("zero limit uses 4 MiB default", func(t *testing.T) {
		f := &HTTPFetcher{Client: srv.Client()}
		resp, err := f.Fetch(context.Background(), srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Body) != len(body) {
			t.Errorf("body length = %d, want %d (under the default cap)", len(resp.Body), len(body))
		}
	})

	t.Run("limit above body leaves it intact", func(t *testing.T) {
		f := NewHTTPFetcher(srv.Client())
		f.MaxBodyBytes = int64(len(body)) + 1
		resp, err := f.Fetch(context.Background(), srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Body != body {
			t.Error("body altered despite fitting under the limit")
		}
	})
}

// patternBody returns n bytes that differ from chunk to chunk, so a
// body joined out of order or short by a chunk cannot compare equal.
func patternBody(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte((i/7+i/bodyChunk)%26)
	}
	return string(b)
}

// chunkedServer serves body with no Content-Length: the handler flushes
// before writing, so the response is chunked, and writes in uneven
// pieces that straddle the fetcher's read chunks.
func chunkedServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush()
		for rest := body; rest != ""; {
			n := min(len(rest), 5000)
			if _, err := io.WriteString(w, rest[:n]); err != nil {
				return
			}
			rest = rest[n:]
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestHTTPFetcherChunkedBudget pins Body and BodyTruncated for chunked
// bodies around the budget, with budgets at, inside and across the
// fetcher's read-chunk boundaries.
func TestHTTPFetcherChunkedBudget(t *testing.T) {
	for _, limit := range []int{1000, bodyChunk, 2*bodyChunk + 17} {
		for _, n := range []int{limit - 1, limit, limit + 1, 2 * limit} {
			body := patternBody(n)
			srv := chunkedServer(t, body)
			f := NewHTTPFetcher(srv.Client())
			f.MaxBodyBytes = int64(limit)
			resp, err := f.Fetch(context.Background(), srv.URL)
			if err != nil {
				t.Fatalf("limit %d, body %d: %v", limit, n, err)
			}
			if got := resp.Header.Get("Content-Length"); got != "" {
				t.Fatalf("limit %d, body %d: Content-Length %q, want a chunked response", limit, n, got)
			}
			want := body[:min(n, limit)]
			if resp.Body != want || resp.BodyTruncated != (n > limit) {
				t.Errorf("limit %d, body %d: got %d bytes (prefix %v), truncated %v; want %d bytes, truncated %v",
					limit, n, len(resp.Body), resp.Body == want, resp.BodyTruncated, len(want), n > limit)
			}
		}
	}
}

// TestHTTPFetcherMidBodyFailure pins that a body cut off part way is an
// error, never a short body: a reset connection, a chunked stream that
// ends mid-chunk, and a Content-Length the connection does not deliver.
// Any of them read as end-of-body would record a truncated page as a
// healthy one.
func TestHTTPFetcherMidBodyFailure(t *testing.T) {
	cases := map[string]func(conn net.Conn, rw *bufio.ReadWriter){
		"connection reset": func(conn net.Conn, rw *bufio.ReadWriter) {
			fmt.Fprintf(rw, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n", 4000, patternBody(4000))
			rw.Flush()
			conn.(*net.TCPConn).SetLinger(0) // close with RST
		},
		"chunked stream cut": func(conn net.Conn, rw *bufio.ReadWriter) {
			fmt.Fprintf(rw, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s", 4000, patternBody(1000))
			rw.Flush()
		},
		"short Content-Length": func(conn net.Conn, rw *bufio.ReadWriter) {
			fmt.Fprintf(rw, "HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n%s", patternBody(1000))
			rw.Flush()
		},
	}
	for name, cut := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				conn, rw, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Error(err)
					return
				}
				cut(conn, rw)
				conn.Close()
			}))
			defer srv.Close()
			resp, err := NewHTTPFetcher(srv.Client()).Fetch(context.Background(), srv.URL)
			if err == nil {
				t.Fatalf("got a %d-byte body (truncated %v), want an error", len(resp.Body), resp.BodyTruncated)
			}
		})
	}
}

// TestHTTPFetcherBodyAllocs pins the read path to one allocation of the
// body at its final length: reading a 4 MiB chunked body allocates under
// 1.5x its size. io.ReadAll's regrowth plus the string copy cost about
// 6x. The minimum over several reads is taken once the chunk pool is
// warm, since a GC may empty the pool between any two.
func TestHTTPFetcherBodyAllocs(t *testing.T) {
	const size = 4 << 20
	srv := chunkedServer(t, patternBody(size))
	f := NewHTTPFetcher(srv.Client())
	fetch := func() {
		resp, err := f.Fetch(context.Background(), srv.URL)
		if err != nil || len(resp.Body) != size {
			t.Fatalf("fetch: %v", err)
		}
	}
	fetch() // warm the connection and the chunk pool
	var best uint64 = math.MaxUint64
	var ms runtime.MemStats
	for i := 0; i < 4; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		fetch()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	if ratio := float64(best) / size; ratio >= 1.5 {
		t.Errorf("reading a %d-byte body allocated %d bytes (%.2fx), want under 1.5x", size, best, ratio)
	}
}

package synthweb

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"
)

// Server serves the synthetic web over a single loopback listener with
// virtual hosting: every synthetic site, widget host and script CDN is
// dispatched by Host header. The companion Transport makes an ordinary
// *http.Client resolve any https:// URL to this listener, so the
// crawler performs genuine HTTP requests end to end — the paper's
// Playwright-against-live-web substrate swapped for
// net/http-against-loopback.
type Server struct {
	Config Config

	listener net.Listener
	server   *http.Server

	// Built once by NewServer and read-only afterwards.
	siteRank  map[string]int // site host → rank
	sites     []Site         // every site in rank order (rank r at r-1)
	scriptURL map[string]string
	widgetKey map[string]int // widget host → catalog index

	// StallTime is how long KindTimeout sites hang before responding;
	// set it above the crawler's per-site deadline.
	StallTime time.Duration

	// chaos is the resolved fault-injection config; flapCount tracks
	// how many requests each flapping host has failed so far.
	chaos     ChaosConfig
	flapMu    sync.Mutex
	flapCount map[string]int
}

// NewServer builds (but does not start) a Server for the population.
func NewServer(cfg Config) *Server {
	s := &Server{
		Config:    cfg,
		siteRank:  make(map[string]int, cfg.NumSites),
		sites:     make([]Site, 0, cfg.NumSites),
		scriptURL: map[string]string{},
		widgetKey: map[string]int{},
		StallTime: 2 * time.Second,
		chaos:     cfg.Chaos.withDefaults(cfg.Seed),
		flapCount: map[string]int{},
	}
	for rank := 1; rank <= cfg.NumSites; rank++ {
		site := cfg.Generate(rank)
		s.siteRank[site.Host] = rank
		s.sites = append(s.sites, site)
	}
	for i, w := range Catalog {
		s.widgetKey["www."+w.Site] = i
	}
	for _, hs := range HostScripts {
		if hs.URL != "" {
			s.scriptURL[strings.TrimPrefix(hs.URL, "https://")] = hs.Body
		}
	}
	return s
}

// Start begins serving on a loopback port.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.listener = ln
	s.server = &http.Server{Handler: http.HandlerFunc(s.handle)}
	go func() { _ = s.server.Serve(ln) }()
	return nil
}

// Close stops the server at once and closes every connection, busy or
// not. Callers close it after their crawl, when no response is awaited;
// a graceful shutdown would wait on connections that never carried a
// request.
func (s *Server) Close() error {
	if s.server == nil {
		return nil
	}
	return s.server.Close()
}

// Addr returns the listener address.
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Hosts returns every site's host in rank order (rank r at index r-1).
func (s *Server) Hosts() []string {
	hosts := make([]string, len(s.sites))
	for i, site := range s.sites {
		hosts[i] = site.Host
	}
	return hosts
}

// Sites returns a copy of every site descriptor, in rank order, as
// NewServer generated them.
func (s *Server) Sites() []Site { return slices.Clone(s.sites) }

// Transport returns an http.RoundTripper that dials this server for
// every https URL, failing unreachable synthetic hosts with a DNS
// error — the crawler's ERR_NAME_NOT_RESOLVED analogue.
func (s *Server) Transport() http.RoundTripper {
	return &http.Transport{
		DialTLSContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			host := addr
			if h, _, err := net.SplitHostPort(addr); err == nil {
				host = h
			}
			if rank, ok := s.siteRank[host]; ok && s.sites[rank-1].Kind == KindUnreachable {
				return nil, &net.DNSError{Err: "no such host", Name: host, IsNotFound: true}
			}
			var d net.Dialer
			return d.DialContext(ctx, "tcp", s.Addr())
		},
		// The synthetic web is plain HTTP behind a fake-TLS dial.
		DisableCompression: true,
		// Nearly every site host is visited exactly once, so keep-alive
		// conns are only worth caching for the shared widget/CDN hosts.
		// Without a tight global cap, a large crawl accumulates one idle
		// socket per visited host and exhausts file descriptors (observed
		// at 20k sites: accept4 "too many open files").
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     2 * time.Second,
		// Bound response headers so FaultOversizedHeader hosts fail the
		// way a hardened production crawler would, instead of buffering
		// the transport's default 10 MiB per response.
		MaxResponseHeaderBytes: 256 << 10,
	}
}

// Client returns an http.Client over Transport.
func (s *Server) Client(timeout time.Duration) *http.Client {
	return &http.Client{Transport: s.Transport(), Timeout: timeout}
}

func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	host := r.Host
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}

	// Script CDNs.
	if body, ok := s.scriptURL[host+r.URL.Path]; ok {
		if s.Config.Chaos.SubresourceFault(s.Config.Seed, host) != FaultNone {
			s.resetMidBody(w)
			return
		}
		w.Header().Set("Content-Type", "application/javascript")
		fmt.Fprint(w, body)
		return
	}
	if r.URL.Path == "/sw.js" {
		w.Header().Set("Content-Type", "application/javascript")
		fmt.Fprint(w, "// service worker stub")
		return
	}

	// Widget hosts.
	if idx, ok := s.widgetKey[host]; ok {
		if s.Config.Chaos.SubresourceFault(s.Config.Seed, host) != FaultNone {
			s.resetMidBody(w)
			return
		}
		s.serveWidget(w, r, idx)
		return
	}

	// Synthetic sites.
	if rank, ok := s.siteRank[host]; ok {
		s.serveSite(w, r, rank)
		return
	}
	http.NotFound(w, r)
}

func (s *Server) serveWidget(w http.ResponseWriter, r *http.Request, idx int) {
	widget := Catalog[idx]
	if widget.Header != "" {
		w.Header().Set("Permissions-Policy", widget.Header)
	}
	w.Header().Set("Content-Type", "text/html")
	fmt.Fprintf(w, `<!DOCTYPE html><html><head><title>%s widget</title></head><body>
<div id="share"></div>
<script>%s</script>
%s
</body></html>`, widget.Site, widget.Script, widget.NestedIframe)
}

func (s *Server) serveSite(w http.ResponseWriter, r *http.Request, rank int) {
	site := s.sites[rank-1]

	switch site.Kind {
	case KindTimeout:
		// Stall until StallTime passes or the client gives up.
		stall := time.NewTimer(s.StallTime)
		defer stall.Stop()
		select {
		case <-stall.C:
		case <-r.Context().Done():
			return
		}
		// After stalling past every reasonable deadline, answer anyway:
		// a crawler with a generous budget would classify it as slow.
		fmt.Fprint(w, "<html><body>slow</body></html>")
		return
	case KindEphemeral:
		// Announce more bytes than are sent: the client observes an
		// unexpected EOF mid-body, the paper's "execution context was
		// destroyed" analogue.
		w.Header().Set("Content-Type", "text/html")
		w.Header().Set("Content-Length", "4096")
		fmt.Fprint(w, "<html><body>ephem")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
		return
	case KindMinor:
		// Speak garbage: the client fails with a malformed-response
		// error, the analogue of the 315 crawler-crashing sites.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				fmt.Fprint(conn, "NOT-HTTP GARBAGE\r\n\r\n")
				conn.Close()
				return
			}
		}
		w.WriteHeader(http.StatusInternalServerError)
		return
	}

	// Chaos fault, layered over an otherwise-healthy site. applyFault
	// reports false when the fault lets this particular request through
	// (a flapping host that has recovered).
	if site.Fault != FaultNone && s.applyFault(w, r, site) {
		return
	}

	// Healthy site.
	switch {
	case r.URL.Path == "/" || r.URL.Path == "/index.html":
		if site.PermissionsPolicy != "" {
			w.Header().Set("Permissions-Policy", site.PermissionsPolicy)
		}
		if site.FeaturePolicy != "" {
			w.Header().Set("Feature-Policy", site.FeaturePolicy)
		}
		if site.ReportOnly != "" {
			w.Header().Set("Permissions-Policy-Report-Only", site.ReportOnly)
		}
		if site.CSP != "" {
			w.Header().Set("Content-Security-Policy", site.CSP)
		}
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, s.Config.RenderHTML(site))
	case strings.HasPrefix(r.URL.Path, "/frame"):
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, "<html><body><p>in-house frame</p></body></html>")
	default:
		if body, ok := s.Config.RenderInternalPage(site, r.URL.Path); ok {
			if site.PermissionsPolicy != "" {
				w.Header().Set("Permissions-Policy", site.PermissionsPolicy)
			}
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, body)
			return
		}
		http.NotFound(w, r)
	}
}

// applyFault executes one chaos fault for a request to a fault-carrying
// site. It reports whether the request was consumed; false means the
// fault lets this request through (a recovered flapping host) and the
// healthy site should be served.
func (s *Server) applyFault(w http.ResponseWriter, r *http.Request, site Site) bool {
	switch site.Fault {
	case FaultReset:
		s.resetMidBody(w)
	case FaultSlowLoris:
		s.dripBody(w, r)
	case FaultMalformedHeader:
		s.malformedHeader(w)
	case FaultOversizedHeader:
		// A single header value past the client transport's
		// MaxResponseHeaderBytes budget; the body never matters.
		w.Header().Set("X-Chaos-Padding", strings.Repeat("x", 512<<10))
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, "<html><body>oversized header</body></html>")
	case FaultRedirectLoop:
		// Two paths that 302 to each other until the client gives up.
		target := "/chaos-loop-a"
		if r.URL.Path == "/chaos-loop-a" {
			target = "/chaos-loop-b"
		}
		http.Redirect(w, r, target, http.StatusFound)
	case FaultFlap:
		s.flapMu.Lock()
		failed := s.flapCount[site.Host]
		if failed >= s.chaos.FlapFailures {
			s.flapMu.Unlock()
			return false // recovered: serve the healthy site
		}
		s.flapCount[site.Host] = failed + 1
		s.flapMu.Unlock()
		s.resetMidBody(w)
	case FaultOversizedBody:
		if r.URL.Path != "/" && r.URL.Path != "/index.html" {
			return false
		}
		s.oversizedBody(w, site)
	default:
		return false
	}
	return true
}

// resetMidBody promises a body, sends a fragment of it, then closes the
// connection with a TCP RST — the client observes a mid-body
// connection-reset (or unexpected EOF) error.
func (s *Server) resetMidBody(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		return
	}
	buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 4096\r\n\r\n<html><body>res")
	buf.Flush()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0) // RST instead of FIN
	}
	conn.Close()
}

// dripBody serves headers promptly, then drips the body a few bytes at
// a time until the client hangs up — the slow-loris server. The page
// deadline, not this loop, ends the exchange.
func (s *Server) dripBody(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	fmt.Fprint(w, "<html><body>")
	if flusher != nil {
		flusher.Flush()
	}
	ticker := time.NewTicker(s.chaos.DripDelay)
	defer ticker.Stop()
	// Hard cap so an unattended connection cannot drip forever.
	for i := 0; i < 100000; i++ {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
		fmt.Fprint(w, "<!-- drip -->")
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// malformedHeader speaks a response whose header section is not HTTP.
func (s *Server) malformedHeader(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		return
	}
	buf.WriteString("HTTP/1.1 200 OK\r\nthis header line has no colon\r\n\r\n<html></html>")
	buf.Flush()
	conn.Close()
}

// oversizedBody serves the site's real landing page followed by padding
// past the fetcher's MaxBodyBytes, forcing the body-truncation path
// while keeping the truncated prefix a complete, parseable document.
func (s *Server) oversizedBody(w http.ResponseWriter, site Site) {
	if site.PermissionsPolicy != "" {
		w.Header().Set("Permissions-Policy", site.PermissionsPolicy)
	}
	w.Header().Set("Content-Type", "text/html")
	fmt.Fprint(w, s.Config.RenderHTML(site))
	pad := strings.Repeat("<!-- padding padding padding -->", 1024) // 32 KiB
	written := 0
	for written < s.chaos.OversizeBytes {
		n, err := io.WriteString(w, pad)
		written += n
		if err != nil {
			return
		}
	}
}

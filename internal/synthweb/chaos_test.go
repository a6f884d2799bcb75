package synthweb

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"permodyssey/internal/browser"
)

// chaosServer starts a small population where every healthy site
// carries the given fault.
func chaosServer(t *testing.T, fault Fault, n int) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumSites = n
	cfg.Seed = 42
	cfg.Chaos = ChaosConfig{Enabled: true, SiteRate: 1.0, Kinds: []Fault{fault},
		FlapFailures: 2, DripDelay: 30 * time.Millisecond, OversizeBytes: 256 << 10}
	srv := NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// faultySite returns a site carrying the fault.
func faultySite(t *testing.T, srv *Server, fault Fault) Site {
	t.Helper()
	for _, s := range srv.Sites() {
		if s.Fault == fault {
			return s
		}
	}
	t.Fatalf("no site carries fault %v", fault)
	return Site{}
}

// TestChaosAssignmentDeterministic: fault assignment is a pure function
// of (seed, rank); chaos off means no faults; only healthy sites carry
// them.
func TestChaosAssignmentDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 400
	cfg.Seed = 7
	cfg.Chaos = DefaultChaosConfig()

	genAll := func(c Config) []Site {
		out := make([]Site, c.NumSites)
		for i := range out {
			out[i] = c.Generate(i)
		}
		return out
	}
	a, b := genAll(cfg), genAll(cfg)
	faults := 0
	for i := range a {
		if a[i].Fault != b[i].Fault {
			t.Fatalf("rank %d: fault differs between identical generations (%v vs %v)", i, a[i].Fault, b[i].Fault)
		}
		if a[i].Fault != FaultNone {
			faults++
			if a[i].Kind != KindOK {
				t.Errorf("rank %d: fault %v on non-OK site kind %v", i, a[i].Fault, a[i].Kind)
			}
		}
	}
	if faults == 0 {
		t.Fatal("default chaos rate injected no faults in 400 sites")
	}

	cfg.Chaos = ChaosConfig{}
	for i, s := range genAll(cfg) {
		if s.Fault != FaultNone {
			t.Fatalf("rank %d: fault %v with chaos disabled", i, s.Fault)
		}
	}

	// A different chaos seed re-deals the faults without touching the
	// underlying site population.
	cfg.Chaos = DefaultChaosConfig()
	cfg.Chaos.Seed = 99
	c := genAll(cfg)
	moved := false
	for i := range a {
		if a[i].Kind != c[i].Kind {
			t.Fatalf("rank %d: chaos seed changed the site kind", i)
		}
		if a[i].Fault != c[i].Fault {
			moved = true
		}
	}
	if !moved {
		t.Error("changing the chaos seed never moved a fault")
	}
}

func TestFaultParsing(t *testing.T) {
	for _, f := range AllFaults {
		got, err := ParseFault(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFault(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFault("nonsense"); err == nil {
		t.Error("ParseFault accepted nonsense")
	}
	kinds, err := ParseFaultList("reset, flap")
	if err != nil || len(kinds) != 2 || kinds[0] != FaultReset || kinds[1] != FaultFlap {
		t.Errorf("ParseFaultList = %v, %v", kinds, err)
	}
	// The documented name, hyphenated like the other two-word faults.
	if f, err := ParseFault("slow-loris"); err != nil || f != FaultSlowLoris {
		t.Errorf(`ParseFault("slow-loris") = %v, %v`, f, err)
	}
}

// TestChaosRepeatedKinds: naming a fault kind twice, or in another
// order, deals every rank the same fault as naming it once.
func TestChaosRepeatedKinds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chaos = DefaultChaosConfig()
	cfg.Chaos.Kinds = []Fault{FaultReset, FaultFlap}
	repeated := cfg
	repeated.Chaos.Kinds = []Fault{FaultFlap, FaultReset, FaultReset, FaultFlap}
	counts := map[Fault]int{}
	for rank := 1; rank <= 20000; rank++ {
		want, got := cfg.Generate(rank).Fault, repeated.Generate(rank).Fault
		if got != want {
			t.Fatalf("rank %d: %v with repeated kinds, %v without", rank, got, want)
		}
		counts[want]++
	}
	if counts[FaultReset] == 0 || counts[FaultFlap] == 0 {
		t.Errorf("fault counts %v: both kinds must be dealt", counts)
	}
}

// getFull performs a GET and reads the whole body, returning the first
// error of either stage — a mid-body reset only surfaces on the read.
func getFull(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

func TestFaultReset(t *testing.T) {
	srv := chaosServer(t, FaultReset, 40)
	site := faultySite(t, srv, FaultReset)
	_, err := getFull(srv.Client(2*time.Second), site.URL())
	if err == nil {
		t.Fatal("reset site served a complete response")
	}
	if !strings.Contains(err.Error(), "reset") && !strings.Contains(err.Error(), "EOF") {
		t.Errorf("want a reset/EOF error, got %v", err)
	}
}

func TestFaultSlowLoris(t *testing.T) {
	srv := chaosServer(t, FaultSlowLoris, 40)
	site := faultySite(t, srv, FaultSlowLoris)
	client := srv.Client(150 * time.Millisecond)
	start := time.Now()
	resp, err := client.Get(site.URL())
	if err == nil {
		// Headers arrive promptly; the drip starves the body read.
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("slow-loris site completed inside the deadline")
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("failed too fast for a drip-feed: %v (%v)", elapsed, err)
	}
}

func TestFaultMalformedHeader(t *testing.T) {
	srv := chaosServer(t, FaultMalformedHeader, 40)
	site := faultySite(t, srv, FaultMalformedHeader)
	_, err := srv.Client(2 * time.Second).Get(site.URL())
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("want a malformed-response error, got %v", err)
	}
}

func TestFaultOversizedHeader(t *testing.T) {
	srv := chaosServer(t, FaultOversizedHeader, 40)
	site := faultySite(t, srv, FaultOversizedHeader)
	_, err := srv.Client(2 * time.Second).Get(site.URL())
	if err == nil || !strings.Contains(err.Error(), "headers exceeded") {
		t.Fatalf("want a headers-exceeded error, got %v", err)
	}
}

func TestFaultRedirectLoop(t *testing.T) {
	srv := chaosServer(t, FaultRedirectLoop, 40)
	site := faultySite(t, srv, FaultRedirectLoop)
	_, err := srv.Client(2 * time.Second).Get(site.URL())
	if err == nil || !strings.Contains(err.Error(), "redirects") {
		t.Fatalf("want a redirect-loop error, got %v", err)
	}
}

func TestFaultFlap(t *testing.T) {
	srv := chaosServer(t, FaultFlap, 40)
	site := faultySite(t, srv, FaultFlap)
	client := srv.Client(2 * time.Second)

	// The first FlapFailures attempts die, then the site recovers.
	for i := 0; i < 2; i++ {
		if _, err := getFull(client, site.URL()); err == nil {
			t.Fatalf("flapping site served attempt %d", i+1)
		}
	}
	body, err := getFull(client, site.URL())
	if err != nil {
		t.Fatalf("flapping site still failing after %d attempts: %v", 2, err)
	}
	if !strings.Contains(body, "<html") {
		t.Fatal("recovered flap response is not the healthy page")
	}
}

func TestFaultOversizedBody(t *testing.T) {
	srv := chaosServer(t, FaultOversizedBody, 40)
	site := faultySite(t, srv, FaultOversizedBody)

	f := browser.NewHTTPFetcher(srv.Client(5 * time.Second))
	f.MaxBodyBytes = 64 << 10
	resp, err := f.Fetch(context.Background(), site.URL())
	if err != nil {
		t.Fatal(err)
	}
	if !resp.BodyTruncated {
		t.Fatal("oversized body not marked truncated")
	}
	if int64(len(resp.Body)) != f.MaxBodyBytes {
		t.Errorf("truncated body length = %d, want %d", len(resp.Body), f.MaxBodyBytes)
	}
	// The truncated prefix is still the real page: the padding comes
	// after the closing </html>.
	if !strings.Contains(resp.Body, "<html") {
		t.Error("truncated prefix lost the document")
	}
}

// TestSubresourceFaultDeterministic: the shared-host fault decision is
// a pure function of (seed, host) and respects the configured rate.
func TestSubresourceFaultDeterministic(t *testing.T) {
	cc := DefaultChaosConfig()
	hosts := []string{"widget-pay.test", "cdn-a.test", "widget-map.test", "cdn-b.test"}
	faulted := 0
	for _, h := range hosts {
		a := cc.SubresourceFault(1, h)
		if b := cc.SubresourceFault(1, h); a != b {
			t.Fatalf("host %s: decision not deterministic", h)
		}
		if a != FaultNone {
			faulted++
			if a != FaultReset {
				t.Errorf("host %s: subresource fault %v, want reset-only", h, a)
			}
		}
	}
	off := ChaosConfig{}
	for _, h := range hosts {
		if off.SubresourceFault(1, h) != FaultNone {
			t.Fatalf("disabled chaos faulted host %s", h)
		}
	}
}

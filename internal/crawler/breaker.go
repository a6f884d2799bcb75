package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"permodyssey/internal/browser"
)

// ErrCircuitOpen is returned (wrapped, with the host) for fetches the
// circuit breaker refused because the target host had just failed
// repeatedly. Classify maps it to store.FailureBreakerOpen, which is
// transient: the retry backoff outlives the breaker cooldown, so a
// later attempt becomes the half-open probe.
var ErrCircuitOpen = errors.New("circuit open")

// BreakerConfig tunes the per-host circuit breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive failures open a host's circuit;
	// 0 disables the breaker.
	Threshold int
	// Cooldown is how long an open circuit refuses requests before it
	// half-opens and lets a single probe through. With the crawl queue's
	// breaker deferral on (Config.DeferBreakerOpen) a retried visit is
	// parked until the probe time whatever the backoff; without it, keep
	// the cooldown at or below the crawler's retry backoff so a retried
	// visit always gets its probe.
	Cooldown time.Duration
}

// DefaultBreakerConfig trips after 5 consecutive failures and
// half-opens after 500ms.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{Threshold: 5, Cooldown: 500 * time.Millisecond}
}

// BreakerStats is a point-in-time snapshot of Breaker counters.
type BreakerStats struct {
	// Trips counts closed→open transitions; Reopens half-open probes
	// that failed and re-opened the circuit.
	Trips   uint64
	Reopens uint64
	// HalfOpenProbes counts requests let through an open circuit after
	// its cooldown; Closes the probes that succeeded and closed it.
	HalfOpenProbes uint64
	Closes         uint64
	// ShortCircuits counts requests refused while a circuit was open.
	ShortCircuits uint64
	// OpenHosts is the number of hosts currently open or half-open.
	OpenHosts uint64
}

// circuitState is one host's breaker position.
type circuitState uint8

const (
	circuitClosed circuitState = iota
	circuitOpen
	circuitHalfOpen // one probe in flight
)

// hostCircuit tracks one host.
type hostCircuit struct {
	state       circuitState
	consecutive int
	openedAt    time.Time
}

// Breaker is a per-host circuit breaker: after Threshold consecutive
// failures against one host it refuses further requests to that host
// (short-circuit) until Cooldown has passed, then lets exactly one
// probe through (half-open). A successful probe closes the circuit; a
// failed one re-opens it for another cooldown. The paper's crawl lost
// ~57k sites to flaky origins; a production crawler must stop hammering
// them without losing the ones that recover.
type Breaker struct {
	cfg BreakerConfig

	mu    sync.Mutex
	hosts map[string]*hostCircuit

	trips, reopens, halfOpens, closes, shortCircuits atomic.Uint64
}

// NewBreaker creates a Breaker; a zero Threshold disables it (Allow
// always true, Report a no-op).
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerConfig().Cooldown
	}
	return &Breaker{cfg: cfg, hosts: map[string]*hostCircuit{}}
}

// Allow reports whether a request to host may proceed right now, and
// whether it was admitted as the half-open probe. A false allowed is a
// short-circuit: the caller must not hit the host. The probe's caller
// owes the circuit a verdict: Report, or Unprobe when the request ends
// without one.
func (b *Breaker) Allow(host string) (allowed, probe bool) {
	if b.cfg.Threshold <= 0 {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.hosts[host]
	if !ok {
		return true, false
	}
	switch c.state {
	case circuitClosed:
		return true, false
	case circuitHalfOpen:
		// A probe is already in flight; everyone else waits.
		b.shortCircuits.Add(1)
		return false, false
	default: // open
		if time.Since(c.openedAt) >= b.cfg.Cooldown {
			c.state = circuitHalfOpen
			b.halfOpens.Add(1)
			return true, true
		}
		b.shortCircuits.Add(1)
		return false, false
	}
}

// Unprobe returns a half-open circuit whose probe ended without a
// verdict (its caller gave up) to open with the cooldown already spent,
// so the next request probes. Only the request Allow admitted as the
// probe may call it; otherwise the circuit would stay half-open, and
// short-circuit every request, for good.
func (b *Breaker) Unprobe(host string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.hosts[host]; c != nil && c.state == circuitHalfOpen {
		c.state = circuitOpen
		c.openedAt = time.Now().Add(-b.cfg.Cooldown)
	}
}

// NextProbe reports whether a request to host could be admitted right
// now without mutating any circuit state, and — when it could not —
// the earliest instant the circuit will next admit a probe. The crawl
// queue consults it before dispatching a visit so that sites on an
// open circuit are deferred to the half-open time instead of burning a
// dispatch on a short-circuit. Unlike Allow it never transitions the
// circuit to half-open and never counts a short-circuit; the fetch
// path's Allow still arbitrates who becomes the actual probe.
func (b *Breaker) NextProbe(host string) (at time.Time, allow bool) {
	if b.cfg.Threshold <= 0 {
		return time.Time{}, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.hosts[host]
	if !ok || c.state == circuitClosed {
		return time.Time{}, true
	}
	if c.state == circuitHalfOpen {
		// A probe is in flight; its outcome lands within roughly one
		// cooldown (success closes the circuit, failure re-opens it and
		// restarts the clock), so that is when to look again.
		return time.Now().Add(b.cfg.Cooldown), false
	}
	probeAt := c.openedAt.Add(b.cfg.Cooldown)
	if !time.Now().Before(probeAt) {
		return time.Time{}, true
	}
	return probeAt, false
}

// Report records the outcome of a request Allow let through.
func (b *Breaker) Report(host string, ok bool) {
	if b.cfg.Threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.hosts[host]
	if c == nil {
		if ok {
			return // healthy host, nothing to track
		}
		c = &hostCircuit{}
		b.hosts[host] = c
	}
	if ok {
		if c.state != circuitClosed {
			b.closes.Add(1)
		}
		delete(b.hosts, host) // closed with a clean slate
		return
	}
	c.consecutive++
	switch c.state {
	case circuitHalfOpen:
		c.state = circuitOpen
		c.openedAt = time.Now()
		b.reopens.Add(1)
	case circuitClosed:
		if c.consecutive >= b.cfg.Threshold {
			c.state = circuitOpen
			c.openedAt = time.Now()
			b.trips.Add(1)
		}
	}
}

// Stats snapshots the breaker counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	open := uint64(0)
	for _, c := range b.hosts {
		if c.state != circuitClosed {
			open++
		}
	}
	b.mu.Unlock()
	return BreakerStats{
		Trips:          b.trips.Load(),
		Reopens:        b.reopens.Load(),
		HalfOpenProbes: b.halfOpens.Load(),
		Closes:         b.closes.Load(),
		ShortCircuits:  b.shortCircuits.Load(),
		OpenHosts:      open,
	}
}

// BreakerFetcher guards every fetch of the wrapped Fetcher with a
// Breaker, keyed by URL host. It sits directly above the real HTTP
// fetcher — below the response cache — so cache hits never count and
// every real network attempt does.
type BreakerFetcher struct {
	Inner   browser.Fetcher
	Breaker *Breaker
}

// NewBreakerFetcher wraps inner with a fresh Breaker under cfg.
func NewBreakerFetcher(inner browser.Fetcher, cfg BreakerConfig) *BreakerFetcher {
	return &BreakerFetcher{Inner: inner, Breaker: NewBreaker(cfg)}
}

// Fetch implements browser.Fetcher.
func (f *BreakerFetcher) Fetch(ctx context.Context, rawURL string) (*browser.Response, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	host := u.Hostname()
	allowed, probe := f.Breaker.Allow(host)
	if !allowed {
		return nil, fmt.Errorf("%w for host %s", ErrCircuitOpen, host)
	}
	resp, err := f.Inner.Fetch(ctx, rawURL)
	// A cancelled parent context says nothing about the host's health;
	// don't let one slow site open circuits for everyone else.
	if err != nil && (errors.Is(err, context.Canceled) || ctx.Err() != nil) {
		if probe {
			f.Breaker.Unprobe(host)
		}
		return resp, err
	}
	f.Breaker.Report(host, err == nil)
	return resp, err
}

// Package crawler runs the measurement at scale: a worker pool of mini
// browsers with per-site deadlines, the paper's crawl-failure taxonomy
// (§4), post-visit exclusion of incomplete pages, retry-with-backoff
// for transient failures, checkpoint/resume over a partial dataset, and
// immediate result persistence into a dataset.
//
// The paper ran 40 parallel Playwright crawlers with a 60s load budget
// plus 20s settle time and a 90s hard deadline per page; this crawler
// exposes the same knobs scaled to the synthetic web.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"permodyssey/internal/browser"
	"permodyssey/internal/origin"
	"permodyssey/internal/store"
)

// Target is one site to visit.
type Target struct {
	Rank int
	URL  string
}

// Crawl defaults — the single source of truth shared by DefaultConfig
// and the fallbacks New applies to a partially-filled Config.
const (
	// DefaultWorkers is the parallel crawler count (the paper used 40).
	DefaultWorkers = 32
	// DefaultPerSiteTimeout is the hard per-page deadline analogue of
	// the paper's 90s, scaled to the synthetic web.
	DefaultPerSiteTimeout = 10 * time.Second
	// DefaultRetryBackoff is the base delay before a retry; it doubles
	// per attempt.
	DefaultRetryBackoff = 100 * time.Millisecond
)

// Config tunes the crawl.
type Config struct {
	// Workers is the number of parallel crawlers.
	Workers int
	// PerSiteTimeout is the hard deadline per page; each retry attempt
	// gets a fresh deadline.
	PerSiteTimeout time.Duration
	// MaxRetries is how many extra attempts a visit gets when it fails
	// with a transient class (timeout, ephemeral — see
	// store.FailureClass.Transient). 0 disables retries.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling per
	// subsequent attempt (exponential backoff). The crawl queue serves
	// it by parking the visit on a timer — the worker moves on to other
	// sites meanwhile.
	RetryBackoff time.Duration
	// Breaker, when non-nil, is the per-host circuit breaker guarding
	// the fetch path (core wires the BreakerFetcher's Breaker here). It
	// lets the crawl queue observe circuit state at dispatch time.
	Breaker *Breaker
	// DeferBreakerOpen defers a visit whose host's circuit is open
	// until the breaker's half-open probe time instead of dispatching
	// it into a guaranteed breaker-open short-circuit. Requires
	// Breaker.
	DeferBreakerOpen bool
	// Resume, when non-nil, is a partial dataset from an interrupted
	// crawl: its Resumable records are carried over verbatim and their
	// ranks are skipped, so interrupt-then-resume converges to the same
	// dataset as one uninterrupted run.
	Resume *store.Dataset
	// FollowInternalLinks, when positive, visits up to that many
	// same-site pages linked from the landing page — lifting the
	// landing-page-only limitation of §6.1. The per-site deadline covers
	// the landing page plus all internal pages together.
	FollowInternalLinks int
	// Progress, when non-nil, receives the number of completed sites
	// (resumed records count as already completed).
	Progress func(done, total int)
	// Sink, when non-nil, receives each record as soon as its visit
	// completes (the paper's C14: results are persisted immediately, not
	// at the end of the crawl). Called from the collector goroutine, in
	// completion order. Resumed records are not re-sent: they are
	// already persisted.
	Sink func(store.SiteRecord)
}

// withDefaults fills unset fields from the package defaults.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.PerSiteTimeout <= 0 {
		cfg.PerSiteTimeout = DefaultPerSiteTimeout
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	return cfg
}

// DefaultConfig returns crawl settings scaled for the synthetic web.
func DefaultConfig() Config { return Config{}.withDefaults() }

// Stats counts what a crawl actually did, beyond the records it
// produced. Counters accumulate across Crawl calls on one Crawler.
type Stats struct {
	// Visited is the number of sites visited live this run; Resumed the
	// number skipped because a Resume dataset already contained them.
	Visited int
	Resumed int
	// Retries is the total number of extra visit attempts spent on
	// transient failures.
	Retries int
	// Panics is the number of visit attempts that panicked inside the
	// browser/parser/interpreter and were converted to FailureMinor
	// records instead of killing the crawl.
	Panics int
	// Partial is the number of records that succeeded in degraded form
	// (a subresource frame, external script, or body tail was lost).
	Partial int
	// Requeued is the number of transient-failure retries the crawl
	// queue parked until their backoff deadline instead of sleeping
	// inside a worker; it tracks Retries.
	Requeued int
	// Deferred is the total number of entries parked on a timer:
	// Requeued plus BreakerDeferred.
	Deferred int
	// BreakerDeferred counts dispatches avoided because the target
	// host's circuit was open: the visit was deferred to the half-open
	// probe time instead of being burned as a breaker-open record.
	BreakerDeferred int
}

// Crawler drives a Browser over a target list.
type Crawler struct {
	Browser *browser.Browser
	Config  Config

	visited atomic.Int64
	resumed atomic.Int64
	retries atomic.Int64
	panics  atomic.Int64
	partial atomic.Int64

	requeued        atomic.Int64
	breakerDeferred atomic.Int64
}

// New creates a Crawler, filling unset Config fields with the package
// defaults (the same values DefaultConfig returns).
func New(b *browser.Browser, cfg Config) *Crawler {
	return &Crawler{Browser: b, Config: cfg.withDefaults()}
}

// Stats snapshots the crawl counters.
func (c *Crawler) Stats() Stats {
	return Stats{
		Visited:         int(c.visited.Load()),
		Resumed:         int(c.resumed.Load()),
		Retries:         int(c.retries.Load()),
		Panics:          int(c.panics.Load()),
		Partial:         int(c.partial.Load()),
		Requeued:        int(c.requeued.Load()),
		Deferred:        int(c.requeued.Load() + c.breakerDeferred.Load()),
		BreakerDeferred: int(c.breakerDeferred.Load()),
	}
}

// Resumable returns the records of an interrupted crawl that resuming
// it keeps: all but the canceled ones. A canceled visit is an artifact
// of the interruption, not a site outcome, so its rank is crawled
// again.
func Resumable(prior []store.SiteRecord) []store.SiteRecord {
	kept := make([]store.SiteRecord, 0, len(prior))
	for _, r := range prior {
		if r.Failure != store.FailureCanceled {
			kept = append(kept, r)
		}
	}
	return kept
}

// Crawl visits every target and returns the dataset, ordered by rank.
// With Config.Resume set, targets whose rank already has a record are
// skipped and the prior records are carried into the result.
//
// Dispatch runs through the crawl queue: workers take pending targets
// in order, a transiently-failed visit is parked on a timer until its
// backoff deadline instead of blocking a worker and goes ahead of
// fresh targets once due, and a visit to a host whose circuit is open
// is deferred to the half-open probe time (Config.DeferBreakerOpen).
func (c *Crawler) Crawl(ctx context.Context, targets []Target) *store.Dataset {
	ds := &store.Dataset{Records: make([]store.SiteRecord, 0, len(targets))}
	pending := targets
	done := 0
	if c.Config.Resume != nil {
		ds.Records = append(ds.Records, Resumable(c.Config.Resume.Records)...)
		completed := make(map[int]bool, len(ds.Records))
		for _, r := range ds.Records {
			completed[r.Rank] = true
		}
		pending = make([]Target, 0, len(targets))
		for _, t := range targets {
			if completed[t.Rank] {
				done++
				continue
			}
			pending = append(pending, t)
		}
		c.resumed.Add(int64(done))
	}

	var breaker *Breaker
	if c.Config.DeferBreakerOpen {
		breaker = c.Config.Breaker
	}
	q := newQueue(pending, breaker, &c.breakerDeferred)
	results := make(chan store.SiteRecord, c.Config.Workers)
	var wg sync.WaitGroup
	for i := 0; i < c.Config.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.worker(ctx, q, results)
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	for rec := range results {
		ds.Add(rec)
		c.visited.Add(1)
		if c.Config.Sink != nil {
			c.Config.Sink(rec)
		}
		done++
		if c.Config.Progress != nil {
			c.Config.Progress(done, len(targets))
		}
	}
	sort.Slice(ds.Records, func(i, j int) bool { return ds.Records[i].Rank < ds.Records[j].Rank })
	return ds
}

// worker takes entries from the crawl queue until the crawl drains.
// One entry taken is one visit attempt; a transient failure with budget
// left parks the entry until its backoff deadline and the worker
// immediately takes other work — the backoff costs no worker-seconds.
func (c *Crawler) worker(ctx context.Context, q *queue, results chan<- store.SiteRecord) {
	cfg := c.Config
	for {
		e, ok := q.next(ctx)
		if !ok {
			return
		}
		rec := c.attempt(ctx, e.t)
		if rec.Failure.Transient() && e.retries < cfg.MaxRetries {
			if ctx.Err() == nil {
				if e.retries == 0 {
					e.first = rec.Failure
				}
				backoff := cfg.RetryBackoff << uint(e.retries)
				e.retries++
				c.retries.Add(1)
				c.requeued.Add(1)
				q.park(e, backoff)
				continue
			}
			// The crawl was cancelled before this site's retry: the
			// attempt is not its verdict, so it is recorded as cancelled,
			// like a visit cut mid-fetch, and resume re-crawls it.
			rec.Failure = store.FailureCanceled
		}
		rec.Retries = e.retries
		if e.retries > 0 {
			rec.FirstAttemptFailure = e.first
		}
		rec.Elapsed = time.Since(e.start)
		q.finish()
		results <- rec
	}
}

// attempt performs one visit under one per-site deadline. A panic
// anywhere in the browser stack — parser, interpreter, frame walker —
// is confined to this attempt and becomes a FailureMinor record, so one
// pathological page can never take down the crawl (the paper's "minor
// crawler-level errors", 315 sites).
func (c *Crawler) attempt(ctx context.Context, t Target) (rec store.SiteRecord) {
	start := time.Now()
	rec = store.SiteRecord{Rank: t.Rank, URL: t.URL}
	defer func() {
		if r := recover(); r != nil {
			c.panics.Add(1)
			rec = store.SiteRecord{
				Rank:    t.Rank,
				URL:     t.URL,
				Failure: store.FailureMinor,
				Error:   fmt.Sprintf("panic: %v", r),
				Elapsed: time.Since(start),
			}
		}
	}()
	vctx, cancel := context.WithTimeout(ctx, c.Config.PerSiteTimeout)
	defer cancel()
	page, err := c.Browser.Visit(vctx, t.URL)
	rec.Elapsed = time.Since(start)
	if err != nil {
		rec.Failure = Classify(err)
		rec.Error = err.Error()
		return rec
	}
	if page.Truncated {
		// The paper excluded pages whose frame collection was incomplete
		// ("often occurred due to the presence of numerous included
		// frames", §4).
		rec.Failure = store.FailureExcluded
		rec.Page = page
		return rec
	}
	rec.Page = page
	if reasons := degradedReasons(page); len(reasons) > 0 {
		rec.Partial = true
		rec.DegradedReasons = reasons
		c.partial.Add(1)
	}
	if c.Config.FollowInternalLinks > 0 {
		rec.InternalPages = c.followLinks(vctx, page)
		rec.Elapsed = time.Since(start)
	}
	return rec
}

// degradedReasons inspects a successfully-visited page for signs that
// parts of it were lost in flight: subresource frames that never
// loaded, external scripts whose fetch failed, or a main document cut
// at the body-size cap. Such pages stay analyzable — the paper keeps
// every page whose frame data is complete — but the record is marked
// Partial so the analysis can report the degraded share honestly.
func degradedReasons(page *browser.PageResult) []string {
	seen := map[string]bool{}
	for _, fr := range page.Frames {
		if fr.LoadError == "frame load failed" {
			seen["frame-load-failed"] = true
		}
		if fr.BodyTruncated {
			seen["body-truncated"] = true
		}
		for _, se := range fr.ScriptErrors {
			if strings.HasPrefix(se, "load ") && strings.HasSuffix(se, " failed") {
				seen["script-load-failed"] = true
				break
			}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// followLinks visits up to FollowInternalLinks same-site pages linked
// from the landing page. Failures on internal pages are silently
// skipped: the landing page remains the record of note.
func (c *Crawler) followLinks(ctx context.Context, page *browser.PageResult) []browser.PageResult {
	top := page.TopFrame()
	if top == nil || top.Site == "" {
		return nil
	}
	var out []browser.PageResult
	seen := map[string]bool{page.URL: true, top.FinalURL: true}
	for _, link := range page.Links {
		if ctx.Err() != nil {
			// The per-site budget (or the crawl) is already over; without
			// this check the loop would keep iterating links until the
			// next Visit call noticed the dead context.
			break
		}
		if len(out) >= c.Config.FollowInternalLinks {
			break
		}
		if seen[link] {
			continue
		}
		seen[link] = true
		o, err := origin.Parse(link)
		if err != nil || o.Site() != top.Site {
			continue // external links stay out of scope
		}
		sub, err := c.Browser.Visit(ctx, link)
		if err != nil || sub.Truncated {
			continue
		}
		out = append(out, *sub)
	}
	return out
}

// Classify maps a visit error to the paper's failure taxonomy. Order
// matters: an error that died mid-exchange (a reset, a dropped body) is
// ephemeral even though Go wraps it in the same *net.OpError / *url.Error
// types as a refused dial, so the dial-stage check must look at the Op
// before the type alone decides "unreachable".
func Classify(err error) store.FailureClass {
	if err == nil {
		return store.FailureNone
	}
	// Breaker short-circuit: the crawler refused the request itself.
	if errors.Is(err, ErrCircuitOpen) {
		return store.FailureBreakerOpen
	}
	// Archived failures replayed offline carry the class the original
	// crawl recorded; report it verbatim.
	var rf *browser.ReplayedFailure
	if errors.As(err, &rf) {
		return store.FailureClass(rf.Class)
	}
	// Strict offline replay miss: the archive is the whole web in that
	// mode, and this URL is not on it — the DNS-failure analogue.
	if errors.Is(err, browser.ErrNotArchived) {
		return store.FailureUnreachable
	}
	// Crawl shutdown: the visit was cancelled mid-flight. Transient —
	// the site was never actually judged — so resume re-crawls it
	// instead of persisting a bogus minor failure.
	if errors.Is(err, context.Canceled) {
		return store.FailureCanceled
	}
	// Deadline: page-load timeout (includes slow-loris drips that never
	// finish inside the per-site budget).
	if errors.Is(err, context.DeadlineExceeded) {
		return store.FailureTimeout
	}
	var ue *url.Error
	if errors.As(err, &ue) && ue.Timeout() {
		return store.FailureTimeout
	}
	// DNS failures: unreachable, regardless of wrapping.
	var dnsErr *net.DNSError
	if errors.As(err, &dnsErr) {
		return store.FailureUnreachable
	}
	// Connections that died mid-exchange: the host answered, then the
	// content vanished under us — the paper's "ephemeral" class. This
	// must run before the generic OpError check because a reset surfaces
	// as a read-stage *net.OpError wrapping syscall.ECONNRESET.
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, io.ErrUnexpectedEOF) {
		return store.FailureEphemeral
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) {
		if opErr.Op == "dial" {
			// Never got a connection: unreachable.
			return store.FailureUnreachable
		}
		// Read/write on an established connection failed: ephemeral.
		return store.FailureEphemeral
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "malformed"),
		strings.Contains(msg, "headers exceeded"),
		strings.Contains(msg, "redirects"):
		// Protocol garbage the crawler refused to consume: the paper's
		// minor crawler-level errors. Checked before the EOF fallback —
		// a minor-class message that merely mentions "EOF" ("malformed
		// chunk before EOF") must not be promoted to ephemeral, where
		// the retry loop would waste attempts on it.
		return store.FailureMinor
	case strings.Contains(msg, "connection reset"),
		strings.Contains(msg, "unexpected EOF"),
		strings.HasSuffix(msg, ": EOF"),
		msg == "EOF":
		// String fallbacks for resets/EOFs that lost their typed chain
		// through intermediate fmt.Errorf wrapping. A bare substring
		// match on "EOF" is too loose (it hijacks any message that
		// mentions EOF); accept only "unexpected EOF" or a wrapped
		// io.EOF, which Go always renders as a ": EOF" suffix.
		return store.FailureEphemeral
	case strings.Contains(msg, "status "):
		return store.FailureUnreachable
	default:
		return store.FailureMinor
	}
}

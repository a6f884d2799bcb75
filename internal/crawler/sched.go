package crawler

import (
	"context"
	"net/url"
	"sync/atomic"
	"time"

	"permodyssey/internal/store"
)

// maxBreakerDeferrals bounds how many times one entry can be re-parked
// because its host's circuit was open. Past the bound the entry is
// dispatched anyway and takes its breaker-open short-circuit through
// the normal retry path — the escape hatch that keeps a permanently
// dead host from deferring its queue forever.
const maxBreakerDeferrals = 8

// schedEntry is one dispatched site: its target, how many retry
// attempts it has spent, and how often an open circuit parked it.
type schedEntry struct {
	t    Target
	host string
	// retries is the number of extra attempts already spent; first is
	// how the first attempt failed, for the recovered-vs-stuck table.
	retries int
	first   store.FailureClass
	// start is when the first attempt dispatched; Elapsed covers every
	// attempt plus the time spent parked between them.
	start time.Time
	// breakerDeferrals counts circuit-open re-parks (see
	// maxBreakerDeferrals).
	breakerDeferrals int
}

// queue is the crawl's dispatch core. Fresh targets wait in rank order
// on one channel. An entry parked until a deadline — a retry backoff or
// a breaker probe time — sits on its own timer, which moves it to the
// due channel when the deadline passes. Workers take a due entry before
// any fresh target, so a retry waits for its backoff, not behind every
// site not yet attempted, and no worker ever sleeps out a backoff.
//
// An entry sits in exactly one place (fresh, a timer, due, or a
// worker), so both channels hold every pending target and no send
// blocks, not even a timer firing after a cancelled crawl returned.
// The last finished entry closes drained; cancellation abandons parked
// entries while in-flight visits drain.
type queue struct {
	fresh      chan Target
	due        chan *schedEntry
	unfinished atomic.Int64
	drained    chan struct{}
	// breaker, when non-nil, parks an entry whose host's circuit is
	// open until its probe time, counting each park in breakerDeferred.
	breaker         *Breaker
	breakerDeferred *atomic.Int64
}

// newQueue queues pending in order; a nil breaker turns breaker
// deferral off.
func newQueue(pending []Target, breaker *Breaker, breakerDeferred *atomic.Int64) *queue {
	q := &queue{
		fresh:           make(chan Target, len(pending)),
		due:             make(chan *schedEntry, len(pending)),
		drained:         make(chan struct{}),
		breaker:         breaker,
		breakerDeferred: breakerDeferred,
	}
	for _, t := range pending {
		q.fresh <- t
	}
	q.unfinished.Store(int64(len(pending)))
	if len(pending) == 0 {
		close(q.drained)
	}
	return q
}

// targetHost extracts the host a target's visit will hit, the key for
// breaker deferral. Unparseable URLs share the "" bucket; they fail
// fast at visit time anyway.
func targetHost(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return ""
	}
	return u.Hostname()
}

// next returns the entry to visit next, a due one before any fresh
// target, or false once the crawl has drained or ctx is cancelled.
func (q *queue) next(ctx context.Context) (*schedEntry, bool) {
	for {
		var e *schedEntry
		select {
		case e = <-q.due:
		default:
			select {
			case e = <-q.due:
			case t := <-q.fresh:
				e = &schedEntry{t: t, host: targetHost(t.URL)}
			case <-q.drained:
				return nil, false
			case <-ctx.Done():
				return nil, false
			}
		}
		if ctx.Err() != nil {
			return nil, false
		}
		if q.breaker != nil && e.breakerDeferrals < maxBreakerDeferrals {
			if at, allow := q.breaker.NextProbe(e.host); !allow {
				// Circuit open: dispatching now would only burn the
				// visit on a short-circuit. Park until the probe time.
				e.breakerDeferrals++
				q.breakerDeferred.Add(1)
				q.park(e, time.Until(at))
				continue
			}
		}
		if e.start.IsZero() {
			e.start = time.Now()
		}
		return e, true
	}
}

// park hands e to the due channel once d has passed.
func (q *queue) park(e *schedEntry, d time.Duration) {
	time.AfterFunc(d, func() { q.due <- e })
}

// finish retires a dispatched entry; the last one closes drained.
func (q *queue) finish() {
	if q.unfinished.Add(-1) == 0 {
		close(q.drained)
	}
}

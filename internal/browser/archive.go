package browser

import "errors"

// ResponseArchive is an optional persistent tier below the in-memory
// response cache: a content-addressed on-disk archive that survives the
// process, so a repeat crawl of the same population skips the network
// entirely and a finished crawl can be replayed offline byte for byte.
// internal/diskcache provides the implementation; the interface lives
// here so the cache layer stays free of filesystem concerns.
//
// Contract: Load returns (nil, nil) on a recoverable miss — the URL is
// not archived, or its object is corrupt and should be re-fetched. A
// non-nil error is terminal for the lookup and must be surfaced to the
// caller instead of fetching: in offline replay it is either
// ErrNotArchived or a *ReplayedFailure. Responses returned by Load are
// shared and read-only, like cached ones.
type ResponseArchive interface {
	Load(rawURL string) (*Response, error)
	// Store archives a successful response.
	Store(rawURL string, resp *Response)
	// StoreFailure archives a failed fetch so offline replay reproduces
	// the failure instead of misreporting it as a miss.
	StoreFailure(rawURL string, fetchErr error)
	// Stats snapshots the archive counters.
	Stats() ArchiveStats
}

// ArchiveStats is a point-in-time snapshot of a ResponseArchive's
// counters.
type ArchiveStats struct {
	// Hits are lookups served from the archive (responses or, offline,
	// replayed failures) without touching the network.
	Hits uint64 `json:"hits"`
	// Writes are manifest entries written this run (successes and
	// archived failures).
	Writes uint64 `json:"writes"`
	// CorruptRecovered counts hash-mismatched, truncated, or missing
	// objects that were degraded to misses and re-fetched rather than
	// surfaced as errors.
	CorruptRecovered uint64 `json:"corrupt_recovered"`
	// OrphansSwept counts temp object/manifest files left by writers
	// that died mid-rename (a SIGKILLed crawler) and GC'd by the
	// crash-consistency pass on open.
	OrphansSwept uint64 `json:"orphans_swept"`
	// BytesStored is object payload bytes written to disk this run
	// (content addressing stores each distinct body once).
	BytesStored uint64 `json:"bytes_stored"`
	// Entries is the number of URLs in the manifest index; Objects the
	// number of distinct content-addressed bodies they reference.
	Entries uint64 `json:"entries"`
	Objects uint64 `json:"objects"`
}

// ErrNotArchived distinguishes a strict offline-replay miss from every
// network failure: the archive is the whole web in that mode, and the
// requested URL is not on it. Wrapped with the URL by the archive;
// check with errors.Is.
var ErrNotArchived = errors.New("offline replay: resource not archived")

// ReplayedFailure replays a fetch failure recorded in the archive: the
// original crawl saw this URL fail with Class (a store.FailureClass
// value — kept as a string here because the store package imports this
// one), and offline replay must reproduce that outcome rather than
// report the URL as missing. The crawler's Classify maps it back to
// the recorded class.
type ReplayedFailure struct {
	Class string
	Msg   string
}

func (f *ReplayedFailure) Error() string { return f.Msg }

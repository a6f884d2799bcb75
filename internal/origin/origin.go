// Package origin models web origins and sites the way the Permissions
// Policy specification and the paper use them: tuple origins
// (scheme, host, port), opaque origins for local-scheme documents, the
// same-origin and same-site relations, and ASCII serialization.
//
// The paper's analysis distinguishes three granularities:
//
//   - origin: scheme://host:port, the unit at which allowlists match;
//   - site: the registrable domain (eTLD+1), the unit at which scripts
//     and frames are classified first- vs third-party;
//   - local-scheme documents (about:, data:, blob:, javascript:), which
//     carry opaque origins, never issue network requests, and are the
//     subject of the specification issue in Section 6.2.
package origin

import (
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync/atomic"

	"permodyssey/internal/psl"
)

// Origin is a web origin. Tuple origins have Scheme/Host/Port set; opaque
// origins have Opaque set and compare equal only to themselves (by ID).
type Origin struct {
	Scheme string
	Host   string
	Port   string // normalized: empty when it is the scheme default

	// Opaque is non-zero for opaque origins (local-scheme documents and
	// sandboxed frames). Each opaque origin gets a unique ID; two opaque
	// origins are same-origin only when their IDs match.
	Opaque uint64
}

// ErrUnparseable is returned by Parse for inputs that cannot be
// interpreted as an origin.
var ErrUnparseable = errors.New("origin: unparseable")

// localSchemes are the schemes the Fetch Standard calls local, plus
// javascript:, which the paper groups with them because such iframes also
// issue no network request.
var localSchemes = map[string]bool{
	"about":      true,
	"data":       true,
	"blob":       true,
	"javascript": true,
}

// IsLocalScheme reports whether scheme (without the colon) is a local
// scheme in the paper's sense.
func IsLocalScheme(scheme string) bool {
	return localSchemes[strings.ToLower(scheme)]
}

// IsLocalURL reports whether the raw URL uses a local scheme. An empty
// src and "about:blank"-style values count as local.
func IsLocalURL(raw string) bool {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return true
	}
	colon := strings.IndexByte(raw, ':')
	if colon < 0 {
		return false
	}
	return IsLocalScheme(raw[:colon])
}

var defaultPorts = map[string]string{
	"http":  "80",
	"https": "443",
	"ws":    "80",
	"wss":   "443",
	"ftp":   "21",
}

// Parse derives the origin of a URL string. Local-scheme URLs produce an
// opaque origin with ID 0 (callers that need distinguishable opaque
// origins should use NewOpaque). Scheme-relative and bare-host inputs
// default to https, matching how allowlist entries like "example.com"
// are interpreted by browsers.
func Parse(raw string) (Origin, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return Origin{}, ErrUnparseable
	}
	if IsLocalURL(raw) {
		return Origin{Opaque: 0, Scheme: schemeOf(raw)}, nil
	}
	if strings.HasPrefix(raw, "//") {
		raw = "https:" + raw
	} else if !strings.Contains(raw, "://") {
		raw = "https://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return Origin{}, fmt.Errorf("%w: %v", ErrUnparseable, err)
	}
	host := strings.ToLower(u.Hostname())
	if host == "" || !validHost(host) {
		return Origin{}, fmt.Errorf("%w: no host in %q", ErrUnparseable, raw)
	}
	scheme := strings.ToLower(u.Scheme)
	port := u.Port()
	if port == defaultPorts[scheme] {
		port = ""
	}
	return Origin{Scheme: scheme, Host: host, Port: port}, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(raw string) Origin {
	o, err := Parse(raw)
	if err != nil {
		panic(err)
	}
	return o
}

func schemeOf(raw string) string {
	if i := strings.IndexByte(raw, ':'); i >= 0 {
		return strings.ToLower(raw[:i])
	}
	return ""
}

// validHost accepts DNS-ish hostnames and IP literals; it rejects the
// garbage url.Parse tolerates (e.g. bare runs of colons).
func validHost(host string) bool {
	if strings.ContainsRune(host, ':') {
		// Only IPv6 literals may contain colons; require at least one
		// hex digit so strings like ":::" are rejected.
		hasHex := false
		for _, c := range host {
			switch {
			case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
				hasHex = true
			case c == ':':
			default:
				return false
			}
		}
		return hasHex
	}
	for _, c := range host {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

var opaqueCounter atomic.Uint64

// NewOpaque returns a fresh opaque origin distinct from every other.
// Safe for concurrent use: crawl workers create sandboxed frames in
// parallel.
func NewOpaque(scheme string) Origin {
	return Origin{Opaque: opaqueCounter.Add(1), Scheme: strings.ToLower(scheme)}
}

// IsOpaque reports whether o is an opaque origin.
func (o Origin) IsOpaque() bool { return o.Host == "" }

// String serializes the origin. Opaque origins serialize as "null", as
// they do in the Origin response header.
func (o Origin) String() string {
	if o.IsOpaque() {
		return "null"
	}
	s := o.Scheme + "://" + o.Host
	if o.Port != "" {
		s += ":" + o.Port
	}
	return s
}

// SameOrigin reports whether a and b are the same origin. Opaque origins
// are same-origin only with themselves (identical non-zero IDs).
func (o Origin) SameOrigin(other Origin) bool {
	if o.IsOpaque() || other.IsOpaque() {
		return o.IsOpaque() && other.IsOpaque() &&
			o.Opaque != 0 && o.Opaque == other.Opaque
	}
	return o.Scheme == other.Scheme && o.Host == other.Host && o.Port == other.Port
}

// Site returns the registrable domain of the origin's host, or "" for
// opaque origins. This is the paper's notion of "site" used for 1P/3P
// classification.
func (o Origin) Site() string {
	if o.IsOpaque() {
		return ""
	}
	return psl.Default.RegistrableDomain(o.Host)
}

// SameSite reports whether two origins belong to the same site
// (schemelessly, per the paper's definition: "the site of the script
// differs from the site of the frame"). Opaque origins are never
// same-site with anything.
func (o Origin) SameSite(other Origin) bool {
	if o.IsOpaque() || other.IsOpaque() {
		return false
	}
	s := o.Site()
	return s != "" && s == other.Site()
}

// SiteOfURL returns the registrable domain for a raw URL, or "" when the
// URL is local-scheme or unparseable. Convenience used throughout the
// analysis pipeline.
func SiteOfURL(raw string) string {
	o, err := Parse(raw)
	if err != nil {
		return ""
	}
	return o.Site()
}

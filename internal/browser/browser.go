package browser

import (
	"context"
	"fmt"
	"strings"

	"permodyssey/internal/html"
	"permodyssey/internal/memo"
	"permodyssey/internal/origin"
	"permodyssey/internal/policy"
	"permodyssey/internal/script"
	"permodyssey/internal/static"
	"permodyssey/internal/webapi"
)

// Options configures a Browser.
type Options struct {
	// Mode selects the Permissions Policy behaviour (§6.2): the actual
	// specification (Chromium-like, with the local-scheme defect) or the
	// fixed/expected variant.
	Mode policy.SpecMode
	// MaxFrameDepth bounds frame recursion (top-level = depth 0).
	MaxFrameDepth int
	// MaxFramesPerPage bounds total frames collected for one page; pages
	// exceeding it are flagged, mirroring the paper's timeout exclusions
	// for pages "with numerous included frames".
	MaxFramesPerPage int
	// ScrollLazyIframes loads loading="lazy" frames, as the crawler does
	// by scrolling to them (§3.2). Off, they are skipped — the ablation
	// of DESIGN.md.
	ScrollLazyIframes bool
	// Interact fires load/click handlers after the no-interaction pass
	// (the Appendix A.3 manual-testing mode).
	Interact bool
	// ScriptCache, when non-nil, memoizes each script body's Script —
	// compiled program and static findings — across every frame this
	// browser loads, so a shared third-party script is compiled and
	// scanned once per crawl rather than once per including frame.
	ScriptCache *memo.Memo[memo.Key, *Script]
}

// The frame limits DefaultOptions sets and New fills when unset.
const (
	defaultMaxFrameDepth    = 3
	defaultMaxFramesPerPage = 64
)

// DefaultOptions mirror the paper's crawler configuration.
func DefaultOptions() Options {
	return Options{
		Mode:              policy.SpecActual,
		MaxFrameDepth:     defaultMaxFrameDepth,
		MaxFramesPerPage:  defaultMaxFramesPerPage,
		ScrollLazyIframes: true,
	}
}

// Browser visits pages.
type Browser struct {
	Fetcher Fetcher
	Opts    Options
	static  *static.Analyzer
}

// New creates a Browser.
func New(f Fetcher, opts Options) *Browser {
	if opts.MaxFrameDepth <= 0 {
		opts.MaxFrameDepth = defaultMaxFrameDepth
	}
	if opts.MaxFramesPerPage <= 0 {
		opts.MaxFramesPerPage = defaultMaxFramesPerPage
	}
	return &Browser{Fetcher: f, Opts: opts, static: static.NewAnalyzer()}
}

// FrameResult is everything collected for one document (§3.1).
type FrameResult struct {
	// URL is the frame URL as referenced; FinalURL after redirects.
	URL      string
	FinalURL string
	// Origin is the serialized document origin ("null" for local docs).
	Origin string
	// Site is the registrable domain of the document origin.
	Site string
	// TopLevel marks the top-level document; Depth its nesting level.
	TopLevel bool
	Depth    int
	// LocalScheme marks local-scheme documents (about:, data:, blob:,
	// javascript:, srcdoc) — they carry no headers (§4.3 excludes them
	// from header statistics for that reason).
	LocalScheme bool

	// Element holds the embedding <iframe> attributes (zero for
	// top-level documents).
	Element html.Iframe

	// Raw headers of interest.
	PermissionsPolicyRaw string
	FeaturePolicyRaw     string
	ReportOnlyRaw        string
	CSPRaw               string
	HasPermissionsPolicy bool
	HasFeaturePolicy     bool
	HasReportOnly        bool

	// HeaderValid reports whether the Permissions-Policy header parsed;
	// HeaderIssues carries linter findings for either outcome.
	HeaderValid  bool
	HeaderIssues []policy.Issue

	// Invocations are the dynamic records; StaticFindings the static
	// matches over this frame's scripts.
	Invocations    []webapi.Invocation
	StaticFindings []static.Finding
	// ScriptURLs are the external scripts the frame loaded.
	ScriptURLs []string
	// ScriptErrors are script-level failures (syntax/runtime), which a
	// real page survives too.
	ScriptErrors []string
	// LoadError is set when the frame document could not be fetched.
	LoadError string
	// BodyTruncated reports that the frame document exceeded the
	// fetcher's body budget and only a prefix was analyzed.
	BodyTruncated bool
}

// PageResult is one visited website.
type PageResult struct {
	URL    string
	Frames []FrameResult // Frames[0] is the top-level document
	// Truncated reports that MaxFramesPerPage was hit.
	Truncated bool
	// Links are the top-level document's anchor targets, resolved to
	// absolute URLs — the frontier for beyond-landing-page crawling.
	Links []string
}

// TopFrame returns the top-level frame result.
func (p *PageResult) TopFrame() *FrameResult {
	if len(p.Frames) == 0 {
		return nil
	}
	return &p.Frames[0]
}

// EmbeddedFrames returns all non-top-level frames.
func (p *PageResult) EmbeddedFrames() []FrameResult {
	if len(p.Frames) <= 1 {
		return nil
	}
	return p.Frames[1:]
}

// Visit loads a page and every reachable frame.
func (b *Browser) Visit(ctx context.Context, pageURL string) (*PageResult, error) {
	result := &PageResult{URL: pageURL}
	resp, err := b.Fetcher.Fetch(ctx, pageURL)
	if err != nil {
		return nil, err
	}
	if resp.Status >= 400 {
		return nil, fmt.Errorf("status %d fetching %s", resp.Status, pageURL)
	}
	top := newFrameResult(pageURL, resp, html.Iframe{}, 0)
	o, err := origin.Parse(resp.FinalURL)
	if err != nil {
		return nil, fmt.Errorf("unparseable final URL %q: %w", resp.FinalURL, err)
	}
	declared := b.declaredPolicy(top)
	doc := policy.NewTopLevel(o, declared)
	result.Frames = append(result.Frames, FrameResult{})
	b.processDocument(ctx, result, 0, top, doc, resp.Body)
	return result, nil
}

// newFrameResult captures headers and identity for a fetched frame.
func newFrameResult(frameURL string, resp *Response, el html.Iframe, depth int) *FrameResult {
	fr := &FrameResult{
		URL:           frameURL,
		FinalURL:      resp.FinalURL,
		Depth:         depth,
		TopLevel:      depth == 0,
		Element:       el,
		BodyTruncated: resp.BodyTruncated,
	}
	if o, err := origin.Parse(resp.FinalURL); err == nil {
		fr.Origin = o.String()
		fr.Site = o.Site()
	}
	if v := resp.Header.Get("Permissions-Policy"); v != "" {
		fr.HasPermissionsPolicy = true
		fr.PermissionsPolicyRaw = strings.Join(resp.Header.Values("Permissions-Policy"), ", ")
	}
	if v := resp.Header.Get("Feature-Policy"); v != "" {
		fr.HasFeaturePolicy = true
		fr.FeaturePolicyRaw = v
	}
	if v := resp.Header.Get("Permissions-Policy-Report-Only"); v != "" {
		fr.HasReportOnly = true
		fr.ReportOnlyRaw = v
	}
	fr.CSPRaw = resp.Header.Get("Content-Security-Policy")
	return fr
}

// declaredPolicy parses the frame's headers into the effective declared
// policy, enforcing the browser fallback chain: a valid
// Permissions-Policy wins; on parse failure the whole header is dropped;
// the deprecated Feature-Policy header applies only when no (valid or
// invalid?) — per Chromium, only when no Permissions-Policy header is
// present at all.
func (b *Browser) declaredPolicy(fr *FrameResult) policy.Policy {
	if fr.HasPermissionsPolicy {
		p, issues, err := policy.ParsePermissionsPolicy(fr.PermissionsPolicyRaw)
		fr.HeaderIssues = issues
		if err == nil {
			fr.HeaderValid = true
			return p
		}
		return policy.Policy{} // dropped entirely (§4.3.3)
	}
	if fr.HasFeaturePolicy {
		p, issues := policy.ParseFeaturePolicy(fr.FeaturePolicyRaw)
		fr.HeaderIssues = append(fr.HeaderIssues, issues...)
		fr.HeaderValid = true
		return p
	}
	return policy.Policy{}
}

// processDocument runs scripts, records analyses, and recurses into
// child frames. slot is the index of this frame in result.Frames.
func (b *Browser) processDocument(ctx context.Context, result *PageResult, slot int,
	fr *FrameResult, doc *policy.Document, body string) {
	page := html.Extract(body)
	if fr.TopLevel {
		for _, href := range page.Links {
			if resolved := resolveURL(fr.FinalURL, href); resolved != "" {
				result.Links = append(result.Links, resolved)
			}
		}
	}
	// The realm is built when the first script runs: most frames run
	// none, and a realm no script ran in can hold no handler and record
	// no invocation.
	var realm *webapi.Realm

	// Collect and run scripts: dynamic analysis.
	for _, s := range page.Scripts {
		src, urlStr := s.Body, ""
		if !s.Inline {
			urlStr = resolveURL(fr.FinalURL, s.Src)
			if urlStr == "" {
				continue
			}
			fr.ScriptURLs = append(fr.ScriptURLs, urlStr)
			resp, err := b.Fetcher.Fetch(ctx, urlStr)
			if err != nil || resp.Status >= 400 {
				fr.ScriptErrors = append(fr.ScriptErrors, fmt.Sprintf("load %s failed", urlStr))
				continue
			}
			src = resp.Body
		}
		sc, err := b.scriptFor(ctx, src)
		if err != nil {
			fr.ScriptErrors = append(fr.ScriptErrors, err.Error())
			continue
		}
		// Static analysis over the same sources (§3.1.1: both approaches
		// capture inline and external scripts), stamped with this
		// inclusion's URL.
		n := len(fr.StaticFindings)
		fr.StaticFindings = append(fr.StaticFindings, sc.Findings...)
		for i := n; i < len(fr.StaticFindings); i++ {
			fr.StaticFindings[i].ScriptURL = urlStr
		}
		if err = sc.Err; err == nil {
			if realm == nil {
				realm = webapi.NewRealm(doc, fr.FinalURL)
			}
			err = realm.RunCompiled(sc.Prog, urlStr)
		}
		if err != nil {
			fr.ScriptErrors = append(fr.ScriptErrors, err.Error())
		}
	}

	if realm != nil {
		// The settled-page phase: load handlers fire; with Interact also
		// clicks (the Appendix A.3 manual pass).
		if err := realm.FireEvent("load"); err != nil {
			fr.ScriptErrors = append(fr.ScriptErrors, err.Error())
		}
		if b.Opts.Interact {
			for _, ev := range []string{"DOMContentLoaded", "click", "scroll"} {
				if err := realm.FireEvent(ev); err != nil {
					fr.ScriptErrors = append(fr.ScriptErrors, err.Error())
				}
			}
		}
		fr.Invocations = realm.Rec.Invocations
	}
	result.Frames[slot] = *fr

	// Recurse into child frames.
	if fr.Depth >= b.Opts.MaxFrameDepth {
		return
	}
	for _, el := range page.Iframes {
		if len(result.Frames) >= b.Opts.MaxFramesPerPage {
			result.Truncated = true
			return
		}
		if el.Lazy() && !b.Opts.ScrollLazyIframes {
			continue
		}
		b.loadChildFrame(ctx, result, fr, doc, el)
	}
}

// Script is everything the browser derives from one script body: the
// compiled program, or the error that stopped it compiling, and the
// static findings with ScriptURL left for each including frame to
// stamp. A Script is immutable and shared by every frame that includes
// the body.
type Script struct {
	Prog     *script.Compiled
	Err      error
	Findings []static.Finding
}

// scriptFor returns the Script for src, from the ScriptCache when one
// is set. Without a cache it derives the same value for this frame
// alone, so scripts reach a realm one way either way.
func (b *Browser) scriptFor(ctx context.Context, src string) (*Script, error) {
	derive := func() (*Script, int64, error) {
		sc := &Script{Findings: b.static.Analyze(src, "")}
		sc.Prog, sc.Err = script.CompileSource(src)
		return sc, int64(len(src)), nil
	}
	if b.Opts.ScriptCache == nil {
		sc, _, _ := derive()
		return sc, nil
	}
	return b.Opts.ScriptCache.Get(ctx, memo.Sum(src), derive)
}

// sandboxAllowsSameOrigin reports whether a sandbox attribute value
// retains the document's real origin.
func sandboxAllowsSameOrigin(value string) bool {
	for _, tok := range strings.Fields(value) {
		if strings.EqualFold(tok, "allow-same-origin") {
			return true
		}
	}
	return false
}

// loadChildFrame loads one iframe (local-scheme or network) and recurses.
func (b *Browser) loadChildFrame(ctx context.Context, result *PageResult,
	parentFR *FrameResult, parentDoc *policy.Document, el html.Iframe) {
	allowPolicy, _ := policy.ParseAllowAttr(el.Allow)
	depth := parentFR.Depth + 1

	// CSP frame gating of the embedding document.
	if csp := ParseCSP(parentFR.CSPRaw); csp.Present {
		target := el.Src
		if el.HasSrcdoc {
			target = "about:srcdoc"
		}
		if !csp.AllowsFrame(target) {
			return
		}
	}

	if el.HasSrcdoc || origin.IsLocalURL(el.Src) {
		// Local-scheme document: no network request, no headers.
		frameURL := "about:srcdoc"
		body := el.Srcdoc
		if !el.HasSrcdoc {
			frameURL = el.Src
			if frameURL == "" {
				frameURL = "about:blank"
			}
			if strings.HasPrefix(strings.ToLower(frameURL), "data:text/html,") {
				body = frameURL[len("data:text/html,"):]
			}
		}
		fr := &FrameResult{
			URL: frameURL, FinalURL: frameURL, Depth: depth,
			LocalScheme: true, Origin: "null", Element: el,
		}
		childDoc := policy.NewSubframe(parentDoc, policy.FrameSpec{
			Allow:       allowPolicy,
			LocalScheme: true,
		}, b.Opts.Mode)
		result.Frames = append(result.Frames, FrameResult{})
		b.processDocument(ctx, result, len(result.Frames)-1, fr, childDoc, body)
		return
	}

	frameURL := resolveURL(parentFR.FinalURL, el.Src)
	if frameURL == "" {
		return
	}
	srcOrigin, srcErr := origin.Parse(frameURL)
	resp, err := b.Fetcher.Fetch(ctx, frameURL)
	if err != nil || resp.Status >= 400 || srcErr != nil {
		result.Frames = append(result.Frames, FrameResult{
			URL: frameURL, Depth: depth, Element: el,
			LoadError: "frame load failed",
		})
		return
	}
	fr := newFrameResult(frameURL, resp, el, depth)
	docOrigin, err := origin.Parse(resp.FinalURL)
	if err != nil {
		fr.LoadError = "unparseable frame origin"
		result.Frames = append(result.Frames, *fr)
		return
	}
	// X-Frame-Options: the embedded document can refuse to be framed
	// (DENY always; SAMEORIGIN when the embedder is cross-origin).
	if xfo := strings.ToUpper(strings.TrimSpace(resp.Header.Get("X-Frame-Options"))); xfo != "" {
		parentOrigin, perr := origin.Parse(parentFR.FinalURL)
		blocked := xfo == "DENY" ||
			(xfo == "SAMEORIGIN" && (perr != nil || !docOrigin.SameOrigin(parentOrigin)))
		if blocked {
			fr.LoadError = "refused to display (X-Frame-Options: " + xfo + ")"
			result.Frames = append(result.Frames, *fr)
			return
		}
	}
	// A sandbox attribute without allow-same-origin forces an opaque
	// origin: the document matches no allowlist entry (not even 'src'),
	// so default-self features and delegations are all unavailable.
	if el.HasSandbox && !sandboxAllowsSameOrigin(el.Sandbox) {
		docOrigin = origin.NewOpaque(docOrigin.Scheme)
		fr.Origin = "null"
		fr.Site = ""
	}
	declared := b.declaredPolicy(fr)
	childDoc := policy.NewSubframe(parentDoc, policy.FrameSpec{
		SrcOrigin:      srcOrigin,
		DocumentOrigin: docOrigin,
		Allow:          allowPolicy,
		Declared:       declared,
	}, b.Opts.Mode)
	result.Frames = append(result.Frames, FrameResult{})
	b.processDocument(ctx, result, len(result.Frames)-1, fr, childDoc, resp.Body)
}

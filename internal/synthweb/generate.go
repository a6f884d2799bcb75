package synthweb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// SiteKind classifies the fate of a site visit, reproducing the
// crawl-failure taxonomy of §4 (counts out of 1M: 27,733 unreachable,
// 28,700 timeouts, 60,183 ephemeral collection errors, 315 minor
// crawler errors).
type SiteKind uint8

const (
	KindOK SiteKind = iota
	// KindUnreachable: the host does not resolve (ERR_NAME_NOT_RESOLVED).
	KindUnreachable
	// KindTimeout: the server stalls past the crawler deadline.
	KindTimeout
	// KindEphemeral: the response dies mid-body (execution context
	// destroyed analogue).
	KindEphemeral
	// KindMinor: the server speaks garbage, crashing the client parser.
	KindMinor
)

func (k SiteKind) String() string {
	switch k {
	case KindOK:
		return "ok"
	case KindUnreachable:
		return "unreachable"
	case KindTimeout:
		return "timeout"
	case KindEphemeral:
		return "ephemeral"
	case KindMinor:
		return "minor"
	}
	return "unknown"
}

// Category is a coarse site vertical, which modulates widget and script
// inclusion (video sites embed players, news sites embed ads, shops
// embed support chats).
type Category string

const (
	CatBusiness  Category = "business"
	CatBlog      Category = "blog"
	CatNews      Category = "news"
	CatEcommerce Category = "ecommerce"
	CatVideo     Category = "video"
	CatLanding   Category = "landing"
)

var categories = []struct {
	cat    Category
	weight float64
}{
	{CatBusiness, 0.31}, {CatBlog, 0.20}, {CatNews, 0.12},
	{CatEcommerce, 0.15}, {CatVideo, 0.08}, {CatLanding, 0.14},
}

// WidgetInclude is one widget embedding on a site.
type WidgetInclude struct {
	WidgetIndex    int
	WithDelegation bool
	Lazy           bool
}

// Site is one generated website descriptor. It is computed purely from
// (Config.Seed, rank), so the population is reproducible without
// storing anything (C1-C4 of the paper's reproducibility criteria).
type Site struct {
	Rank     int
	Host     string
	Kind     SiteKind
	Category Category

	// Fault is the chaos-layer failure mode injected on top of an
	// otherwise-healthy site (FaultNone when chaos is off or the site
	// was spared). Only KindOK sites carry faults: the polite SiteKind
	// taxonomy already covers the others.
	Fault Fault

	// Headers ("" = absent).
	PermissionsPolicy string
	FeaturePolicy     string
	ReportOnly        string
	CSP               string

	Widgets      []WidgetInclude
	ScriptIdx    []int // indexes into HostScripts
	LocalIframes int   // srcdoc consent/banner frames
	PlainIframes int   // same-site iframes without permission relevance

	// InternalPages lists same-site paths linked from the landing page.
	// Some carry permission functionality the landing page lacks — the
	// beyond-landing-page blind spot of §6.1 (store locators, checkout
	// pages), which the crawler's FollowInternalLinks mode can recover.
	InternalPages []string
}

// URL returns the site's landing page URL.
func (s Site) URL() string { return "https://" + s.Host + "/" }

// Config calibrates the population. Every default is annotated with the
// paper statistic it encodes.
type Config struct {
	Seed     int64
	NumSites int

	UnreachableRate float64 // 27,733/1M
	TimeoutRate     float64 // 28,700/1M
	EphemeralRate   float64 // 60,183/1M
	MinorRate       float64 // 315/1M (rounded up to stay visible at small N)

	TopHeaderRate     float64 // 4.5% of top-level documents serve Permissions-Policy
	BrokenHeaderShare float64 // ≈5.5% of header sites have syntax-invalid headers
	MisconfigShare    float64 // ≈13.4% of header sites have semantic defects
	FPHeaderRate      float64 // ≈0.5% serve the legacy Feature-Policy header
	BothHeadersShare  float64 // small overlap serves both (2,302 sites)

	CSPRate          float64 // share of sites with any CSP
	CSPFrameSrcShare float64 // share of CSP sites restricting frames

	LocalIframeRate float64 // 54.1% of embedded documents are local
	PlainIframeRate float64 // filler iframes to reach 3.2 per framed site

	// Chaos is the fault-injection layer (off by default): hostile
	// server behaviours layered over the polite failure taxonomy.
	Chaos ChaosConfig
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		NumSites: 20000,

		UnreachableRate: 0.0277,
		TimeoutRate:     0.0287,
		EphemeralRate:   0.0602,
		MinorRate:       0.0004,

		TopHeaderRate:     0.045,
		BrokenHeaderShare: 0.055,
		MisconfigShare:    0.134,
		FPHeaderRate:      0.005,
		BothHeadersShare:  0.05,

		CSPRate:          0.12,
		CSPFrameSrcShare: 0.25,

		LocalIframeRate: 0.62,
		PlainIframeRate: 0.55,
	}
}

// tlds gives hosts registrable-domain variety.
var tlds = []string{"com", "com", "com", "net", "org", "de", "co.uk", "io", "fr", "ru", "com.br", "info", "nl", "it", "es"}

// siteSeed decorrelates per-site RNG streams. Feeding consecutive seeds
// straight into rand.NewSource leaves the early draws of neighbouring
// streams correlated (empirically, a fixed draw index across thousands
// of consecutive seeds can avoid whole sub-intervals of [0,1), silently
// zeroing out low-probability events). splitmix64 finalization breaks
// the correlation.
func siteSeed(seed int64, rank int, stream uint64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(rank)*0xBF58476D1CE4E5B9 + stream
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// rngPool recycles the generators Generate and RenderHTML draw from.
// Each wraps a lazySource: reseeding it gives exactly the stream of
// rand.New(rand.NewSource(seed)) but fills only the registers the
// stream reads, about 120 of the 607 for a descriptor and 4 for a
// landing page. NewServer generates every site before a crawl starts,
// and the server renders a landing page on every request.
var rngPool = sync.Pool{New: func() any { return rand.New(newLazySource(0)) }}

// Generate deterministically computes the descriptor for one site rank
// (1-based), reseeding a pooled generator for each stream it reads.
func (c Config) Generate(rank int) Site {
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	return c.generate(rank, func(seed int64) *rand.Rand { rng.Seed(seed); return rng })
}

// generate is Generate drawing each random stream from seeded(seed). It
// reads one stream to its end before asking for the next, so a single
// generator reseeded in place can serve every stream.
func (c Config) generate(rank int, seeded func(seed int64) *rand.Rand) Site {
	rng := seeded(siteSeed(c.Seed, rank, 0x1))
	s := Site{
		Rank: rank,
		Host: fmt.Sprintf("www.site%06d.%s", rank, tlds[rng.Intn(len(tlds))]),
	}

	// Fate.
	switch f := rng.Float64(); {
	case f < c.UnreachableRate:
		s.Kind = KindUnreachable
	case f < c.UnreachableRate+c.TimeoutRate:
		s.Kind = KindTimeout
	case f < c.UnreachableRate+c.TimeoutRate+c.EphemeralRate:
		s.Kind = KindEphemeral
	case f < c.UnreachableRate+c.TimeoutRate+c.EphemeralRate+c.MinorRate:
		s.Kind = KindMinor
	default:
		s.Kind = KindOK
	}

	// Category.
	cw := rng.Float64()
	acc := 0.0
	for _, entry := range categories {
		acc += entry.weight
		if cw < acc {
			s.Category = entry.cat
			break
		}
	}
	if s.Category == "" {
		s.Category = CatLanding
	}

	// Headers.
	if rng.Float64() < c.TopHeaderRate {
		switch h := rng.Float64(); {
		case h < c.BrokenHeaderShare:
			s.PermissionsPolicy = pickTemplate(rng, BrokenHeaders)
		case h < c.BrokenHeaderShare+c.MisconfigShare:
			s.PermissionsPolicy = pickTemplate(rng, MisconfiguredHeaders)
		default:
			s.PermissionsPolicy = pickTemplate(rng, HeaderTemplates)
		}
		if rng.Float64() < c.BothHeadersShare {
			s.FeaturePolicy = pickTemplate(rng, FeaturePolicyHeaders)
		}
		// A small share of header adopters trials report-only mode.
		if rng.Float64() < 0.08 {
			s.ReportOnly = `camera=();report-to=default, microphone=();report-to=default`
		}
	} else if rng.Float64() < c.FPHeaderRate {
		s.FeaturePolicy = pickTemplate(rng, FeaturePolicyHeaders)
	}
	if rng.Float64() < c.CSPRate {
		if rng.Float64() < c.CSPFrameSrcShare {
			s.CSP = "default-src 'self'; frame-src *; script-src *"
		} else {
			s.CSP = "script-src 'self' https:; object-src 'none'"
		}
	}

	// Widgets.
	for i, w := range Catalog {
		p := w.InclusionProb * categoryWidgetBoost(s.Category, w.Category)
		if rng.Float64() >= p {
			continue
		}
		s.Widgets = append(s.Widgets, WidgetInclude{
			WidgetIndex:    i,
			WithDelegation: rng.Float64() < w.DelegationRate,
			Lazy:           w.Lazy && rng.Float64() < 0.7,
		})
	}

	// Host scripts.
	for i, hs := range HostScripts {
		p := hs.InclusionProb * categoryScriptBoost(s.Category, hs.Name)
		if rng.Float64() < p {
			s.ScriptIdx = append(s.ScriptIdx, i)
		}
	}

	// Local and plain iframes.
	if rng.Float64() < c.LocalIframeRate {
		s.LocalIframes = 1 + rng.Intn(3)
	}
	if rng.Float64() < c.PlainIframeRate {
		s.PlainIframes = 1 + rng.Intn(2)
	}

	// Internal pages. Shops get store locators (geolocation fires
	// there, not on the landing page); several verticals link an
	// about/news page without permission relevance.
	if s.Category == CatEcommerce && rng.Float64() < 0.35 {
		s.InternalPages = append(s.InternalPages, "/stores")
	}
	if rng.Float64() < 0.4 {
		s.InternalPages = append(s.InternalPages, "/about")
	}

	// Chaos fault, from its own decorrelated stream so toggling chaos
	// never perturbs the rest of the population.
	if s.Kind == KindOK && c.Chaos.Enabled && c.Chaos.SiteRate > 0 {
		cc := c.Chaos.withDefaults(c.Seed)
		crng := seeded(siteSeed(cc.Seed, rank, 0x7))
		if crng.Float64() < cc.SiteRate {
			kinds := cc.kinds()
			s.Fault = kinds[crng.Intn(len(kinds))]
		}
	}
	return s
}

func pickTemplate(rng *rand.Rand, ts []HeaderTemplate) string {
	total := 0.0
	for _, t := range ts {
		total += t.Weight
	}
	f := rng.Float64() * total
	for _, t := range ts {
		f -= t.Weight
		if f < 0 {
			return t.Value
		}
	}
	return ts[len(ts)-1].Value
}

func categoryWidgetBoost(site Category, widget string) float64 {
	switch {
	case site == CatVideo && widget == "multimedia":
		return 3.0
	case site == CatNews && widget == "ads":
		return 2.2
	case site == CatEcommerce && (widget == "customer-support" || widget == "payment" || widget == "conferencing"):
		return 2.5
	case site == CatBlog && widget == "social":
		return 1.6
	case site == CatLanding:
		return 0.5
	}
	return 1.0
}

func categoryScriptBoost(site Category, script string) float64 {
	switch {
	case site == CatNews && (script == "ads-loader" || script == "push-service"):
		return 2.5
	case site == CatEcommerce && (script == "gated-camera-1p" || script == "geolocation-1p" ||
		script == "webauthn-1p" || script == "gated-obfuscated-1p"):
		return 2.0
	case site == CatVideo && script == "gated-obfuscated-1p":
		return 2.0
	case site == CatVideo && script == "encrypted-media-1p":
		return 3.0
	case site == CatLanding:
		return 0.6
	}
	return 1.0
}

// RenderHTML renders the landing page for a site descriptor.
func (c Config) RenderHTML(s Site) string {
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	return c.renderHTML(s, func(seed int64) *rand.Rand { rng.Seed(seed); return rng })
}

// renderHTML is RenderHTML drawing its random stream from seeded(seed).
func (c Config) renderHTML(s Site, seeded func(seed int64) *rand.Rand) string {
	rng := seeded(siteSeed(c.Seed, s.Rank, 0x2))
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>")
	fmt.Fprintf(&b, "Site %d (%s)", s.Rank, s.Category)
	b.WriteString("</title>\n")

	for _, idx := range s.ScriptIdx {
		hs := HostScripts[idx]
		if hs.URL != "" {
			fmt.Fprintf(&b, "<script src=%q></script>\n", hs.URL)
		} else {
			fmt.Fprintf(&b, "<script>%s</script>\n", hs.Body)
		}
	}
	b.WriteString("</head><body>\n")
	b.WriteString(`<div id="share"></div><div id="copy"></div><div id="call"></div><div id="near-me"></div>` + "\n")

	for _, wi := range s.Widgets {
		w := Catalog[wi.WidgetIndex]
		src := "https://www." + w.Site + w.Path
		attrs := fmt.Sprintf("src=%q id=%q class=%q", src, w.Category+"-frame", "embed "+w.Category)
		if wi.WithDelegation {
			attrs += fmt.Sprintf(" allow=%q", w.AllowTemplate)
		}
		if wi.Lazy {
			attrs += ` loading="lazy"`
		}
		fmt.Fprintf(&b, "<iframe %s></iframe>\n", attrs)
	}
	// Rare explicit directive forms (§4.2.2's tail: 0.40% explicit
	// 'src', 0.15% 'none', 0.16% single origin).
	switch r := rng.Float64(); {
	case r < 0.008:
		b.WriteString(`<iframe src="https://www.playercdn.net/player" allow="autoplay 'src'; fullscreen 'src'"></iframe>` + "\n")
	case r < 0.012:
		b.WriteString(`<iframe src="https://www.playercdn.net/player" allow="gamepad 'none'; autoplay"></iframe>` + "\n")
	case r < 0.016:
		b.WriteString(`<iframe src="https://www.google-maps.com/maps" allow="geolocation https://www.google-maps.com"></iframe>` + "\n")
	}
	for i := 0; i < s.LocalIframes; i++ {
		// Local-scheme documents: srcdoc banners and about:blank shims.
		if rng.Float64() < 0.5 {
			b.WriteString(`<iframe srcdoc="&lt;p&gt;consent banner&lt;/p&gt;" class="consent"></iframe>` + "\n")
		} else {
			b.WriteString(`<iframe src="about:blank" name="shim"></iframe>` + "\n")
		}
	}
	for i := 0; i < s.PlainIframes; i++ {
		fmt.Fprintf(&b, "<iframe src=\"/frame%d.html\" class=\"inhouse\"></iframe>\n", i)
	}
	for _, path := range s.InternalPages {
		fmt.Fprintf(&b, "<a href=%q>%s</a>\n", path, strings.TrimPrefix(path, "/"))
	}
	b.WriteString("<p>Synthetic content.</p></body></html>\n")
	return b.String()
}

// RenderInternalPage renders a linked same-site page.
func (c Config) RenderInternalPage(s Site, path string) (string, bool) {
	found := false
	for _, p := range s.InternalPages {
		if p == path {
			found = true
		}
	}
	if !found {
		return "", false
	}
	switch path {
	case "/stores":
		// The store locator actually uses geolocation on load — visible
		// only to a crawler that leaves the landing page.
		return `<!DOCTYPE html><html><body><h1>Find a store</h1>
<script>
navigator.geolocation.getCurrentPosition(function (pos) {
	var near = pos.coords.latitude;
}, function () {});
</script></body></html>`, true
	default:
		return `<!DOCTYPE html><html><body><h1>About us</h1><p>Nothing to see.</p></body></html>`, true
	}
}

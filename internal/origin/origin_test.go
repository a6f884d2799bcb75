package origin

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	tests := []struct {
		raw  string
		want string
	}{
		{"https://example.com", "https://example.com"},
		{"https://example.com/", "https://example.com"},
		{"https://example.com:443/path?q=1", "https://example.com"},
		{"https://example.com:8443", "https://example.com:8443"},
		{"http://example.com:80", "http://example.com"},
		{"http://Example.COM/Path", "http://example.com"},
		{"//cdn.example.com/lib.js", "https://cdn.example.com"},
		{"example.com", "https://example.com"},
		{"example.com:444", "https://example.com:444"},
		{"data:text/html,<h1>hi</h1>", "null"},
		{"about:blank", "null"},
		{"about:srcdoc", "null"},
		{"blob:https://example.com/uuid", "null"},
		{"javascript:void(0)", "null"},
		{"", ""},
	}
	for _, tt := range tests {
		o, err := Parse(tt.raw)
		if tt.want == "" {
			if err == nil {
				t.Errorf("Parse(%q): expected error, got %v", tt.raw, o)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.raw, err)
			continue
		}
		if got := o.String(); got != tt.want {
			t.Errorf("Parse(%q) = %q; want %q", tt.raw, got, tt.want)
		}
	}
}

func TestSameOrigin(t *testing.T) {
	a := MustParse("https://example.com")
	b := MustParse("https://example.com:443/other")
	if !a.SameOrigin(b) {
		t.Error("default port should normalize to same origin")
	}
	c := MustParse("http://example.com")
	if a.SameOrigin(c) {
		t.Error("scheme differs: not same origin")
	}
	d := MustParse("https://example.com:8443")
	if a.SameOrigin(d) {
		t.Error("port differs: not same origin")
	}
	e := MustParse("https://www.example.com")
	if a.SameOrigin(e) {
		t.Error("host differs: not same origin")
	}
}

// TestNewOpaqueConcurrent mints opaque origins from concurrent
// goroutines, as parallel crawl workers do for sandboxed frames: every
// ID must be distinct, and under -race the counter must not race.
func TestNewOpaqueConcurrent(t *testing.T) {
	const goroutines, each = 8, 500
	ids := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ids[g] = append(ids[g], NewOpaque("https").Opaque)
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool, goroutines*each)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("opaque origin ID %d minted twice", id)
			}
			seen[id] = true
		}
	}
}

func TestOpaqueOrigins(t *testing.T) {
	o1 := NewOpaque("data")
	o2 := NewOpaque("data")
	if !o1.IsOpaque() || !o2.IsOpaque() {
		t.Fatal("NewOpaque must produce opaque origins")
	}
	if o1.SameOrigin(o2) {
		t.Error("distinct opaque origins must not be same-origin")
	}
	if !o1.SameOrigin(o1) {
		t.Error("an opaque origin is same-origin with itself")
	}
	parsed := MustParse("data:text/html,x")
	if parsed.SameOrigin(parsed) {
		t.Error("Parse-produced opaque origin (ID 0) must not even equal itself")
	}
	if o1.Site() != "" {
		t.Error("opaque origins have no site")
	}
	if o1.SameSite(o1) {
		t.Error("opaque origins are never same-site")
	}
	if o1.String() != "null" {
		t.Errorf("opaque origin serializes as null, got %q", o1.String())
	}
}

func TestSameSite(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"https://www.example.com", "https://api.example.com", true},
		{"https://example.com", "http://example.com", true}, // schemeless site
		{"https://example.com", "https://example.org", false},
		{"https://a.github.io", "https://b.github.io", false},
		{"https://example.com:8443", "https://example.com", true},
	}
	for _, tt := range tests {
		a, b := MustParse(tt.a), MustParse(tt.b)
		if got := a.SameSite(b); got != tt.want {
			t.Errorf("SameSite(%q, %q) = %v; want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestIsLocalURL(t *testing.T) {
	tests := []struct {
		raw  string
		want bool
	}{
		{"about:blank", true},
		{"data:text/html,hello", true},
		{"blob:https://x.com/u", true},
		{"javascript:alert(1)", true},
		{"", true},
		{"https://example.com", false},
		{"example.com", false},
		{"DATA:text/plain,x", true},
	}
	for _, tt := range tests {
		if got := IsLocalURL(tt.raw); got != tt.want {
			t.Errorf("IsLocalURL(%q) = %v; want %v", tt.raw, got, tt.want)
		}
	}
}

func TestSiteOfURL(t *testing.T) {
	if got := SiteOfURL("https://sub.widget.example.co.uk/embed?x=1"); got != "example.co.uk" {
		t.Errorf("SiteOfURL = %q", got)
	}
	if got := SiteOfURL("data:text/html,x"); got != "" {
		t.Errorf("local URL has no site, got %q", got)
	}
	if got := SiteOfURL("::::"); got != "" {
		t.Errorf("unparseable URL has no site, got %q", got)
	}
}

// Property: SameOrigin and SameSite are symmetric, and SameOrigin implies
// SameSite for non-opaque origins with a registrable domain.
func TestRelationProperties(t *testing.T) {
	pool := []string{
		"https://example.com", "https://www.example.com",
		"http://example.com", "https://example.com:8443",
		"https://other.org", "https://a.github.io", "https://b.github.io",
	}
	sym := func(i, j uint8) bool {
		a := MustParse(pool[int(i)%len(pool)])
		b := MustParse(pool[int(j)%len(pool)])
		return a.SameOrigin(b) == b.SameOrigin(a) && a.SameSite(b) == b.SameSite(a)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error(err)
	}
	implies := func(i uint8) bool {
		a := MustParse(pool[int(i)%len(pool)])
		if a.Site() == "" {
			return true
		}
		return a.SameSite(a)
	}
	if err := quick.Check(implies, nil); err != nil {
		t.Error(err)
	}
}

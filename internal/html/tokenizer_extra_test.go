package html

import (
	"strings"
	"testing"
)

// TestRawTextPathological is the indexFold regression: a megabyte
// <script> body made entirely of near-miss "</scrip" prefixes used to
// cost an O(n·m) EqualFold scan per byte; the first-byte IndexByte skip
// must both stay correct and stay fast enough for the suite's normal
// timeout to be the only guard.
func TestRawTextPathological(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<script>")
	for sb.Len() < 1<<20 {
		sb.WriteString("</scrip")
	}
	body := sb.String()[len("<script>"):]
	sb.WriteString("</script><p>after</p>")
	doc := Parse(sb.String())
	scripts := Scripts(doc)
	if len(scripts) != 1 {
		t.Fatalf("scripts: %d", len(scripts))
	}
	if scripts[0].Body != body {
		t.Errorf("pathological body mangled: len %d want %d", len(scripts[0].Body), len(body))
	}
	if doc.First("p") == nil {
		t.Error("parsing must resume after the pathological script")
	}
}

// TestRawTextPathologicalUppercaseClose mixes cases so the skip must
// consider both first-byte spellings of the close tag.
func TestRawTextPathologicalUppercaseClose(t *testing.T) {
	body := strings.Repeat("x</SCRIP", 4096)
	doc := Parse("<script>" + body + "</SCRIPT><div id=\"d\"></div>")
	scripts := Scripts(doc)
	if len(scripts) != 1 || scripts[0].Body != body {
		t.Fatalf("uppercase close lost: %d scripts", len(scripts))
	}
	if doc.First("div") == nil {
		t.Error("parsing must resume after </SCRIPT>")
	}
}

func TestIndexFold(t *testing.T) {
	tests := []struct {
		haystack, needle string
		want             int
	}{
		{"", "", 0},
		{"abc", "", 0},
		{"", "a", -1},
		{"abc", "b", 1},
		{"abc", "B", 1},
		{"ABC", "b", 1},
		{"xxab", "ab", 2},
		{"xxAb", "aB", 2},
		{"</scrip</scrip</script>", "</script", 14},
		{"aaaa", "aaab", -1},
		{"ab", "abc", -1},
		{"zzza", "a", 3},
		{"ZzzA", "a", 3}, // 'Z' folds to 'z', not 'a'
	}
	for _, tt := range tests {
		if got := indexFold(tt.haystack, tt.needle); got != tt.want {
			t.Errorf("indexFold(%q, %q) = %d; want %d", tt.haystack, tt.needle, got, tt.want)
		}
	}
	// Cross-check against the brute-force definition on a generated set.
	for i := 0; i < 200; i++ {
		h := strings.Repeat("</scrip", i%13+1) + "</ScRiPt>"
		want := -1
		for j := 0; j+len("</script") <= len(h); j++ {
			if strings.EqualFold(h[j:j+len("</script")], "</script") {
				want = j
				break
			}
		}
		if got := indexFold(h, "</script"); got != want {
			t.Fatalf("indexFold brute-force mismatch on %q: %d vs %d", h, got, want)
		}
	}
}

// TestNumericCharrefSpec pins the HTML-spec numeric character reference
// corners: NUL, surrogates, and out-of-range values all decode to
// U+FFFD — never a NUL byte, never a raw passthrough.
func TestNumericCharrefSpec(t *testing.T) {
	tests := []struct{ in, want string }{
		{"&#0;", "�"},
		{"&#x0;", "�"},
		{"&#xD800;", "�"},            // low surrogate bound
		{"&#xDBFF;", "�"},            // inside the surrogate range
		{"&#xDFFF;", "�"},            // high surrogate bound
		{"&#55296;", "�"},            // 0xD800 in decimal
		{"&#x110000;", "�"},          // one past the Unicode range
		{"&#x7FFFFFFF;", "�"},        // would overflow a rune without the clamp
		{"&#99999999999;", "�"},      // long decimal run, clamped
		{"&#xD7FF;", "퟿"},            // just below the surrogates: decodes
		{"&#xE000;", ""},            // just above the surrogates: decodes
		{"&#x10FFFF;", "\U0010FFFF"}, // the last valid code point
		{"&#65;&#x42;", "AB"},        // ordinary references still work
		{"&#;", "&#;"},               // no digits: not a reference
		{"&#x;", "&#x;"},             // no hex digits: not a reference
		{"&#xG;", "&#xG;"},           // bad digit: passthrough
		{"a&#0;b&#xD800;c", "a�b�c"},
	}
	for _, tt := range tests {
		if got := DecodeEntities(tt.in); got != tt.want {
			t.Errorf("DecodeEntities(%q) = %q; want %q", tt.in, got, tt.want)
		}
	}
	// The decoded attribute path must agree.
	doc := Parse(`<div a="&#0;&#xD800;">`)
	if v, _ := doc.First("div").Attr("a"); v != "��" {
		t.Errorf("attribute charref: %q", v)
	}
}

// TestTokenizerLowersNames: tag and attribute names come out of the
// tokenizer lower-cased, whatever their spelling, and a name that is
// already lowercase comes back unchanged.
func TestTokenizerLowersNames(t *testing.T) {
	tests := []struct{ src, tag, key string }{
		{`<div id=x>`, "div", "id"},
		{`<DIV ID=x>`, "div", "id"},
		{`<IfRaMe AlLoW=x>`, "iframe", "allow"},
		{`<data-custom-thing data-custom-attr=x>`, "data-custom-thing", "data-custom-attr"},
		{`<DATA-CUSTOM DATA-SRC=x>`, "data-custom", "data-src"},
		{`<averyveryverylongtagnamethatexceedsthebuffer AVERYVERYVERYLONGATTRIBUTENAME=x>`,
			"averyveryverylongtagnamethatexceedsthebuffer", "averyveryverylongattributename"},
	}
	for _, tt := range tests {
		z := NewTokenizer(tt.src + "</" + strings.ToUpper(tt.tag) + ">")
		start := z.Next()
		if start.Type != StartTagToken || start.Tag != tt.tag || len(start.Attrs) != 1 || start.Attrs[0].Key != tt.key {
			t.Errorf("%q: start tag %+v; want <%s %s=x>", tt.src, start, tt.tag, tt.key)
		}
		if end := z.Next(); end.Type != EndTagToken || end.Tag != tt.tag {
			t.Errorf("%q: end tag %+v; want </%s>", tt.src, end, tt.tag)
		}
	}
}

func BenchmarkRawTextPathological(b *testing.B) {
	src := "<script>" + strings.Repeat("</scrip", 1<<17) + "</script>"
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Extract(src)
	}
}

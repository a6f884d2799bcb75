package header

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestParseDictionaryPermissionsPolicyShapes(t *testing.T) {
	// Shapes that real Permissions-Policy headers take.
	d, err := ParseDictionary(`camera=(), geolocation=(self "https://iframe.com"), fullscreen=*`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(d.Members) != 3 {
		t.Fatalf("got %d members", len(d.Members))
	}
	cam, ok := d.Get("camera")
	if !ok || !cam.IsInner || len(cam.Inner) != 0 {
		t.Errorf("camera=() should be an empty inner list: %+v", cam)
	}
	geo, _ := d.Get("geolocation")
	if !geo.IsInner || len(geo.Inner) != 2 {
		t.Fatalf("geolocation: %+v", geo)
	}
	if geo.Inner[0].Kind != KindToken || geo.Inner[0].Token != "self" {
		t.Errorf("first geolocation entry: %+v", geo.Inner[0])
	}
	if geo.Inner[1].Kind != KindString || geo.Inner[1].String != "https://iframe.com" {
		t.Errorf("second geolocation entry: %+v", geo.Inner[1])
	}
	fs, _ := d.Get("fullscreen")
	if fs.IsInner || fs.Item.Kind != KindToken || fs.Item.Token != "*" {
		t.Errorf("fullscreen=*: %+v", fs)
	}
}

func TestParseDictionaryBareKey(t *testing.T) {
	d, err := ParseDictionary("a, b;x=1, c=?0")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, _ := d.Get("a")
	if a.Item.Kind != KindBoolean || !a.Item.Boolean {
		t.Errorf("bare key must be boolean true: %+v", a)
	}
	b, _ := d.Get("b")
	if len(b.Item.Params) != 1 || b.Item.Params[0].Key != "x" ||
		b.Item.Params[0].Value.Integer != 1 {
		t.Errorf("params: %+v", b)
	}
	c, _ := d.Get("c")
	if c.Item.Kind != KindBoolean || c.Item.Boolean {
		t.Errorf("?0 must parse false: %+v", c)
	}
}

func TestParseDictionaryDuplicateKeysLastWins(t *testing.T) {
	d, err := ParseDictionary("camera=(self), camera=()")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cam, _ := d.Get("camera")
	if len(cam.Inner) != 0 {
		t.Errorf("last duplicate must win: %+v", cam)
	}
}

func TestParseDictionaryNumbersDecimalsStrings(t *testing.T) {
	d, err := ParseDictionary(`n=-42, f=3.5, s="a\"b\\c"`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n, _ := d.Get("n")
	if n.Item.Integer != -42 {
		t.Errorf("n: %+v", n)
	}
	f, _ := d.Get("f")
	if f.Item.Kind != KindDecimal || f.Item.Decimal != 3.5 {
		t.Errorf("f: %+v", f)
	}
	s, _ := d.Get("s")
	if s.Item.String != `a"b\c` {
		t.Errorf("s: %q", s.Item.String)
	}
	// The longest numbers RFC 8941 allows still parse.
	d, err = ParseDictionary("i=-999999999999999, f=999999999999.999")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if i, _ := d.Get("i"); i.Item.Integer != -999999999999999 {
		t.Errorf("i: %+v", i)
	}
	if f, _ := d.Get("f"); f.Item.Kind != KindDecimal || f.Item.Decimal != 999999999999.999 {
		t.Errorf("f: %+v", f)
	}
}

func TestParseDictionarySyntaxErrors(t *testing.T) {
	// Every one of these must fail, because the browser drops the whole
	// header for them (paper §4.3.3).
	bad := []string{
		"camera=(self,",                   // unterminated inner list
		"camera=(self), ",                 // trailing comma
		"camera=(self) geolocation=()",    // missing comma
		"Camera=()",                       // uppercase key
		`geolocation=(self "unterminated`, // unterminated string
		"camera=(self 'none')",            // single quotes are FP syntax, not SF
		"camera self; geolocation 'none'", // whole header in FP syntax
		"camera=(?2)",                     // bad boolean
		"=()",                             // missing key
		"camera=((self))",                 // nested inner list
		"camera=(self\x01)",               // control character
		"a=1.",                            // decimal without fractional digits
		"a=-.5",                           // no digit after the sign
		"a=0.1234",                        // more than 3 fractional digits
		"a=1234567890123456",              // integer over 15 digits
	}
	for _, field := range bad {
		if _, err := ParseDictionary(field); err == nil {
			t.Errorf("ParseDictionary(%q): expected error", field)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("ParseDictionary(%q): error %v is not *SyntaxError", field, err)
			}
		}
	}
}

func TestParseDictionaryEmpty(t *testing.T) {
	if _, err := ParseDictionary(""); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty field: got %v", err)
	}
	if _, err := ParseDictionary("   "); !errors.Is(err, ErrEmpty) {
		t.Errorf("whitespace field: got %v", err)
	}
}

func TestInnerListParams(t *testing.T) {
	d, err := ParseDictionary(`camera=(self "https://x.com");report-to=endpoint`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cam, _ := d.Get("camera")
	if len(cam.Params) != 1 || cam.Params[0].Key != "report-to" {
		t.Errorf("inner-list params: %+v", cam.Params)
	}
}

func TestSerializeItemRoundTrip(t *testing.T) {
	items := []Item{
		{Kind: KindToken, Token: "self"},
		{Kind: KindToken, Token: "*"},
		{Kind: KindString, String: `https://a.com`},
		{Kind: KindString, String: `quote " and backslash \`},
		{Kind: KindInteger, Integer: -7},
		{Kind: KindDecimal, Decimal: 2.5},
		{Kind: KindDecimal, Decimal: 1},
		{Kind: KindDecimal, Decimal: math.Copysign(0, -1)},
		{Kind: KindBoolean, Boolean: false},
		{Kind: KindToken, Token: "a", Params: []Param{{Key: "p", Value: Item{Kind: KindDecimal, Decimal: 1}}}},
	}
	for _, it := range items {
		text := SerializeItem(it)
		d, err := ParseDictionary("k=" + text)
		if err != nil {
			t.Errorf("round trip parse of %q: %v", text, err)
			continue
		}
		got, _ := d.Get("k")
		if !reflect.DeepEqual(got.Item, it) {
			t.Errorf("round trip %q: got %+v want %+v", text, got.Item, it)
		}
	}
}

// Property: parsing never panics and either returns a dictionary with at
// least one member or an error.
func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		d, err := ParseDictionary(s)
		return err != nil || len(d.Members) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParseDictionary(b *testing.B) {
	field := `accelerometer=(),autoplay=(self),camera=(),encrypted-media=(self "https://youtube.com"),fullscreen=*,geolocation=(self),gyroscope=(),magnetometer=(),microphone=(),midi=(),payment=(),picture-in-picture=*,sync-xhr=(self),usb=()`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDictionary(field); err != nil {
			b.Fatal(err)
		}
	}
}

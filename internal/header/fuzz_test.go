package header

import (
	"reflect"
	"testing"
)

// FuzzParseDictionary: the dictionary parser never panics, and every
// item of a dictionary it accepts — member items, inner-list items and
// every parameter value — serializes (SerializeItem) to text that
// parses back to an equal item.
func FuzzParseDictionary(f *testing.F) {
	seeds := []string{
		// sf_test.go inputs.
		`camera=(), geolocation=(self "https://iframe.com"), fullscreen=*`,
		"a, b;x=1, c=?0",
		"camera=(self), camera=()",
		`n=-42, f=3.5, s="a\"b\\c"`,
		`camera=(self "https://x.com");report-to=endpoint`,
		"camera=(self,",
		"camera=(self), ",
		"camera=(self) geolocation=()",
		"Camera=()",
		`geolocation=(self "unterminated`,
		"camera=(self 'none')",
		"camera self; geolocation 'none'",
		"camera=(?2)",
		"=()",
		"camera=((self))",
		"camera=(self\x01)",
		"",
		"   ",
		// The policy package's header tables.
		`camera=(), geolocation=(self "https://maps.example"), fullscreen=*, payment=self`,
		"camera 'self'; geolocation 'none'",
		"geolocation https://x.com; camera *",
		"camera=(), geolocation=(self),",
		"camera=(none)",
		"camera=(0)",
		"camera=(https://x.com)",
		"camera=(self *)",
		`camera=("not a url%%%")`,
		`camera=("data:text/html,x")`,
		"made-up-thing=()",
		`camera=(), geolocation=(self "https://a.example" "https://b.example"), payment=(self)`,
		// Integral decimals, which once serialized as integers.
		"a;p=1.0, d=1.0, z=-0.0, i=(1.50 -2.0);q=0.0",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, field string) {
		d, err := ParseDictionary(field)
		if err != nil {
			return
		}
		roundTrip := func(it Item) {
			text := SerializeItem(it)
			again, err := ParseDictionary("k=" + text)
			if err != nil {
				t.Fatalf("%q: item %+v serializes to %q, which does not parse: %v", field, it, text, err)
			}
			if got := again.Members[0].Item; !reflect.DeepEqual(got, it) {
				t.Fatalf("%q: item %+v serializes to %q, which parses to %+v", field, it, text, got)
			}
		}
		params := func(ps []Param) {
			for _, p := range ps {
				roundTrip(p.Value)
			}
		}
		for _, m := range d.Members {
			if !m.IsInner {
				roundTrip(m.Item)
				params(m.Item.Params)
				continue
			}
			for _, it := range m.Inner {
				roundTrip(it)
				params(it.Params)
			}
			params(m.Params)
		}
	})
}

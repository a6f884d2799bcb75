package diskcache

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// manifestSeeds are lines from a real chaos-crawl manifest (successes
// with headers, archived failures with their re-store generations),
// plus the debris and hostile input a reader must survive: a torn tail,
// a duplicate URL, success lines whose hash is not a digest, and pack
// references the writer never makes — names with separators, dot-dots,
// no digits or too many, negative offsets and sizes, and ranges near
// MaxInt64.
var manifestSeeds = []string{
	`{"url":"https://www.site000009.io/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":648,"status":200,"header":{"Content-Length":["648"],"Content-Type":["text/html"],"Date":["Sun, 18 Oct 2026 03:34:30 GMT"]},"final_url":"https://www.site000009.io/","gen":1}` + "\n",
	`{"url":"https://www.2mdn.net/creative","hash":"1ba81ac745ce67354b015488c8d4875101c40d06f078f387091291096cd5bb96","size":506,"status":200,"header":{"Content-Length":["506"],"Content-Type":["text/html"],"Permissions-Policy":["ch-ua=*, ch-ua-arch=*, ch-ua-mobile=*"]},"final_url":"https://www.2mdn.net/creative","gen":1}` + "\n",
	`{"url":"https://www.site000003.net/","failure_class":"unreachable","failure_msg":"Get \"https://www.site000003.net/\": lookup www.site000003.net: no such host","gen":1}` + "\n" +
		`{"url":"https://stats.metricscdn.net/analytics.js","failure_class":"ephemeral","failure_msg":"reading https://stats.metricscdn.net/analytics.js: read tcp 127.0.0.1:44578-\u003e127.0.0.1:46613: read: connection reset by peer","gen":2}` + "\n",
	`{"url":"https://www.site000004.de/","hash":"3a8f6730981dae6a9d7e92a21976d0fdef0882080948b55d70b89cf9e0a5c44b","size":4194304,"status":200,"header":{"Content-Type":["text/html"]},"final_url":"https://www.site000004.de/","body_truncated":true,"gen":1}` + "\n",
	`{"url":"https://ok.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":648,"gen":1}` + "\n" + `{"url":"https://torn.test/","hash":"ab`,
	`{"url":"https://dup.test/","failure_class":"timeout","gen":1}` + "\n" + `{"url":"https://dup.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":648,"gen":2}` + "\n",
	`{"url":"https://crafted.test/","hash":"a","size":1}` + "\n",
	`{"url":"https://crafted.test/","hash":"../../../victim.txt","size":8}` + "\n",
	"!!not json!!\n\n",
	`{"url":"https://www.site000001.com/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":648,"pack":"3.pack","offset":1048576,"status":200,"gen":2}` + "\n",
	`{"url":"https://p.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":8,"pack":"../../../victim.txt"}` + "\n" +
		`{"url":"https://q.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":8,"pack":"1.pack/../../x.pack"}` + "\n",
	`{"url":"https://p.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":8,"pack":"","offset":5}` + "\n" +
		`{"url":"https://q.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":8,"pack":".pack"}` + "\n",
	`{"url":"https://p.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":8,"pack":"1234567890.pack"}` + "\n" +
		`{"url":"https://q.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":8,"pack":"999999999.pack"}` + "\n",
	`{"url":"https://p.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":8,"pack":"1.pack","offset":-1}` + "\n" +
		`{"url":"https://q.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":-8,"pack":"1.pack"}` + "\n",
	`{"url":"https://p.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":9223372036854775807,"pack":"1.pack","offset":9223372036854775807}` + "\n" +
		`{"url":"https://q.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":16,"pack":"1.pack","offset":9223372036854775800}` + "\n",
	`{"url":"https://p.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":8,"pack":"01.pack"}` + "\n" +
		`{"url":"https://q.test/","hash":"d2ab8b7d48b059189d96e3ae14525068ea250b2ff1e2a1500dc9efbeacaa5c7a","size":8,"pack":"+1.pack"}` + "\n",
}

// packRef is the form of every pack reference the writer makes:
// packName of a number from 1 to maxPack.
var packRef = regexp.MustCompile(`^[1-9][0-9]{0,8}\.pack$`)

// FuzzManifest: the manifest reader never panics, accounts for every
// newline-terminated line as an entry or a corrupt line, flags a final
// line without a newline as torn, admits only digest-shaped hashes and
// pack references of the writer's form (a packRef name, offset and
// size non-negative, and no offset without a pack), and reads back
// what the compaction encoder writes from its entries.
func FuzzManifest(f *testing.F) {
	for _, s := range manifestSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, ls, err := readManifest(strings.NewReader(src))
		if err != nil {
			t.Fatalf("readManifest: %v", err)
		}
		if nl := strings.Count(src, "\n"); ls.lines+ls.corrupt != nl {
			t.Errorf("%d entries + %d corrupt lines, want %d (one per newline)", ls.lines, ls.corrupt, nl)
		}
		if torn := src != "" && !strings.HasSuffix(src, "\n"); ls.torn != torn {
			t.Errorf("torn = %v, want %v", ls.torn, torn)
		}
		if len(m) != ls.lines-ls.dups {
			t.Errorf("%d URLs from %d lines with %d duplicates", len(m), ls.lines, ls.dups)
		}
		for url, e := range m {
			if e.URL != url || url == "" {
				t.Errorf("entry %q filed under %q", e.URL, url)
			}
			if e.Hash != "" && !validHash(e.Hash) {
				t.Errorf("entry %q admitted hash %q", url, e.Hash)
			}
			if (e.Pack != "" && !packRef.MatchString(e.Pack)) || e.Offset < 0 || e.Size < 0 || (e.Pack == "" && e.Offset != 0) {
				t.Errorf("entry %q admitted body reference pack %q, offset %d, size %d", url, e.Pack, e.Offset, e.Size)
			}
		}

		var buf bytes.Buffer
		if err := writeManifest(&buf, m); err != nil {
			t.Fatalf("writeManifest: %v", err)
		}
		back, bls, err := readManifest(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if !bls.clean() || len(back) != len(m) {
			t.Fatalf("re-read %d of %d entries, stats %+v", len(back), len(m), bls)
		}
		for url, e := range m {
			// Compare encodings: JSON cannot tell a nil header from an
			// empty one, and neither can the archive.
			want, _ := json.Marshal(e)
			got, _ := json.Marshal(back[url])
			if !bytes.Equal(got, want) {
				t.Errorf("round trip changed %q:\n got %s\nwant %s", url, got, want)
			}
		}
	})
}

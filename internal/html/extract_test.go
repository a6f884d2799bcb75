package html

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// extractCorpus is the shared set of documents Extract must agree on
// with the wrappers over Parse — tag soup, raw text, self-closing
// frames, every edge the wrappers tolerate.
var extractCorpus = []string{
	"",
	"plain text only",
	`<!DOCTYPE html><html><head><title>Hi</title></head><body><p>x</p></body></html>`,
	`<iframe id="chat" name="lc" class="widget corner" src="https://widget.example/embed"
	  allow="clipboard-read; microphone *; camera *" loading="lazy"></iframe>
	 <iframe srcdoc="&lt;p&gt;local&lt;/p&gt;" allow=""></iframe>
	 <iframe src="about:blank" sandbox></iframe>`,
	`<script src="https://cdn.example/lib.js"></script><script>inline()</script>`,
	`<script src="  "></script>`, // whitespace src: inline, not external
	`<script>   </script>`,       // whitespace body collapses to ""
	`<script/>`,
	`<SCRIPT>var x = 1;</ScRiPt><div id="d"></div>`,
	`<script>if (a < b && x > y) { q("<iframe src='https://x.example'></iframe>"); }</script><p>after</p>`,
	`<script>never closed`,
	`<a href="/stores">Stores</a><a href="https://other.example/x">External</a><a>no href</a><a href="  /spaced  ">spaced</a>`,
	`<div><iframe src="/a"/><p>after</p></div>`,
	`<div><span>text</div></span><p>tail</p>`,
	`<div><p>unclosed`,
	`</stray><div></div>`,
	`<div attr=<<>>`,
	`<`,
	`<div a='x`,
	`<!-- unterminated comment`,
	`<div>a<b>c</div>d</b>`,
	`<noscript><a href="/hidden">x</a><iframe src="/h"></iframe></noscript><a href="/seen">y</a>`,
	`<title>a < b</title><iframe src="/t"></iframe>`,
	`<IFRAME SRC="/UP" ALLOW="camera"></IFRAME>`,
	`<div><iframe src="/outer"><iframe src="/inner"></iframe></iframe></div>`,
	// A near-miss close tag leaves the script open: its body takes the
	// text (and only the text) of whatever follows until </script>.
	`<script>a</scripts>b<p>c</p>d</script>e`,
	`<div><script>x</scripts>y</div>z<script>w</script>`,
	`<script>a</scriptx><script>b</script>c</script>`,
	// Data blocks are neither listed nor collect a body; scripts around
	// and inside them still do.
	`<script type="application/ld+json">{"a": 1}</script><script>run()</script>`,
	`<script type="text/template"><iframe src="/tpl"></iframe></script><script type="text/plain" src="/data.txt"></script>`,
	`<script>a</scripts><script type="text/plain">b</script>c</script>`,
	`<script type="module" src="/m.js"></script><script type=" TEXT/JavaScript ">a()</script><script type="">b()</script><script type="  ">c()</script>`,
	`<script language="javascript">d()</script><script language="vbscript">e()</script><script language="">f()</script><script type="text/javascript" language="vbscript">g()</script>`,
}

// TestExtractMatchesWrappers pins Extract to the reference: the three
// lists it reads in one tokenizer pass must equal what the Iframes,
// Scripts and Links walks read from Parse's tree.
func TestExtractMatchesWrappers(t *testing.T) {
	for i, src := range extractCorpus {
		tree := Parse(src)
		want := Doc{Iframes: Iframes(tree), Scripts: Scripts(tree), Links: Links(tree)}
		if got := Extract(src); !reflect.DeepEqual(got, want) {
			t.Errorf("case %d %q:\n Extract:  %+v\n wrappers: %+v", i, src, got, want)
		}
	}
}

// TestScriptDataBlocks: a script element runs only with no type, an
// empty type, a JavaScript MIME type or "module" (without a type, a
// language attribute names one); every other type makes it a data
// block, which neither Extract nor the Scripts walk lists.
func TestScriptDataBlocks(t *testing.T) {
	tests := []struct {
		src  string
		want []Script
	}{
		{`<script type="application/ld+json">{"@type": "Organization"}</script>`, nil},
		{`<script type="text/template"><p>{{name}}</p></script>`, nil},
		{`<script type="text/plain" src="/notes.txt"></script>`, nil},
		{`<script type="importmap">{"imports": {}}</script>`, nil},
		{`<script type="text/javascript; charset=utf-8">a()</script>`, nil},
		{`<script type="  ">a()</script>`, nil},
		{`<script language="vbscript">a()</script>`, nil},
		{`<script>a()</script>`, []Script{{Body: "a()", Inline: true}}},
		{`<script type="">a()</script>`, []Script{{Body: "a()", Inline: true}}},
		{`<script type=" Text/JavaScript ">a()</script>`, []Script{{Body: "a()", Inline: true}}},
		{`<script type="application/x-javascript">a()</script>`, []Script{{Body: "a()", Inline: true}}},
		{`<script type="module" src="/m.js"></script>`, []Script{{Src: "/m.js"}}},
		{`<script language="JavaScript1.5">a()</script>`, []Script{{Body: "a()", Inline: true}}},
		{`<script language="">a()</script>`, []Script{{Body: "a()", Inline: true}}},
		{`<script type="text/javascript" language="vbscript">a()</script>`, []Script{{Body: "a()", Inline: true}}},
	}
	for _, tt := range tests {
		if got := Extract(tt.src).Scripts; !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Extract(%q).Scripts = %+v; want %+v", tt.src, got, tt.want)
		}
		if got := Scripts(Parse(tt.src)); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Scripts(Parse(%q)) = %+v; want %+v", tt.src, got, tt.want)
		}
	}
}

// TestParsedDocImmutableUnderConcurrency is the immutability audit: one
// shared Doc read by many goroutines while they extract the same source
// again must never race (the -race CI run enforces it) and must read
// identically throughout.
func TestParsedDocImmutableUnderConcurrency(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, `<div class="row"><iframe src="/f%d" allow="camera"></iframe><script>go%d()</script><a href="/l%d">x</a></div>`, i, i, i)
	}
	src := sb.String()
	shared := Extract(src)
	want := Iframes(Parse(src))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !reflect.DeepEqual(shared.Iframes, want) || !reflect.DeepEqual(Extract(src), shared) {
					t.Error("concurrent reads saw a different document")
					return
				}
				if len(shared.Scripts) != 40 || len(shared.Links) != 40 {
					t.Error("extractions changed under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
}

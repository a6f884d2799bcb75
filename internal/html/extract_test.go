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

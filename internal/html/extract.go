package html

import (
	"strings"
	"sync"
)

// Doc is everything the crawl reads from one document: the iframe
// attribute lists (§3.1.2), the inline and external scripts (§3.1.1),
// and the anchor targets for internal-page crawling (§6.1), each in
// document order. Its strings are substrings of the source wherever no
// entity needed decoding, so a Doc keeps its source alive. A Doc is
// never mutated after Extract returns and may be shared freely.
type Doc struct {
	Iframes []Iframe
	Scripts []Script
	Links   []string
}

// openElem is one element on Extract's open-element stack. script is
// the Doc.Scripts index of an open inline script (else -1), and from
// the number of script text tokens seen before it opened.
type openElem struct {
	tag    string
	script int
	from   int
}

// extractState is Extract's scratch: the open-element stack and the
// text tokens seen while an inline script is open, pooled across calls.
type extractState struct {
	open  []openElem
	texts []string
}

var extractPool = sync.Pool{New: func() any { return &extractState{} }}

// Extract returns the iframes, scripts and links of src in one
// tokenizer pass, exactly as Iframes, Scripts and Links read them from
// Parse(src). It keeps Parse's open-element stack as tag names only:
// an inline script's body is every non-blank text token emitted while
// it is open, which is the text its subtree would hold.
func Extract(src string) Doc {
	var d Doc
	st := extractPool.Get().(*extractState)
	open, texts := st.open[:0], st.texts[:0]
	defer func() {
		clear(open[:cap(open)])
		clear(texts[:cap(texts)])
		st.open, st.texts = open[:0], texts[:0]
		extractPool.Put(st)
	}()
	inline := 0 // inline scripts on the stack
	// closeTo pops the stack down to n elements, finishing the bodies of
	// the inline scripts it pops.
	closeTo := func(n int) {
		for _, el := range open[n:] {
			if el.script >= 0 {
				// A lone token is returned as is, aliasing the source.
				d.Scripts[el.script].Body = strings.Join(texts[el.from:], "")
				inline--
			}
		}
		open = open[:n]
		if inline == 0 {
			texts = texts[:0]
		}
	}
	z := acquireTokenizer(src)
	defer releaseTokenizer(z)
	for {
		tok := z.Next()
		switch tok.Type {
		case EOFToken:
			closeTo(0)
			return d
		case TextToken:
			if inline > 0 && strings.TrimSpace(tok.Text) != "" {
				texts = append(texts, tok.Text)
			}
		case StartTagToken, SelfClosingTagToken:
			el := openElem{tag: tok.Tag, script: -1}
			switch tok.Tag {
			case "iframe":
				d.Iframes = append(d.Iframes, iframeOf(tok.Attrs))
			case "script":
				s := scriptOf(tok.Attrs)
				d.Scripts = append(d.Scripts, s)
				if s.Inline && tok.Type == StartTagToken {
					el.script, el.from = len(d.Scripts)-1, len(texts)
					inline++
				}
			case "a":
				if href := hrefOf(tok.Attrs); href != "" {
					d.Links = append(d.Links, href)
				}
			}
			if tok.Type == StartTagToken && !voidElements[tok.Tag] {
				open = append(open, el)
			}
		case EndTagToken:
			// Pop to the nearest matching open element; ignore strays.
			for i := len(open) - 1; i >= 0; i-- {
				if open[i].tag == tok.Tag {
					closeTo(i)
					break
				}
			}
		}
	}
}

package html

import "strings"

// Doc is everything the crawl reads from one document: the iframe
// attribute lists (§3.1.2), the inline and external scripts (§3.1.1),
// and the anchor targets for internal-page crawling (§6.1), each in
// document order. A Doc owns its strings: Extract copies them into one
// buffer per document, so neither the Doc nor anything holding one of
// its strings (a crawl record, a compiled inline script) keeps the
// fetched source alive.
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

// Extract returns the iframes, scripts and links of src in one
// tokenizer pass, exactly as Iframes, Scripts and Links read them from
// Parse(src). It keeps Parse's open-element stack as tag names only:
// an inline script's body is every non-blank text token emitted while
// it is open, which is the text its subtree would hold. The strings are
// copied out of src into one buffer owned by the Doc.
func Extract(src string) Doc {
	var d Doc
	var open []openElem
	var texts []string // text tokens seen while an inline script is open
	inline := 0        // inline scripts on the stack
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
	z := NewTokenizer(src)
	for {
		tok := z.Next()
		switch tok.Type {
		case EOFToken:
			closeTo(0)
			// Until here the strings alias src wherever no entity
			// needed decoding.
			d.own()
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
				if s, ok := scriptOf(tok.Attrs); ok {
					d.Scripts = append(d.Scripts, s)
					if s.Inline && tok.Type == StartTagToken {
						el.script, el.from = len(d.Scripts)-1, len(texts)
						inline++
					}
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

// own copies every string of d into one buffer and re-points the
// fields at it. One allocation per document, not one per field, keeps
// an extraction at a handful of allocations.
func (d *Doc) own() {
	n := 0
	d.eachString(func(s *string) { n += len(*s) })
	if n == 0 {
		return
	}
	// After Grow(n) the n bytes are written without reallocating, so
	// every String() is a prefix of the one buffer.
	var b strings.Builder
	b.Grow(n)
	d.eachString(func(s *string) {
		off := b.Len()
		b.WriteString(*s)
		*s = b.String()[off:]
	})
}

// eachString calls fn on every string field of d, in a fixed order.
func (d *Doc) eachString(fn func(*string)) {
	for i := range d.Iframes {
		f := &d.Iframes[i]
		for _, s := range [...]*string{&f.Src, &f.Allow, &f.Sandbox, &f.Srcdoc, &f.Loading, &f.ID, &f.Name, &f.Class} {
			fn(s)
		}
	}
	for i := range d.Scripts {
		fn(&d.Scripts[i].Src)
		fn(&d.Scripts[i].Body)
	}
	for i := range d.Links {
		fn(&d.Links[i])
	}
}

package html

import (
	"slices"
	"strings"
)

// NodeType discriminates DOM nodes.
type NodeType uint8

const (
	DocumentNode NodeType = iota
	ElementNode
	TextNode
	CommentNode
)

// Node is a lightweight DOM node.
type Node struct {
	Type     NodeType
	Tag      string
	Attrs    []Attr
	Text     string
	Children []*Node
	Parent   *Node
}

// Attr returns the value of the named attribute.
func (n *Node) Attr(name string) (string, bool) { return attr(n.Attrs, name) }

// attr returns the value of the first attribute named name.
func attr(attrs []Attr, name string) (string, bool) {
	for _, a := range attrs {
		if a.Key == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the attribute value or a default.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// HasAttr reports attribute presence (boolean attributes included).
func (n *Node) HasAttr(name string) bool {
	_, ok := n.Attr(name)
	return ok
}

// voidElements never have children.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// Parse builds a tolerant DOM tree from src. It never fails: malformed
// markup degrades to a best-effort tree, matching how the crawler must
// survive the web's tag soup. The crawl itself reads only Extract's
// three lists; Parse with the Iframes, Scripts and Links walks is the
// reference Extract is tested against.
func Parse(src string) *Node {
	doc := &Node{Type: DocumentNode}
	stack := []*Node{doc}
	z := NewTokenizer(src)
	for {
		tok := z.Next()
		top := stack[len(stack)-1]
		switch tok.Type {
		case EOFToken:
			return doc
		case TextToken:
			if strings.TrimSpace(tok.Text) != "" {
				top.Children = append(top.Children, &Node{Type: TextNode, Text: tok.Text, Parent: top})
			}
		case CommentToken:
			top.Children = append(top.Children, &Node{Type: CommentNode, Text: tok.Text, Parent: top})
		case DoctypeToken:
			// Ignored: tree shape is what matters.
		case StartTagToken, SelfClosingTagToken:
			// The node keeps its attributes past the next token: copy them.
			el := &Node{Type: ElementNode, Tag: tok.Tag, Attrs: slices.Clone(tok.Attrs), Parent: top}
			top.Children = append(top.Children, el)
			if tok.Type == StartTagToken && !voidElements[tok.Tag] {
				stack = append(stack, el)
			}
		case EndTagToken:
			// Pop to the nearest matching open element; ignore strays.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Tag == tok.Tag {
					stack = stack[:i]
					break
				}
			}
		}
	}
}

// Walk visits every node in document order. Returning false from fn
// skips the node's children.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// FindAll returns every element with the given tag, in document order.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(node *Node) bool {
		if node.Type == ElementNode && node.Tag == tag {
			out = append(out, node)
		}
		return true
	})
	return out
}

// First returns the first element with the given tag, or nil.
func (n *Node) First(tag string) *Node {
	var found *Node
	n.Walk(func(node *Node) bool {
		if found != nil {
			return false
		}
		if node.Type == ElementNode && node.Tag == tag {
			found = node
			return false
		}
		return true
	})
	return found
}

// InnerText concatenates the text beneath the node.
func (n *Node) InnerText() string {
	// Fast path: one text child (every raw-text element — script, style,
	// title — parses to this shape) needs no builder copy.
	if len(n.Children) == 1 {
		if c := n.Children[0]; c.Type == TextNode && len(c.Children) == 0 {
			return c.Text
		}
	}
	var b strings.Builder
	n.Walk(func(node *Node) bool {
		if node.Type == TextNode {
			b.WriteString(node.Text)
		}
		return true
	})
	return b.String()
}

// IframeAttributes is the paper's predefined list of <iframe> attributes
// collected for every embedded document (§3.1.2).
var IframeAttributes = []string{"id", "name", "class", "src", "allow", "sandbox", "srcdoc", "loading"}

// Iframe is one extracted iframe element with the collected attributes.
type Iframe struct {
	Src     string
	Allow   string
	Sandbox string
	Srcdoc  string
	Loading string
	ID      string
	Name    string
	Class   string
	// HasAllow distinguishes allow="" from no attribute at all.
	HasAllow bool
	// HasSrcdoc likewise.
	HasSrcdoc bool
	// HasSandbox distinguishes the (fully sandboxing) bare sandbox
	// attribute from its absence.
	HasSandbox bool
}

// Lazy reports whether the iframe is lazy-loaded (loading="lazy"),
// which the crawler must scroll to in order to trigger loading (§3.2).
func (f Iframe) Lazy() bool { return strings.EqualFold(f.Loading, "lazy") }

// iframeOf builds the record of one iframe element from its
// attributes, for both Extract and the Iframes walk.
func iframeOf(attrs []Attr) Iframe {
	var f Iframe
	f.Src, _ = attr(attrs, "src")
	f.Allow, f.HasAllow = attr(attrs, "allow")
	f.Sandbox, f.HasSandbox = attr(attrs, "sandbox")
	f.Srcdoc, f.HasSrcdoc = attr(attrs, "srcdoc")
	f.Loading, _ = attr(attrs, "loading")
	f.ID, _ = attr(attrs, "id")
	f.Name, _ = attr(attrs, "name")
	f.Class, _ = attr(attrs, "class")
	return f
}

// Iframes extracts all iframe elements from the document.
func Iframes(doc *Node) []Iframe {
	var out []Iframe
	for _, el := range doc.FindAll("iframe") {
		out = append(out, iframeOf(el.Attrs))
	}
	return out
}

// Links extracts the href targets of all anchor elements — the input
// for beyond-landing-page crawling (the paper's §6.1 limitation).
func Links(doc *Node) []string {
	var out []string
	for _, a := range doc.FindAll("a") {
		if href := hrefOf(a.Attrs); href != "" {
			out = append(out, href)
		}
	}
	return out
}

// hrefOf returns an anchor's href, trimmed; "" means no link, for both
// Extract and the Links walk.
func hrefOf(attrs []Attr) string {
	href, _ := attr(attrs, "href")
	return strings.TrimSpace(href)
}

// Script is one extracted script: external (Src set) or inline (Body).
type Script struct {
	Src    string
	Body   string
	Inline bool
}

// scriptOf builds the record of one script element from its
// attributes, for both Extract and the Scripts walk: external when src
// is non-blank, else inline with the body left to the caller. It
// reports false for a data block, which a browser neither fetches nor
// runs.
func scriptOf(attrs []Attr) (Script, bool) {
	if !runsScript(attrs) {
		return Script{}, false
	}
	if src, ok := attr(attrs, "src"); ok && strings.TrimSpace(src) != "" {
		return Script{Src: strings.TrimSpace(src)}, true
	}
	return Script{Inline: true}, true
}

// javaScriptTypes are the JavaScript MIME type essences (MIME Sniffing
// §4.6), lower-cased.
var javaScriptTypes = map[string]bool{
	"application/ecmascript": true, "application/javascript": true,
	"application/x-ecmascript": true, "application/x-javascript": true,
	"text/ecmascript": true, "text/javascript": true,
	"text/javascript1.0": true, "text/javascript1.1": true,
	"text/javascript1.2": true, "text/javascript1.3": true,
	"text/javascript1.4": true, "text/javascript1.5": true,
	"text/jscript": true, "text/livescript": true,
	"text/x-ecmascript": true, "text/x-javascript": true,
}

// runsScript reports whether a script element with these attributes
// runs, as HTML's "prepare the script element" decides: with no type
// (or an empty one) and no non-empty language, or with a type string
// that is a JavaScript MIME type essence or "module". Any other type
// (application/ld+json, text/template, ...) makes the element a data
// block.
func runsScript(attrs []Attr) bool {
	typ, hasType := attr(attrs, "type")
	lang, _ := attr(attrs, "language")
	switch {
	case hasType && typ == "", !hasType && lang == "":
		return true
	case hasType:
		typ = strings.Trim(typ, "\t\n\f\r ")
	default:
		typ = "text/" + lang
	}
	typ = strings.ToLower(typ)
	return javaScriptTypes[typ] || typ == "module"
}

// Scripts extracts every script the document runs, data blocks left
// out. The tokenizer treats <script> as raw text, so inline bodies
// survive intact even when they contain '<'.
func Scripts(doc *Node) []Script {
	var out []Script
	for _, el := range doc.FindAll("script") {
		s, ok := scriptOf(el.Attrs)
		if !ok {
			continue
		}
		if s.Inline {
			s.Body = el.InnerText()
		}
		out = append(out, s)
	}
	return out
}

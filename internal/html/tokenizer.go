// Package html is a from-scratch HTML tokenizer, the one-pass
// extraction the crawl reads (Extract), and a lightweight DOM builder
// (Parse) that Extract is tested against — the subset of HTML parsing
// the measurement needs: element
// structure, attributes (the paper's predefined iframe attribute list:
// id, name, class, src, allow, sandbox, srcdoc, loading), raw-text
// handling for <script> bodies (both for static analysis and for
// execution by the mini browser), comments, and basic entity decoding.
//
// It is intentionally not a full HTML5 tree construction algorithm: the
// crawler needs a faithful *tokenizer* and a tolerant tree, not adoption
// agency semantics.
package html

import "strings"

// TokenType discriminates tokens.
type TokenType uint8

const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
	EOFToken
)

// Attr is one attribute, with its value entity-decoded.
type Attr struct {
	Key   string
	Value string
}

// Token is one lexical token. Its Attrs alias the tokenizer's scratch:
// they are valid only until the next call to Next.
type Token struct {
	Type  TokenType
	Tag   string // lower-cased tag name for tag tokens
	Text  string // text, comment or doctype content
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it exists.
func (t Token) Attr(name string) (string, bool) { return attr(t.Attrs, name) }

// rawTextTags are elements whose content is raw text until the matching
// end tag.
var rawTextTags = map[string]bool{
	"script": true, "style": true, "textarea": true, "title": true,
	"xmp": true, "noscript": true,
}

// Tokenizer walks an HTML document byte-wise.
type Tokenizer struct {
	src string
	pos int
	// rawTag, when set, makes the tokenizer consume everything until the
	// matching </rawTag> as a single text token.
	rawTag string
	// scratch accumulates attributes of the tag being lexed. The emitted
	// Token's Attrs alias it, so they are valid only until the next call
	// to Next; a caller that keeps them copies them.
	scratch []Attr
}

// NewTokenizer tokenizes src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token; EOFToken at the end of input.
func (z *Tokenizer) Next() Token {
	if z.pos >= len(z.src) {
		return Token{Type: EOFToken}
	}
	if z.rawTag != "" {
		return z.rawText()
	}
	if z.src[z.pos] == '<' {
		return z.tag()
	}
	return z.text()
}

func (z *Tokenizer) text() Token {
	start := z.pos
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Type: TextToken, Text: DecodeEntities(z.src[start:z.pos])}
}

// rawText consumes text up to the matching close tag of z.rawTag.
func (z *Tokenizer) rawText() Token {
	closeTag := "</" + z.rawTag
	idx := indexFold(z.src[z.pos:], closeTag)
	tag := z.rawTag
	z.rawTag = ""
	if idx < 0 {
		text := z.src[z.pos:]
		z.pos = len(z.src)
		return Token{Type: TextToken, Text: text, Tag: tag}
	}
	if idx == 0 {
		// Empty raw text yields no text token (as in the HTML spec),
		// so every token consumes input: go straight to the end tag.
		return z.tag()
	}
	text := z.src[z.pos : z.pos+idx]
	z.pos += idx
	return Token{Type: TextToken, Text: text, Tag: tag}
}

// indexFold is a case-insensitive strings.Index for ASCII needles. The
// scan skips between first-byte candidates with strings.IndexByte (both
// cases) instead of running EqualFold at every offset, so a megabyte
// raw-text body full of near-miss prefixes costs one memchr sweep, not
// an O(n·m) fold comparison per byte.
func indexFold(haystack, needle string) int {
	n := len(needle)
	if n == 0 {
		return 0
	}
	lo, up := needle[0], needle[0]
	switch {
	case lo >= 'a' && lo <= 'z':
		up = lo - ('a' - 'A')
	case lo >= 'A' && lo <= 'Z':
		lo = up + ('a' - 'A')
	}
	for i := 0; i+n <= len(haystack); {
		if c := haystack[i]; c != lo && c != up {
			rest := haystack[i+1:]
			j := strings.IndexByte(rest, lo)
			if up != lo {
				if k := strings.IndexByte(rest, up); k >= 0 && (j < 0 || k < j) {
					j = k
				}
			}
			if j < 0 {
				return -1
			}
			i += 1 + j
			if i+n > len(haystack) {
				return -1
			}
		}
		if strings.EqualFold(haystack[i:i+n], needle) {
			return i
		}
		i++
	}
	return -1
}

func (z *Tokenizer) tag() Token {
	// z.src[z.pos] == '<'
	if strings.HasPrefix(z.src[z.pos:], "<!--") {
		return z.comment()
	}
	if strings.HasPrefix(z.src[z.pos:], "<!") {
		return z.doctype()
	}
	if strings.HasPrefix(z.src[z.pos:], "</") {
		return z.endTag()
	}
	if z.pos+1 >= len(z.src) || !isTagNameStart(z.src[z.pos+1]) {
		// A lone '<' followed by a non-letter is text.
		z.pos++
		return Token{Type: TextToken, Text: "<"}
	}
	return z.startTag()
}

func isTagNameStart(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isTagNameChar(c byte) bool {
	return isTagNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == ':'
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

func (z *Tokenizer) comment() Token {
	z.pos += 4 // <!--
	end := strings.Index(z.src[z.pos:], "-->")
	var text string
	if end < 0 {
		text = z.src[z.pos:]
		z.pos = len(z.src)
	} else {
		text = z.src[z.pos : z.pos+end]
		z.pos += end + 3
	}
	return Token{Type: CommentToken, Text: text}
}

func (z *Tokenizer) doctype() Token {
	z.pos += 2 // <!
	end := strings.IndexByte(z.src[z.pos:], '>')
	var text string
	if end < 0 {
		text = z.src[z.pos:]
		z.pos = len(z.src)
	} else {
		text = z.src[z.pos : z.pos+end]
		z.pos += end + 1
	}
	return Token{Type: DoctypeToken, Text: strings.TrimSpace(text)}
}

func (z *Tokenizer) endTag() Token {
	z.pos += 2 // </
	start := z.pos
	for z.pos < len(z.src) && isTagNameChar(z.src[z.pos]) {
		z.pos++
	}
	tag := strings.ToLower(z.src[start:z.pos])
	// Skip to '>'.
	for z.pos < len(z.src) && z.src[z.pos] != '>' {
		z.pos++
	}
	if z.pos < len(z.src) {
		z.pos++
	}
	return Token{Type: EndTagToken, Tag: tag}
}

func (z *Tokenizer) startTag() Token {
	z.pos++ // <
	start := z.pos
	for z.pos < len(z.src) && isTagNameChar(z.src[z.pos]) {
		z.pos++
	}
	tok := Token{Type: StartTagToken, Tag: strings.ToLower(z.src[start:z.pos])}
	z.scratch = z.scratch[:0]
	for {
		for z.pos < len(z.src) && isSpace(z.src[z.pos]) {
			z.pos++
		}
		if z.pos >= len(z.src) {
			break
		}
		c := z.src[z.pos]
		if c == '>' {
			z.pos++
			break
		}
		if c == '/' {
			z.pos++
			if z.pos < len(z.src) && z.src[z.pos] == '>' {
				z.pos++
				tok.Type = SelfClosingTagToken
				break
			}
			continue
		}
		key, val, ok := z.attribute()
		if !ok {
			break
		}
		z.scratch = append(z.scratch, Attr{Key: key, Value: val})
	}
	if len(z.scratch) > 0 {
		tok.Attrs = z.scratch
	}
	if tok.Type == StartTagToken && rawTextTags[tok.Tag] {
		z.rawTag = tok.Tag
	}
	return tok
}

func (z *Tokenizer) attribute() (key, val string, ok bool) {
	start := z.pos
	for z.pos < len(z.src) {
		c := z.src[z.pos]
		if isSpace(c) || c == '=' || c == '>' || c == '/' {
			break
		}
		z.pos++
	}
	if z.pos == start {
		// Unparseable character; skip it to guarantee progress.
		z.pos++
		return "", "", false
	}
	key = strings.ToLower(z.src[start:z.pos])
	for z.pos < len(z.src) && isSpace(z.src[z.pos]) {
		z.pos++
	}
	if z.pos >= len(z.src) || z.src[z.pos] != '=' {
		return key, "", true // boolean attribute
	}
	z.pos++ // =
	for z.pos < len(z.src) && isSpace(z.src[z.pos]) {
		z.pos++
	}
	if z.pos >= len(z.src) {
		return key, "", true
	}
	switch quote := z.src[z.pos]; quote {
	case '"', '\'':
		z.pos++
		vstart := z.pos
		for z.pos < len(z.src) && z.src[z.pos] != quote {
			z.pos++
		}
		val = z.src[vstart:z.pos]
		if z.pos < len(z.src) {
			z.pos++
		}
	default:
		vstart := z.pos
		for z.pos < len(z.src) && !isSpace(z.src[z.pos]) && z.src[z.pos] != '>' {
			z.pos++
		}
		val = z.src[vstart:z.pos]
	}
	// Fast path: a value without '&' is returned as the input substring,
	// no decode pass and no allocation.
	if strings.IndexByte(val, '&') >= 0 {
		val = DecodeEntities(val)
	}
	return key, val, true
}

// entities is the minimal named-entity table the measurement needs.
var entities = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "copy": "©", "mdash": "—", "hellip": "…",
}

// DecodeEntities decodes named and numeric character references. Input
// without '&' is returned unchanged (the same substring, no copy).
func DecodeEntities(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		// Named entities are short; numeric references get a wider window
		// so long digit runs still decode (they clamp to U+FFFD below)
		// rather than passing through raw.
		window := 12
		if i+1 < len(s) && s[i+1] == '#' {
			window = 32
		}
		if semi < 0 || semi > window {
			b.WriteByte(c)
			i++
			continue
		}
		name := s[i+1 : i+semi]
		if decoded, ok := decodeEntity(name); ok {
			b.WriteString(decoded)
			i += semi + 1
			continue
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

func decodeEntity(name string) (string, bool) {
	if v, ok := entities[name]; ok {
		return v, true
	}
	if strings.HasPrefix(name, "#") {
		digits := name[1:]
		base := 10
		if strings.HasPrefix(digits, "x") || strings.HasPrefix(digits, "X") {
			digits = digits[1:]
			base = 16
		}
		if digits == "" {
			return "", false
		}
		var n rune
		for _, d := range digits {
			var v rune
			switch {
			case d >= '0' && d <= '9':
				v = d - '0'
			case base == 16 && d >= 'a' && d <= 'f':
				v = d - 'a' + 10
			case base == 16 && d >= 'A' && d <= 'F':
				v = d - 'A' + 10
			default:
				return "", false
			}
			n = n*rune(base) + v
			// Clamp past the Unicode range so long digit runs cannot
			// overflow the rune; the reference still consumes and decodes
			// (to U+FFFD, below).
			if n > 0x10ffff {
				n = 0x110000
			}
		}
		// Spec-mandated replacements (HTML §13.2.5.80): NUL, values
		// outside the Unicode range, and surrogate code points all decode
		// to U+FFFD — never a NUL byte or a raw passthrough.
		if n == 0 || n > 0x10ffff || (n >= 0xd800 && n <= 0xdfff) {
			return "�", true
		}
		return string(n), true
	}
	return "", false
}

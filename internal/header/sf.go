// Package header implements the subset of RFC 8941 HTTP Structured
// Fields that the Permissions-Policy header is defined in terms of:
// dictionaries whose member values are items or inner lists, with
// parameters. Parsing is strict — any violation fails the whole field —
// because that is exactly the browser behaviour behind the paper's
// §4.3.3 finding that 3,244 frames with syntax errors have their entire
// header removed and fall back to the default allowlists.
package header

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ItemKind discriminates Item values.
type ItemKind uint8

const (
	KindToken ItemKind = iota
	KindString
	KindInteger
	KindDecimal
	KindBoolean
)

// Item is an RFC 8941 item (bare value plus parameters).
type Item struct {
	Kind    ItemKind
	Token   string
	String  string
	Integer int64
	Decimal float64
	Boolean bool
	Params  []Param
}

// Param is one ;key=value parameter.
type Param struct {
	Key   string
	Value Item
}

// Member is one dictionary member: either a single Item or an inner list.
type Member struct {
	Key     string
	IsInner bool
	Item    Item
	Inner   []Item
	// Params holds the parameters of an inner-list member.
	Params []Param
}

// Dictionary preserves member order (the spec processes members in
// order; later duplicates win, which we record via the Members slice and
// resolve in Get).
type Dictionary struct {
	Members []Member
}

// Get returns the last member with the given key.
func (d Dictionary) Get(key string) (Member, bool) {
	for i := len(d.Members) - 1; i >= 0; i-- {
		if d.Members[i].Key == key {
			return d.Members[i], true
		}
	}
	return Member{}, false
}

// SyntaxError describes a structured-field parse failure with its byte
// offset, so the misconfiguration linter can explain what went wrong.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("structured field syntax error at offset %d: %s", e.Offset, e.Msg)
}

// ErrEmpty is returned for fields that contain no members at all.
var ErrEmpty = errors.New("structured field: empty")

type parser struct {
	s   string
	pos int
}

func (p *parser) err(msg string) error {
	return &SyntaxError{Offset: p.pos, Msg: msg}
}

func (p *parser) eof() bool { return p.pos >= len(p.s) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.s[p.pos]
}

func (p *parser) skipSP() {
	for !p.eof() && p.s[p.pos] == ' ' {
		p.pos++
	}
}

func (p *parser) skipOWS() {
	for !p.eof() && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

// ParseDictionary parses an sf-dictionary. Multiple header field lines
// should be joined with ", " by the caller before parsing, per RFC 8941.
func ParseDictionary(field string) (Dictionary, error) {
	p := &parser{s: field}
	var d Dictionary
	p.skipSP()
	if p.eof() {
		return d, ErrEmpty
	}
	for {
		key, err := p.parseKey()
		if err != nil {
			return d, err
		}
		m := Member{Key: key}
		if p.peek() == '=' {
			p.pos++
			if p.peek() == '(' {
				inner, params, err := p.parseInnerList()
				if err != nil {
					return d, err
				}
				m.IsInner = true
				m.Inner = inner
				m.Params = params
			} else {
				item, err := p.parseItem()
				if err != nil {
					return d, err
				}
				m.Item = item
			}
		} else {
			// Bare key: boolean true member.
			m.Item = Item{Kind: KindBoolean, Boolean: true}
			params, err := p.parseParams()
			if err != nil {
				return d, err
			}
			m.Item.Params = params
		}
		d.Members = append(d.Members, m)
		p.skipOWS()
		if p.eof() {
			return d, nil
		}
		if p.peek() != ',' {
			return d, p.err(fmt.Sprintf("expected ',' between members, found %q", string(p.peek())))
		}
		p.pos++
		p.skipOWS()
		if p.eof() {
			return d, p.err("trailing comma")
		}
	}
}

func isLCAlpha(c byte) bool { return c >= 'a' && c <= 'z' }
func isDigit(c byte) bool   { return c >= '0' && c <= '9' }
func isKeyChar(c byte) bool {
	return isLCAlpha(c) || isDigit(c) || c == '_' || c == '-' || c == '.' || c == '*'
}
func isTokenStart(c byte) bool {
	return isLCAlpha(c) || (c >= 'A' && c <= 'Z') || c == '*'
}
func isTokenChar(c byte) bool {
	switch {
	case isTokenStart(c), isDigit(c):
		return true
	}
	switch c {
	case ':', '/', '!', '#', '$', '%', '&', '\'', '+', '-', '.', '^', '_', '`', '|', '~':
		return true
	}
	return false
}

func (p *parser) parseKey() (string, error) {
	start := p.pos
	if p.eof() || !(isLCAlpha(p.peek()) || p.peek() == '*') {
		return "", p.err("dictionary key must start with lowercase letter or '*'")
	}
	for !p.eof() && isKeyChar(p.peek()) {
		p.pos++
	}
	return p.s[start:p.pos], nil
}

func (p *parser) parseInnerList() ([]Item, []Param, error) {
	if p.peek() != '(' {
		return nil, nil, p.err("expected '('")
	}
	p.pos++
	var items []Item
	for {
		p.skipSP()
		if p.eof() {
			return nil, nil, p.err("unterminated inner list")
		}
		if p.peek() == ')' {
			p.pos++
			params, err := p.parseParams()
			return items, params, err
		}
		item, err := p.parseItem()
		if err != nil {
			return nil, nil, err
		}
		items = append(items, item)
		if !p.eof() && p.peek() != ' ' && p.peek() != ')' {
			return nil, nil, p.err("inner-list items must be space-separated")
		}
	}
}

func (p *parser) parseItem() (Item, error) {
	bare, err := p.parseBareItem()
	if err != nil {
		return Item{}, err
	}
	params, err := p.parseParams()
	if err != nil {
		return Item{}, err
	}
	bare.Params = params
	return bare, nil
}

func (p *parser) parseBareItem() (Item, error) {
	if p.eof() {
		return Item{}, p.err("expected item")
	}
	c := p.peek()
	switch {
	case c == '"':
		s, err := p.parseString()
		return Item{Kind: KindString, String: s}, err
	case c == '?':
		p.pos++
		if p.eof() || (p.peek() != '0' && p.peek() != '1') {
			return Item{}, p.err("boolean must be ?0 or ?1")
		}
		b := p.peek() == '1'
		p.pos++
		return Item{Kind: KindBoolean, Boolean: b}, nil
	case c == '-' || isDigit(c):
		return p.parseNumber()
	case isTokenStart(c):
		start := p.pos
		p.pos++
		for !p.eof() && isTokenChar(p.peek()) {
			p.pos++
		}
		return Item{Kind: KindToken, Token: p.s[start:p.pos]}, nil
	default:
		return Item{}, p.err(fmt.Sprintf("unexpected character %q", string(c)))
	}
}

func (p *parser) parseString() (string, error) {
	p.pos++ // opening quote
	var b strings.Builder
	for {
		if p.eof() {
			return "", p.err("unterminated string")
		}
		c := p.s[p.pos]
		switch {
		case c == '"':
			p.pos++
			return b.String(), nil
		case c == '\\':
			p.pos++
			if p.eof() || (p.s[p.pos] != '"' && p.s[p.pos] != '\\') {
				return "", p.err("invalid escape in string")
			}
			b.WriteByte(p.s[p.pos])
			p.pos++
		case c < 0x20 || c > 0x7e:
			return "", p.err("invalid character in string")
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
}

// parseNumber follows RFC 8941 §4.2.4: a digit must follow the
// optional sign, an integer has at most 15 digits, and a decimal at
// most 12 integer and 1–3 fractional digits.
func (p *parser) parseNumber() (Item, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	if p.eof() || !isDigit(p.peek()) {
		return Item{}, p.err("number must start with a digit")
	}
	intDigits := p.digits()
	if p.eof() || p.peek() != '.' {
		if intDigits > 15 {
			return Item{}, p.err("integer has more than 15 digits")
		}
		n, err := strconv.ParseInt(p.s[start:p.pos], 10, 64)
		if err != nil {
			return Item{}, p.err("invalid integer")
		}
		return Item{Kind: KindInteger, Integer: n}, nil
	}
	if intDigits > 12 {
		return Item{}, p.err("decimal has more than 12 integer digits")
	}
	p.pos++ // '.'
	if frac := p.digits(); frac < 1 || frac > 3 {
		return Item{}, p.err("decimal needs 1 to 3 fractional digits")
	}
	f, err := strconv.ParseFloat(p.s[start:p.pos], 64)
	if err != nil {
		return Item{}, p.err("invalid decimal")
	}
	return Item{Kind: KindDecimal, Decimal: f}, nil
}

// digits consumes a run of digits and returns its length.
func (p *parser) digits() int {
	start := p.pos
	for !p.eof() && isDigit(p.peek()) {
		p.pos++
	}
	return p.pos - start
}

func (p *parser) parseParams() ([]Param, error) {
	var params []Param
	for !p.eof() && p.peek() == ';' {
		p.pos++
		p.skipSP()
		key, err := p.parseKey()
		if err != nil {
			return nil, err
		}
		val := Item{Kind: KindBoolean, Boolean: true}
		if !p.eof() && p.peek() == '=' {
			p.pos++
			val, err = p.parseBareItem()
			if err != nil {
				return nil, err
			}
		}
		params = append(params, Param{Key: key, Value: val})
	}
	return params, nil
}

// SerializeItem renders an Item back to its textual form, escaping
// quotes and backslashes in strings (allowlist serialization writes
// its origins through it).
func SerializeItem(it Item) string {
	var b strings.Builder
	switch it.Kind {
	case KindToken:
		b.WriteString(it.Token)
	case KindString:
		b.WriteByte('"')
		for i := 0; i < len(it.String); i++ {
			c := it.String[i]
			if c == '"' || c == '\\' {
				b.WriteByte('\\')
			}
			b.WriteByte(c)
		}
		b.WriteByte('"')
	case KindInteger:
		b.WriteString(strconv.FormatInt(it.Integer, 10))
	case KindDecimal:
		// A decimal keeps at least one fractional digit (RFC 8941
		// §4.1.5): written "1" or "-0", it would reparse as an Integer.
		d := strconv.FormatFloat(it.Decimal, 'f', -1, 64)
		b.WriteString(d)
		if !strings.Contains(d, ".") {
			b.WriteString(".0")
		}
	case KindBoolean:
		if it.Boolean {
			b.WriteString("?1")
		} else {
			b.WriteString("?0")
		}
	}
	for _, p := range it.Params {
		b.WriteByte(';')
		b.WriteString(p.Key)
		if !(p.Value.Kind == KindBoolean && p.Value.Boolean) {
			b.WriteByte('=')
			b.WriteString(SerializeItem(Item{Kind: p.Value.Kind, Token: p.Value.Token,
				String: p.Value.String, Integer: p.Value.Integer,
				Decimal: p.Value.Decimal, Boolean: p.Value.Boolean}))
		}
	}
	return b.String()
}

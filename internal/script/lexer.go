// Package script implements a small JavaScript-subset engine: lexer,
// parser, and a compiler to Go closures that the interpreter runs. It
// exists so the mini browser can actually *execute* the scripts served
// by the synthetic web and record permission-related API invocations
// through instrumented host objects — the same mechanism as the
// paper's Figure 1, where the original function is wrapped to log the
// call, stack trace and arguments before delegating to the real
// implementation.
//
// Supported language: var/let/const, function declarations and
// expressions, arrow functions, if/else, while/for (bounded by a step
// budget), return, member access, calls, new, object/array literals,
// strings/numbers/booleans/null/undefined, template literals (without
// interpolation), the usual unary/binary/logical operators, assignment,
// and ternaries. That covers realistic permission-probing snippets;
// anything fancier fails with a runtime error that the crawler records
// as a script error, like a real browser console error.
package script

import (
	"fmt"
	"strings"
)

// TokKind is a lexical token kind.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokPunct
	// TokTemplate is a template literal with its ${...} interpolations
	// still embedded; the parser expands it into a concatenation.
	TokTemplate
)

// Tok is one token.
type Tok struct {
	Kind TokKind
	Text string
	Num  float64
	Pos  int // byte offset, for error messages
	Line int
}

var keywords = map[string]bool{
	"var": true, "let": true, "const": true, "function": true,
	"if": true, "else": true, "return": true, "true": true, "false": true,
	"null": true, "undefined": true, "new": true, "typeof": true,
	"while": true, "for": true, "break": true, "continue": true,
	"this": true, "try": true, "catch": true, "finally": true, "throw": true,
	"in": true, "of": true, "await": true, "async": true, "delete": true,
	"switch": true, "case": true, "default": true, "do": true,
}

// SyntaxError is a lexing/parsing failure.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("script syntax error at line %d: %s", e.Line, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	toks []Tok
}

// Lex tokenizes src.
func Lex(src string) ([]Tok, error) {
	l := &lexer{src: src, line: 1}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.Kind == TokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (Tok, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Tok{Kind: TokEOF, Pos: l.pos, Line: l.line}, nil
	}
	start, line := l.pos, l.line
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Tok{Kind: kind, Text: text, Pos: start, Line: line}, nil
	case c >= '0' && c <= '9':
		return l.number(start, line)
	case c == '"' || c == '\'':
		return l.quoted(c, start, line)
	case c == '`':
		return l.template(start, line)
	default:
		return l.punct(start, line)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case strings.HasPrefix(l.src[l.pos:], "//"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

func (l *lexer) number(start, line int) (Tok, error) {
	var n float64
	seenDot := false
	frac := 0.1
	// Hex literals.
	if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
		l.pos += 2
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			var v float64
			switch {
			case c >= '0' && c <= '9':
				v = float64(c - '0')
			case c >= 'a' && c <= 'f':
				v = float64(c-'a') + 10
			case c >= 'A' && c <= 'F':
				v = float64(c-'A') + 10
			default:
				return Tok{Kind: TokNumber, Num: n, Text: l.src[start:l.pos], Pos: start, Line: line}, nil
			}
			n = n*16 + v
			l.pos++
		}
		return Tok{Kind: TokNumber, Num: n, Text: l.src[start:l.pos], Pos: start, Line: line}, nil
	}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			if seenDot {
				n += float64(c-'0') * frac
				frac /= 10
			} else {
				n = n*10 + float64(c-'0')
			}
			l.pos++
		case c == '.' && !seenDot:
			seenDot = true
			l.pos++
		default:
			return Tok{Kind: TokNumber, Num: n, Text: l.src[start:l.pos], Pos: start, Line: line}, nil
		}
	}
	return Tok{Kind: TokNumber, Num: n, Text: l.src[start:l.pos], Pos: start, Line: line}, nil
}

func (l *lexer) quoted(quote byte, start, line int) (Tok, error) {
	l.pos++
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return Tok{}, l.errf("unterminated string")
		}
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return Tok{Kind: TokString, Text: b.String(), Pos: start, Line: line}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return Tok{}, l.errf("unterminated escape")
			}
			switch e := l.src[l.pos]; e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			default:
				b.WriteByte(e)
			}
			l.pos++
		case '\n':
			return Tok{}, l.errf("newline in string")
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
}

func (l *lexer) template(start, line int) (Tok, error) {
	l.pos++
	var b strings.Builder
	interpolated := false
	for {
		if l.pos >= len(l.src) {
			return Tok{}, l.errf("unterminated template literal")
		}
		c := l.src[l.pos]
		switch c {
		case '`':
			l.pos++
			kind := TokString
			if interpolated {
				kind = TokTemplate
			}
			return Tok{Kind: kind, Text: b.String(), Pos: start, Line: line}, nil
		case '\\':
			l.pos++
			if l.pos < len(l.src) {
				b.WriteByte(l.src[l.pos])
				l.pos++
			}
		case '$':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '{' {
				interpolated = true
			}
			b.WriteByte(c)
			l.pos++
		case '\n':
			l.line++
			b.WriteByte(c)
			l.pos++
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
}

// multiPuncts are matched longest-first.
var multiPuncts = []string{
	"===", "!==", "**=", "...", "=>", "==", "!=", "<=", ">=", "&&", "||",
	"??", "?.", "++", "--", "+=", "-=", "*=", "/=",
}

func (l *lexer) punct(start, line int) (Tok, error) {
	rest := l.src[l.pos:]
	for _, p := range multiPuncts {
		if strings.HasPrefix(rest, p) {
			l.pos += len(p)
			return Tok{Kind: TokPunct, Text: p, Pos: start, Line: line}, nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', '{', '}', '[', ']', ';', ',', '.', ':', '?', '=',
		'+', '-', '*', '/', '<', '>', '!', '%', '&', '|', '~', '^':
		l.pos++
		return Tok{Kind: TokPunct, Text: string(c), Pos: start, Line: line}, nil
	}
	return Tok{}, l.errf("unexpected character %q", string(c))
}

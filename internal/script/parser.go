package script

import (
	"fmt"
	"strings"
)

type parser struct {
	toks []Tok
	pos  int
	// args counts the `arguments` identifiers parsed so far; a function
	// whose body moved it uses `arguments`.
	args int
}

// Parse lexes and parses a program.
func Parse(src string) (*Program, error) {
	return (&parser{}).parse(src)
}

// parse lexes and parses src as a program, adding its `arguments`
// identifiers to p's count.
func (p *parser) parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p.toks = toks
	prog := &Program{}
	for !p.atEOF() {
		stmt, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, stmt)
	}
	return prog, nil
}

func (p *parser) atEOF() bool { return p.toks[p.pos].Kind == TokEOF }

func (p *parser) cur() Tok { return p.toks[p.pos] }

func (p *parser) advance() Tok {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) isPunct(text string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == text
}

func (p *parser) isKeyword(text string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == text
}

func (p *parser) eatPunct(text string) bool {
	if p.isPunct(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(text string) error {
	if !p.eatPunct(text) {
		return p.errf("expected %q, found %q", text, p.cur().Text)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.cur().Line, Msg: fmt.Sprintf(format, args...)}
}

// eatSemi consumes optional semicolons (ASI is approximated by making
// semicolons optional everywhere a statement ends).
func (p *parser) eatSemi() {
	for p.eatPunct(";") {
	}
}

func (p *parser) statement() (Node, error) {
	t := p.cur()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "var", "let", "const":
			return p.varDecl()
		case "function":
			return p.funcDecl()
		case "if":
			return p.ifStmt()
		case "while":
			return p.whileStmt()
		case "switch":
			return p.switchStmt()
		case "do":
			return p.doWhileStmt()
		case "for":
			return p.forStmt()
		case "return":
			p.advance()
			var x Node
			if !p.isPunct(";") && !p.isPunct("}") && !p.atEOF() {
				var err error
				x, err = p.expression()
				if err != nil {
					return nil, err
				}
			}
			p.eatSemi()
			return &ReturnStmt{X: x}, nil
		case "break":
			p.advance()
			p.eatSemi()
			return &BreakStmt{}, nil
		case "continue":
			p.advance()
			p.eatSemi()
			return &ContinueStmt{}, nil
		case "throw":
			p.advance()
			x, err := p.expression()
			if err != nil {
				return nil, err
			}
			p.eatSemi()
			return &ThrowStmt{X: x}, nil
		case "try":
			return p.tryStmt()
		case "async":
			// `async function` — the interpreter is synchronous; async is
			// a no-op wrapper.
			p.advance()
			if p.isKeyword("function") {
				return p.funcDecl()
			}
			return nil, p.errf("async without function")
		}
	}
	if p.isPunct("{") {
		return p.block()
	}
	if p.isPunct(";") {
		p.advance()
		return &BlockStmt{}, nil
	}
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	p.eatSemi()
	return &ExprStmt{X: x}, nil
}

func (p *parser) varDecl() (Node, error) {
	p.advance() // var/let/const
	block := &SeqStmt{}
	for {
		t := p.cur()
		if t.Kind != TokIdent {
			return nil, p.errf("expected variable name, found %q", t.Text)
		}
		p.advance()
		decl := &VarDecl{Name: t.Text, Line: t.Line}
		if p.eatPunct("=") {
			init, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			decl.Init = init
		}
		block.Body = append(block.Body, decl)
		if !p.eatPunct(",") {
			break
		}
	}
	p.eatSemi()
	if len(block.Body) == 1 {
		return block.Body[0], nil
	}
	return block, nil
}

func (p *parser) funcDecl() (Node, error) {
	line := p.cur().Line
	p.advance() // function
	t := p.cur()
	if t.Kind != TokIdent {
		return nil, p.errf("expected function name")
	}
	p.advance()
	fn, err := p.function(line)
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Name: t.Text, FuncLit: *fn}, nil
}

// function parses a parameter list and a block body into a FuncLit.
func (p *parser) function(line int) (*FuncLit, error) {
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	args := p.args
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &FuncLit{Params: params, Body: body, Line: line, UsesArguments: p.args != args}, nil
}

func (p *parser) paramList() ([]string, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.isPunct(")") {
		p.eatPunct("...") // rest params collapse to a normal param
		t := p.cur()
		if t.Kind != TokIdent {
			return nil, p.errf("expected parameter name, found %q", t.Text)
		}
		p.advance()
		params = append(params, t.Text)
		// Default parameter values: parse and discard the default
		// expression (probe scripts rarely rely on them). No body holds
		// it, so its `arguments` count for no function.
		if p.eatPunct("=") {
			args := p.args
			_, err := p.assignExpr()
			p.args = args
			if err != nil {
				return nil, err
			}
		}
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *parser) block() (*BlockStmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &BlockStmt{}
	for !p.isPunct("}") {
		if p.atEOF() {
			return nil, p.errf("unterminated block")
		}
		stmt, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.Body = append(b.Body, stmt)
	}
	p.advance() // }
	return b, nil
}

func (p *parser) ifStmt() (Node, error) {
	p.advance() // if
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	stmt := &IfStmt{Cond: cond, Then: then}
	if p.isKeyword("else") {
		p.advance()
		els, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmt.Else = els
	}
	return stmt, nil
}

func (p *parser) whileStmt() (Node, error) {
	p.advance() // while
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body}, nil
}

func (p *parser) forStmt() (Node, error) {
	p.advance() // for
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var init, cond, post Node
	var err error
	if !p.isPunct(";") {
		if p.isKeyword("var") || p.isKeyword("let") || p.isKeyword("const") {
			init, err = p.varDecl() // consumes the following ';' via eatSemi
		} else {
			init, err = p.expression()
			if err == nil {
				err = p.expectPunct(";")
			}
		}
		if err != nil {
			return nil, err
		}
		// for-in / for-of are not supported; varDecl would have consumed
		// the ident, and the next token would be `in`/`of`.
		if p.isKeyword("in") || p.isKeyword("of") {
			return nil, p.errf("for-in/for-of loops are not supported")
		}
	} else {
		p.advance()
	}
	if !p.isPunct(";") {
		cond, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		post, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Init: init, Cond: cond, Post: post, Body: body}, nil
}

func (p *parser) switchStmt() (Node, error) {
	p.advance() // switch
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	tag, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	stmt := &SwitchStmt{Tag: tag}
	for !p.isPunct("}") {
		if p.atEOF() {
			return nil, p.errf("unterminated switch")
		}
		var c SwitchCase
		switch {
		case p.isKeyword("case"):
			p.advance()
			test, err := p.expression()
			if err != nil {
				return nil, err
			}
			c.Test = test
		case p.isKeyword("default"):
			p.advance()
		default:
			return nil, p.errf("expected case or default, found %q", p.cur().Text)
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		for !p.isKeyword("case") && !p.isKeyword("default") && !p.isPunct("}") {
			if p.atEOF() {
				return nil, p.errf("unterminated switch case")
			}
			s, err := p.statement()
			if err != nil {
				return nil, err
			}
			c.Body = append(c.Body, s)
		}
		stmt.Cases = append(stmt.Cases, c)
	}
	p.advance() // }
	return stmt, nil
}

func (p *parser) doWhileStmt() (Node, error) {
	p.advance() // do
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.isKeyword("while") {
		return nil, p.errf("expected while after do body")
	}
	p.advance()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	p.eatSemi()
	return &DoWhileStmt{Body: body, Cond: cond}, nil
}

func (p *parser) tryStmt() (Node, error) {
	p.advance() // try
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	stmt := &TryStmt{Body: body}
	if p.isKeyword("catch") {
		p.advance()
		if p.eatPunct("(") {
			t := p.cur()
			if t.Kind != TokIdent {
				return nil, p.errf("expected catch parameter")
			}
			p.advance()
			stmt.CatchVar = t.Text
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		c, err := p.block()
		if err != nil {
			return nil, err
		}
		stmt.Catch = c
	}
	if p.isKeyword("finally") {
		p.advance()
		f, err := p.block()
		if err != nil {
			return nil, err
		}
		stmt.Finally = f
	}
	if stmt.Catch == nil && stmt.Finally == nil {
		return nil, p.errf("try without catch or finally")
	}
	return stmt, nil
}

// ---- Expressions (precedence climbing) ----

func (p *parser) expression() (Node, error) {
	x, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	// Comma operator: evaluate both, yield the last.
	for p.isPunct(",") {
		line := p.cur().Line
		p.advance()
		y, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: ",", X: x, Y: y, Line: line}
	}
	return x, nil
}

func (p *parser) assignExpr() (Node, error) {
	// Arrow functions need lookahead: `ident =>` or `( params ) =>`.
	if fn, ok, err := p.tryArrow(); err != nil {
		return nil, err
	} else if ok {
		return fn, nil
	}
	x, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "=", "+=", "-=", "*=", "/=":
			if !assignable(x) {
				return nil, p.errf("invalid assignment target")
			}
			p.advance()
			val, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			return &Assign{Op: t.Text, Target: x, Val: val, Line: t.Line}, nil
		}
	}
	return x, nil
}

// tryArrow attempts to parse an arrow function at the current position.
func (p *parser) tryArrow() (Node, bool, error) {
	start := p.pos
	line := p.cur().Line
	// async (…) => — skip the async.
	if p.isKeyword("async") {
		p.advance()
	}
	var params []string
	switch {
	case p.cur().Kind == TokIdent:
		params = []string{p.cur().Text}
		p.advance()
	case p.isPunct("("):
		depth := 0
		// Scan ahead to check whether `) =>` follows; only then commit.
		i := p.pos
		for ; i < len(p.toks); i++ {
			t := p.toks[i]
			if t.Kind == TokPunct && t.Text == "(" {
				depth++
			}
			if t.Kind == TokPunct && t.Text == ")" {
				depth--
				if depth == 0 {
					break
				}
			}
			if t.Kind == TokEOF {
				break
			}
		}
		if i+1 >= len(p.toks) || p.toks[i+1].Kind != TokPunct || p.toks[i+1].Text != "=>" {
			p.pos = start
			return nil, false, nil
		}
		var err error
		params, err = p.paramList()
		if err != nil {
			p.pos = start
			return nil, false, nil
		}
	default:
		p.pos = start
		return nil, false, nil
	}
	if !p.isPunct("=>") {
		p.pos = start
		return nil, false, nil
	}
	p.advance() // =>
	fn := &FuncLit{Params: params, Line: line}
	args := p.args
	if p.isPunct("{") {
		body, err := p.block()
		if err != nil {
			return nil, false, err
		}
		fn.Body = body
	} else {
		x, err := p.assignExpr()
		if err != nil {
			return nil, false, err
		}
		fn.ExprBody = x
	}
	fn.UsesArguments = p.args != args
	return fn, true, nil
}

func (p *parser) condExpr() (Node, error) {
	x, err := p.binaryExpr(0)
	if err != nil {
		return nil, err
	}
	if p.isPunct("?") && !p.isPunct("?.") {
		p.advance()
		then, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		els, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{Test: x, Then: then, Else: els}, nil
	}
	return x, nil
}

// binary operator precedence, low to high.
var binaryPrec = map[string]int{
	"??": 1, "||": 1, "&&": 2,
	"|": 3, "^": 3, "&": 3,
	"==": 4, "!=": 4, "===": 4, "!==": 4,
	"<": 5, ">": 5, "<=": 5, ">=": 5, "in": 5,
	"+": 6, "-": 6,
	"*": 7, "/": 7, "%": 7,
}

func (p *parser) binaryExpr(minPrec int) (Node, error) {
	x, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		op := t.Text
		var prec int
		var ok bool
		if t.Kind == TokPunct {
			prec, ok = binaryPrec[op]
		} else if t.Kind == TokKeyword && op == "in" {
			prec, ok = binaryPrec[op]
		}
		if !ok || prec < minPrec {
			return x, nil
		}
		line := t.Line
		p.advance()
		y, err := p.binaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		switch op {
		case "&&", "||", "??":
			x = &Logical{Op: op, X: x, Y: y, Line: line}
		default:
			x = &Binary{Op: op, X: x, Y: y, Line: line}
		}
	}
}

func (p *parser) unaryExpr() (Node, error) {
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "!", "-", "+", "~":
			p.advance()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: t.Text, X: x}, nil
		case "++", "--":
			p.advance()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return updateExpr(t, x, true)
		}
	}
	if t.Kind == TokKeyword {
		switch t.Text {
		case "typeof", "delete", "await":
			p.advance()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			if t.Text == "await" {
				// Synchronous interpreter: await unwraps promises, which
				// resolve eagerly; it is the identity here.
				return x, nil
			}
			return &Unary{Op: t.Text, X: x}, nil
		case "new":
			p.advance()
			// Parse the member expression that names the constructor,
			// WITHOUT consuming call parentheses: `new Error().stack`
			// must group as (new Error()).stack.
			callee, err := p.memberExprNoCall()
			if err != nil {
				return nil, err
			}
			var args []Node
			if p.isPunct("(") {
				args, err = p.argList()
				if err != nil {
					return nil, err
				}
			}
			return p.postfixFrom(&Call{Fn: callee, Args: args, New: true, Line: t.Line})
		}
	}
	return p.postfixExpr()
}

// memberExprNoCall parses primary followed by dot/bracket accesses but
// stops before call parentheses (for `new` callees).
func (p *parser) memberExprNoCall() (Node, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return x, nil
		}
		switch t.Text {
		case ".":
			p.advance()
			name := p.cur()
			if name.Kind != TokIdent && name.Kind != TokKeyword {
				return nil, p.errf("expected property name after '.'")
			}
			p.advance()
			x = &Member{Obj: x, Name: name.Text, Line: t.Line}
		case "[":
			p.advance()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &Member{Obj: x, Index: idx, Line: t.Line}
		default:
			return x, nil
		}
	}
}

func (p *parser) postfixExpr() (Node, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	return p.postfixFrom(x)
}

// postfixFrom continues member/call/update suffixes on an already-parsed
// expression.
func (p *parser) postfixFrom(x Node) (Node, error) {
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return x, nil
		}
		switch t.Text {
		case ".", "?.":
			p.advance()
			// Optional call: fn?.(args).
			if t.Text == "?." && p.isPunct("(") {
				args, err := p.argList()
				if err != nil {
					return nil, err
				}
				x = &Call{Fn: x, Args: args, Optional: true, Line: t.Line}
				continue
			}
			name := p.cur()
			if name.Kind != TokIdent && name.Kind != TokKeyword {
				return nil, p.errf("expected property name after %q", t.Text)
			}
			p.advance()
			x = &Member{Obj: x, Name: name.Text, Optional: t.Text == "?.", Line: t.Line}
		case "[":
			p.advance()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &Member{Obj: x, Index: idx, Line: t.Line}
		case "(":
			args, err := p.argList()
			if err != nil {
				return nil, err
			}
			x = &Call{Fn: x, Args: args, Line: t.Line}
		case "++", "--":
			p.advance()
			u, err := updateExpr(t, x, false)
			if err != nil {
				return nil, err
			}
			x = u
		default:
			return x, nil
		}
	}
}

// assignable reports whether x may be written: only names and member
// accesses are references.
func assignable(x Node) bool {
	switch x.(type) {
	case *Ident, *Member:
		return true
	}
	return false
}

// updateExpr builds op's ++/-- node over x. Like a bad assignment
// target, a target that is not a reference is an early syntax error.
func updateExpr(op Tok, x Node, prefix bool) (Node, error) {
	if !assignable(x) {
		return nil, &SyntaxError{Line: op.Line, Msg: "invalid update target"}
	}
	return &Update{Op: op.Text, Target: x, Prefix: prefix}, nil
}

func (p *parser) argList() ([]Node, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Node
	for !p.isPunct(")") {
		if p.eatPunct("...") {
			x, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, &SpreadExpr{X: x})
		} else {
			x, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, x)
		}
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) primary() (Node, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.advance()
		return &Lit{Val: Number(t.Num)}, nil
	case TokString:
		p.advance()
		return &Lit{Val: String(t.Text)}, nil
	case TokTemplate:
		p.advance()
		return p.template(t.Text, t.Line)
	case TokIdent:
		p.advance()
		return p.ident(t.Text, t.Line), nil
	case TokKeyword:
		switch t.Text {
		case "true":
			p.advance()
			return &Lit{Val: Bool(true)}, nil
		case "false":
			p.advance()
			return &Lit{Val: Bool(false)}, nil
		case "null":
			p.advance()
			return &Lit{Val: Null()}, nil
		case "undefined":
			p.advance()
			return &Lit{Val: Undefined()}, nil
		case "this":
			p.advance()
			return &ThisExpr{}, nil
		case "function":
			return p.funcLit()
		case "async":
			p.advance()
			if p.isKeyword("function") {
				return p.funcLit()
			}
			return nil, p.errf("async without function")
		}
	case TokPunct:
		switch t.Text {
		case "(":
			p.advance()
			x, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return x, nil
		case "{":
			return p.objectLit()
		case "[":
			return p.arrayLit()
		}
	}
	return nil, p.errf("unexpected token %q", t.Text)
}

// ident makes an identifier node, counting it if it names `arguments`.
func (p *parser) ident(name string, line int) *Ident {
	if name == "arguments" {
		p.args++
	}
	return &Ident{Name: name, Line: line}
}

// template turns a template literal with ${...} interpolations into a
// string-concatenation expression. Nested braces inside the
// interpolation (object literals, blocks) are balanced. Each
// interpolation is parsed as a program of its own whose `arguments`
// add to p's count.
func (p *parser) template(raw string, line int) (Node, error) {
	var result Node = &Lit{Val: String("")}
	appendPart := func(n Node) {
		result = &Binary{Op: "+", X: result, Y: n, Line: line}
	}
	for i := 0; i < len(raw); {
		dollar := strings.Index(raw[i:], "${")
		if dollar < 0 {
			appendPart(&Lit{Val: String(raw[i:])})
			break
		}
		if dollar > 0 {
			appendPart(&Lit{Val: String(raw[i : i+dollar])})
		}
		i += dollar + 2
		depth := 1
		j := i
		for j < len(raw) && depth > 0 {
			switch raw[j] {
			case '{':
				depth++
			case '}':
				depth--
			}
			j++
		}
		if depth != 0 {
			return nil, &SyntaxError{Line: line, Msg: "unterminated ${ in template literal"}
		}
		sub := &parser{args: p.args}
		prog, err := sub.parse(raw[i : j-1])
		if err != nil {
			return nil, &SyntaxError{Line: line, Msg: "invalid template interpolation: " + err.Error()}
		}
		p.args = sub.args
		if len(prog.Body) != 1 {
			return nil, &SyntaxError{Line: line, Msg: "template interpolation must be a single expression"}
		}
		es, ok := prog.Body[0].(*ExprStmt)
		if !ok {
			return nil, &SyntaxError{Line: line, Msg: "template interpolation must be an expression"}
		}
		appendPart(es.X)
		i = j
	}
	return result, nil
}

func (p *parser) funcLit() (Node, error) {
	line := p.cur().Line
	p.advance() // function
	// Optional name (ignored; named function expressions are rare in
	// probe scripts).
	if p.cur().Kind == TokIdent {
		p.advance()
	}
	fn, err := p.function(line)
	if err != nil {
		return nil, err
	}
	return fn, nil
}

func (p *parser) objectLit() (Node, error) {
	p.advance() // {
	lit := &ObjectLit{}
	for !p.isPunct("}") {
		t := p.cur()
		var key string
		switch t.Kind {
		case TokIdent, TokKeyword, TokString:
			key = t.Text
			p.advance()
		case TokNumber:
			key = t.Text
			p.advance()
		default:
			return nil, p.errf("expected object key, found %q", t.Text)
		}
		var val Node
		if p.eatPunct(":") {
			v, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			val = v
		} else if p.isPunct("(") {
			// Shorthand method: key(params) { ... }
			fn, err := p.function(t.Line)
			if err != nil {
				return nil, err
			}
			val = fn
		} else {
			// Shorthand property {x} === {x: x}.
			val = p.ident(key, t.Line)
		}
		lit.Keys = append(lit.Keys, key)
		lit.Vals = append(lit.Vals, val)
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return lit, nil
}

func (p *parser) arrayLit() (Node, error) {
	p.advance() // [
	lit := &ArrayLit{}
	for !p.isPunct("]") {
		x, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		lit.Elems = append(lit.Elems, x)
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return lit, nil
}

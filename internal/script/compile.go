package script

// This file lowers a parsed *Program into the form the interpreter
// executes: every statement and expression becomes a Go closure, and
// locally declared names resolve to (hops, slot) indexes into
// frame-mode Envs instead of map lookups. Compiled programs are immutable and safe to
// execute concurrently from many interpreters — per-run state lives in
// the Interp and its environments, never in the compiled closures.
//
// The compile-time scope stack mirrors runtime frames EXACTLY: a scope
// is pushed if and only if the corresponding construct allocates a
// frame at runtime. Blocks that declare nothing push neither, so hop
// counts stay in sync. A frame slot left at the kindUnset sentinel does
// not bind its name yet: a declaration binds its name only when it
// executes, even though its slot exists from scope entry.

type execFn func(in *Interp, env *Env) error
type evalFn func(in *Interp, env *Env) (Value, error)

// Compiled is a program lowered to directly-executable closures.
type Compiled struct {
	top     []execFn
	hoisted []*hoistedDecl
}

// hoistedDecl is a function declaration hoisted to its scope's entry.
// slot is the frame slot to define it in, or -1 for dynamic Define
// (top-level declarations land in the map-mode global scope).
type hoistedDecl struct {
	name string
	slot int
	cf   *compiledFunc
}

// compiledFunc is the compiled form of a function body. One activation
// record holds the call's bindings and the body block's declarations:
// slot 0 is `this`, then parameters, an `arguments` slot only if the
// body mentions that identifier, then body-level declarations.
type compiledFunc struct {
	name       string
	paramSlots []int
	layout     *frameLayout
	argSlot    int // -1 when the body never mentions `arguments`
	hoisted    []*hoistedDecl
	body       []execFn
	expr       evalFn // expression-bodied arrows
	line       int
}

// Compile lowers a parsed program. It never mutates prog, and the
// result may be shared across goroutines and interpreters.
func Compile(prog *Program) (*Compiled, error) {
	hoisted, top, err := (&compiler{}).compileScope(prog.Body, nil)
	if err != nil {
		return nil, err
	}
	return &Compiled{top: top, hoisted: hoisted}, nil
}

// CompileSource parses and lowers src, failing with the parse or
// compile error.
func CompileSource(src string) (*Compiled, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(prog)
}

// RunCompiled executes a compiled program against the global scope:
// top-level function declarations bind first, then the statements run
// in order.
func (in *Interp) RunCompiled(p *Compiled, scriptURL string) error {
	in.steps = 0
	in.stack = append(in.stack, frame{fnName: "<script>", scriptURL: scriptURL})
	defer func() { in.stack = in.stack[:len(in.stack)-1] }()
	defineHoisted(in, in.Global, p.hoisted)
	for _, fn := range p.top {
		if err := fn(in, in.Global); err != nil {
			return err
		}
	}
	return nil
}

// callCompiled is the KindFunc call path for closures carrying compiled
// bodies: one slot frame instead of a map env per call.
func (in *Interp) callCompiled(c *Closure, this Value, args []Value) (Value, error) {
	cf := c.compiled
	env := newFrame(c.Env, cf.layout)
	env.slots[0] = this
	for i, slot := range cf.paramSlots {
		if i < len(args) {
			env.slots[slot] = args[i]
		} else {
			env.slots[slot] = Undefined()
		}
	}
	if cf.argSlot >= 0 {
		env.slots[cf.argSlot] = ArrayValue(args...)
	}
	name := c.Name
	if name == "" {
		name = "<anonymous>"
	}
	in.stack = append(in.stack, frame{fnName: name, scriptURL: c.ScriptURL, line: c.Line})
	defineHoisted(in, env, cf.hoisted)
	var ret Value
	var err error
	if cf.expr != nil {
		ret, err = cf.expr(in, env)
	} else {
		for _, fn := range cf.body {
			if err = fn(in, env); err != nil {
				break
			}
		}
		if rs, ok := err.(returnSignal); ok {
			ret, err = rs.v, nil
		}
	}
	in.stack = in.stack[:len(in.stack)-1]
	if err != nil {
		return Undefined(), err
	}
	return ret, nil
}

func defineHoisted(in *Interp, env *Env, hoisted []*hoistedDecl) {
	for _, h := range hoisted {
		v := FuncValue(&Closure{
			Name: h.name, compiled: h.cf,
			Env: env, ScriptURL: in.CurrentScriptURL(), Line: h.cf.line,
		})
		if h.slot >= 0 {
			env.slots[h.slot] = v
		} else {
			env.Define(h.name, v)
		}
	}
}

// ---- compiler ----

type compiler struct {
	scopes []*frameLayout // innermost last; one entry per runtime frame
}

func (c *compiler) push(fl *frameLayout) { c.scopes = append(c.scopes, fl) }
func (c *compiler) pop()                 { c.scopes = c.scopes[:len(c.scopes)-1] }

// resolve finds name in the compile-time scope stack, returning how
// many frames up it lives and at which slot.
func (c *compiler) resolve(name string) (hops, slot int, ok bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, found := c.scopes[i].slotOf[name]; found {
			return len(c.scopes) - 1 - i, s, true
		}
	}
	return 0, 0, false
}

func newLayout(names []string) *frameLayout {
	fl := &frameLayout{names: names, slotOf: make(map[string]int, len(names))}
	for i, n := range names {
		fl.slotOf[n] = i
	}
	return fl
}

// declNames collects the names execution binds in the scope owning
// stmts: direct VarDecl/FuncDecl children, recursing through
// constructs that execute sub-statements in the SAME env (SeqStmt, if
// branches, while/do-while bodies) and stopping at constructs that
// open their own scope (blocks, for, switch, try, function bodies).
func declNames(stmts []Node) []string {
	var out []string
	seen := map[string]bool{}
	var visit func(n Node)
	visit = func(n Node) {
		switch s := n.(type) {
		case *VarDecl:
			if !seen[s.Name] {
				seen[s.Name] = true
				out = append(out, s.Name)
			}
		case *FuncDecl:
			if !seen[s.Name] {
				seen[s.Name] = true
				out = append(out, s.Name)
			}
		case *SeqStmt:
			for _, b := range s.Body {
				visit(b)
			}
		case *IfStmt:
			visit(s.Then)
			if s.Else != nil {
				visit(s.Else)
			}
		case *WhileStmt:
			visit(s.Body)
		case *DoWhileStmt:
			visit(s.Body)
		}
	}
	for _, s := range stmts {
		visit(s)
	}
	return out
}

// findNode reports whether pred holds for any node in the subtree.
func findNode(n Node, pred func(Node) bool) bool {
	if n == nil {
		return false
	}
	if pred(n) {
		return true
	}
	find := func(m Node) bool { return findNode(m, pred) }
	findAll := func(ms []Node) bool {
		for _, m := range ms {
			if findNode(m, pred) {
				return true
			}
		}
		return false
	}
	switch s := n.(type) {
	case *Program:
		return findAll(s.Body)
	case *BlockStmt:
		return findAll(s.Body)
	case *SeqStmt:
		return findAll(s.Body)
	case *VarDecl:
		return find(s.Init)
	case *ExprStmt:
		return find(s.X)
	case *IfStmt:
		return find(s.Cond) || find(s.Then) || find(s.Else)
	case *WhileStmt:
		return find(s.Cond) || find(s.Body)
	case *DoWhileStmt:
		return find(s.Body) || find(s.Cond)
	case *ForStmt:
		return find(s.Init) || find(s.Cond) || find(s.Post) || find(s.Body)
	case *SwitchStmt:
		if find(s.Tag) {
			return true
		}
		for _, cs := range s.Cases {
			if find(cs.Test) || findAll(cs.Body) {
				return true
			}
		}
		return false
	case *ReturnStmt:
		return find(s.X)
	case *ThrowStmt:
		return find(s.X)
	case *TryStmt:
		if s.Body != nil && findAll(s.Body.Body) {
			return true
		}
		if s.Catch != nil && findAll(s.Catch.Body) {
			return true
		}
		return s.Finally != nil && findAll(s.Finally.Body)
	case *FuncDecl:
		if s.Body != nil {
			return findAll(s.Body.Body)
		}
		return false
	case *FuncLit:
		if s.Body != nil && findAll(s.Body.Body) {
			return true
		}
		return find(s.ExprBody)
	case *Member:
		return find(s.Obj) || find(s.Index)
	case *Call:
		return find(s.Fn) || findAll(s.Args)
	case *Unary:
		return find(s.X)
	case *Binary:
		return find(s.X) || find(s.Y)
	case *Logical:
		return find(s.X) || find(s.Y)
	case *Cond:
		return find(s.Test) || find(s.Then) || find(s.Else)
	case *Assign:
		return find(s.Target) || find(s.Val)
	case *Update:
		return find(s.Target)
	case *ObjectLit:
		return findAll(s.Vals)
	case *ArrayLit:
		return findAll(s.Elems)
	case *SpreadExpr:
		return find(s.X)
	}
	return false
}

func identUsed(name string, stmts []Node) bool {
	pred := func(n Node) bool {
		id, ok := n.(*Ident)
		return ok && id.Name == name
	}
	for _, s := range stmts {
		if findNode(s, pred) {
			return true
		}
	}
	return false
}

// compileFunc compiles a function body into a compiledFunc whose merged
// activation layout is slot 0 = this, then params, then an arguments
// slot if used, then body-level declarations.
func (c *compiler) compileFunc(name string, params []string, body *BlockStmt, exprBody Node, line int) (*compiledFunc, error) {
	fl := &frameLayout{slotOf: map[string]int{}}
	add := func(n string) int {
		if i, ok := fl.slotOf[n]; ok {
			return i
		}
		i := len(fl.names)
		fl.names = append(fl.names, n)
		fl.slotOf[n] = i
		return i
	}
	add("this")
	paramSlots := make([]int, len(params))
	for i, p := range params {
		paramSlots[i] = add(p)
	}
	var scan []Node
	if exprBody != nil {
		scan = []Node{exprBody}
	} else if body != nil {
		scan = body.Body
	}
	argSlot := -1
	if identUsed("arguments", scan) {
		argSlot = add("arguments")
	}
	if exprBody == nil {
		for _, n := range declNames(scan) {
			add(n)
		}
	}

	cf := &compiledFunc{
		name: name, paramSlots: paramSlots,
		layout: fl, argSlot: argSlot, line: line,
	}
	c.push(fl)
	defer c.pop()
	if exprBody != nil {
		x, err := c.compileExpr(exprBody)
		if err != nil {
			return nil, err
		}
		cf.expr = x
		return cf, nil
	}
	var err error
	if cf.hoisted, cf.body, err = c.compileScope(scan, fl.slotOf); err != nil {
		return nil, err
	}
	return cf, nil
}

// compileScope compiles the statements of a scope whose frame lays out
// slotOf (nil for the global scope): function declarations hoist to
// scope entry, defined in their slot or, without one, by dynamic
// Define; every other statement compiles in order.
func (c *compiler) compileScope(stmts []Node, slotOf map[string]int) ([]*hoistedDecl, []execFn, error) {
	var hoisted []*hoistedDecl
	var fns []execFn
	for _, stmt := range stmts {
		if fd, ok := stmt.(*FuncDecl); ok {
			cf, err := c.compileFunc(fd.Name, fd.Params, fd.Body, nil, fd.Line)
			if err != nil {
				return nil, nil, err
			}
			slot, laidOut := slotOf[fd.Name]
			if !laidOut {
				slot = -1
			}
			hoisted = append(hoisted, &hoistedDecl{name: fd.Name, slot: slot, cf: cf})
			continue
		}
		fn, err := c.compileStmt(stmt)
		if err != nil {
			return nil, nil, err
		}
		fns = append(fns, fn)
	}
	return hoisted, fns, nil
}

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
	hoisted []*declaredFunc
}

// declaredFunc is a compiled function declaration and the binder of the
// scope it declares in. A hoisted one binds at its scope's entry; one
// in executed position (a switch case, an if branch) when it runs.
type declaredFunc struct {
	cf   *compiledFunc
	bind func(env *Env, v Value)
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
	hoisted    []*declaredFunc
	body       []execFn
	expr       evalFn // expression-bodied arrows
	line       int
}

// Compile lowers a parsed program. It never mutates prog, and the
// result may be shared across goroutines and interpreters.
func Compile(prog *Program) (*Compiled, error) {
	hoisted, top, err := (&compiler{}).compileScope(prog.Body)
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

func defineHoisted(in *Interp, env *Env, hoisted []*declaredFunc) {
	for _, d := range hoisted {
		d.bind(env, d.cf.closure(in, env))
	}
}

// closure makes the function value of cf over env.
func (cf *compiledFunc) closure(in *Interp, env *Env) Value {
	return FuncValue(&Closure{
		Name: cf.name, compiled: cf,
		Env: env, ScriptURL: in.CurrentScriptURL(), Line: cf.line,
	})
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

// binder returns the one way a declaration binds its name, for var and
// for hoisted and executed function declarations alike: into the
// name's slot when the innermost frame laid it out (a var nested under
// if/while belongs to the enclosing block, whose layout includes it),
// otherwise by Define in the scope it runs in, the global map or an
// enclosing frame's spill.
func (c *compiler) binder(name string) func(env *Env, v Value) {
	if len(c.scopes) > 0 {
		if slot, ok := c.scopes[len(c.scopes)-1].slotOf[name]; ok {
			return func(env *Env, v Value) { env.slots[slot] = v }
		}
	}
	return func(env *Env, v Value) { env.Define(name, v) }
}

// compileDecl compiles a function declaration with its binder.
func (c *compiler) compileDecl(fd *FuncDecl) (*declaredFunc, error) {
	cf, err := c.compileFunc(fd.Name, &fd.FuncLit)
	if err != nil {
		return nil, err
	}
	return &declaredFunc{cf: cf, bind: c.binder(fd.Name)}, nil
}

// compileFunc compiles a function body into a compiledFunc whose merged
// activation layout is slot 0 = this, then params, then an arguments
// slot if the body uses it, then body-level declarations.
func (c *compiler) compileFunc(name string, fn *FuncLit) (*compiledFunc, error) {
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
	paramSlots := make([]int, len(fn.Params))
	for i, p := range fn.Params {
		paramSlots[i] = add(p)
	}
	argSlot := -1
	if fn.UsesArguments {
		argSlot = add("arguments")
	}
	var body []Node
	if fn.Body != nil {
		body = fn.Body.Body
	}
	for _, n := range declNames(body) {
		add(n)
	}

	cf := &compiledFunc{
		name: name, paramSlots: paramSlots,
		layout: fl, argSlot: argSlot, line: fn.Line,
	}
	c.push(fl)
	defer c.pop()
	var err error
	if fn.ExprBody != nil {
		cf.expr, err = c.compileExpr(fn.ExprBody)
	} else {
		cf.hoisted, cf.body, err = c.compileScope(body)
	}
	if err != nil {
		return nil, err
	}
	return cf, nil
}

// compileScope compiles the statements of the scope whose frame is the
// innermost layout (none for the global scope): function declarations
// hoist to scope entry, every other statement compiles in order.
func (c *compiler) compileScope(stmts []Node) ([]*declaredFunc, []execFn, error) {
	var hoisted []*declaredFunc
	var fns []execFn
	for _, stmt := range stmts {
		if fd, ok := stmt.(*FuncDecl); ok {
			d, err := c.compileDecl(fd)
			if err != nil {
				return nil, nil, err
			}
			hoisted = append(hoisted, d)
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

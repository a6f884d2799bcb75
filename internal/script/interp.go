package script

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
)

// Env is a lexical scope. It has two storage modes:
//
//   - map mode (layout == nil): a name→value map, used by the global
//     scope and every scope the tree-walking interpreter creates;
//   - frame mode (layout != nil): a compile-time slot layout plus a
//     flat value slice, used by compiled activation records so a scope
//     costs one slice instead of a map allocation per entry.
//
// A frame slot whose value is the unset sentinel does not bind its name
// yet — hoisted slots come into existence only when their declaration
// executes, matching the map mode's "no key until Define" semantics.
type Env struct {
	vars   map[string]Value
	parent *Env
	layout *frameLayout
	slots  []Value
}

// kindUnset marks a frame slot whose declaration has not executed yet.
// It never escapes the Env accessors.
const kindUnset Kind = 0xFF

// frameLayout is the immutable compile-time shape of a frame-mode
// scope: slot names, their indexes, and whether frames of this shape
// may be recycled through the frame pool (no closure created anywhere
// in the scope's body can capture them).
type frameLayout struct {
	names    []string
	slotOf   map[string]int
	poolable bool
}

// framePool recycles poolable activation frames (and their slot
// slices) across compiled calls and block entries.
var framePool = sync.Pool{New: func() any { return &Env{} }}

// newFrame creates (or recycles) a frame-mode scope for a layout.
func newFrame(parent *Env, fl *frameLayout) *Env {
	n := len(fl.names)
	var e *Env
	if fl.poolable {
		e = framePool.Get().(*Env)
	} else {
		e = &Env{}
	}
	e.parent, e.layout, e.vars = parent, fl, nil
	if cap(e.slots) >= n {
		e.slots = e.slots[:n]
	} else {
		e.slots = make([]Value, n)
	}
	for i := range e.slots {
		e.slots[i] = Value{kind: kindUnset}
	}
	return e
}

// releaseFrame returns a poolable frame to the pool, dropping every
// value reference it holds.
func releaseFrame(e *Env) {
	for i := range e.slots {
		e.slots[i] = Value{}
	}
	e.parent, e.layout = nil, nil
	e.slots = e.slots[:0]
	framePool.Put(e)
}

// NewEnv creates a map-mode scope nested in parent (nil for the global
// scope).
func NewEnv(parent *Env) *Env {
	return &Env{vars: map[string]Value{}, parent: parent}
}

// Define declares a variable in this scope.
func (e *Env) Define(name string, v Value) {
	if e.layout != nil {
		if i, ok := e.layout.slotOf[name]; ok {
			e.slots[i] = v
			return
		}
		// A name the compiler did not lay out (host interop): spill to a
		// lazily-allocated side map.
		if e.vars == nil {
			e.vars = map[string]Value{}
		}
	}
	e.vars[name] = v
}

// Get resolves a name through the scope chain.
func (e *Env) Get(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if s.layout != nil {
			if i, ok := s.layout.slotOf[name]; ok {
				if v := s.slots[i]; v.kind != kindUnset {
					return v, true
				}
				continue // hoisted but not yet declared — keep walking
			}
			if s.vars != nil {
				if v, ok := s.vars[name]; ok {
					return v, true
				}
			}
			continue
		}
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return Undefined(), false
}

// Assign sets an existing binding, or defines globally if absent
// (sloppy-mode semantics, which real probe scripts rely on).
func (e *Env) Assign(name string, v Value) {
	for s := e; s != nil; s = s.parent {
		if s.layout != nil {
			if i, ok := s.layout.slotOf[name]; ok && s.slots[i].kind != kindUnset {
				s.slots[i] = v
				return
			}
			if s.vars != nil {
				if _, ok := s.vars[name]; ok {
					s.vars[name] = v
					return
				}
			}
		} else if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return
		}
		if s.parent == nil {
			if s.vars == nil {
				s.vars = map[string]Value{}
			}
			s.vars[name] = v
			return
		}
	}
}

// envUp walks hops parents up the scope chain.
func envUp(e *Env, hops int) *Env {
	for ; hops > 0; hops-- {
		e = e.parent
	}
	return e
}

// control-flow sentinels.
type breakSignal struct{}
type continueSignal struct{}
type returnSignal struct{ v Value }

func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }
func (returnSignal) Error() string   { return "return outside function" }

// Thrown carries a JS-thrown value through Go error returns.
type Thrown struct{ V Value }

func (t *Thrown) Error() string { return "uncaught: " + t.V.ToString() }

// RuntimeError is an interpreter-level failure (TypeError analogue).
type RuntimeError struct {
	Msg  string
	Line int
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("script runtime error at line %d: %s", e.Line, e.Msg)
}

// ErrBudget is returned when a script exceeds its step budget — the
// analogue of the crawler's per-page timeout for runaway scripts.
var ErrBudget = errors.New("script: step budget exhausted")

// frame is one call-stack entry.
type frame struct {
	fnName    string
	scriptURL string
	line      int
}

// Interp executes programs against a shared global environment (one
// realm per document, like a browser).
type Interp struct {
	Global *Env
	// MaxSteps bounds evaluation steps per Run call.
	MaxSteps int
	// Host lets embedders (the webapi realm) attach per-realm state that
	// shared native functions recover at call time — the indirection that
	// makes one immutable global-object template serve every realm.
	Host  any
	steps int
	stack []frame
	// rng is a deterministic LCG for Math.random, keeping crawls
	// reproducible (C1-C14 of the paper's reproducibility appendix).
	rng uint64
}

// NewInterp creates an interpreter with standard builtins installed.
// The builtins come from a shared sealed snapshot rather than being
// rebuilt: constructing a realm costs a few copy-on-write stubs, not
// hundreds of fresh natives.
func NewInterp() *Interp {
	in := NewBareInterp()
	in.InstallSnapshot(builtinsSnapshot())
	return in
}

// Run parses and executes src. scriptURL labels stack frames for
// 1P/3P attribution.
func (in *Interp) Run(src, scriptURL string) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	return in.RunProgram(prog, scriptURL)
}

// RunProgram executes a parsed program.
func (in *Interp) RunProgram(prog *Program, scriptURL string) error {
	in.steps = 0
	in.stack = append(in.stack, frame{fnName: "<script>", scriptURL: scriptURL})
	defer func() { in.stack = in.stack[:len(in.stack)-1] }()
	// Hoist function declarations.
	for _, stmt := range prog.Body {
		if fd, ok := stmt.(*FuncDecl); ok {
			in.Global.Define(fd.Name, FuncValue(&Closure{
				Name: fd.Name, Params: fd.Params, Body: fd.Body,
				Env: in.Global, ScriptURL: scriptURL, Line: fd.Line,
			}))
		}
	}
	for _, stmt := range prog.Body {
		if _, ok := stmt.(*FuncDecl); ok {
			continue
		}
		if err := in.exec(stmt, in.Global); err != nil {
			return err
		}
	}
	return nil
}

// CurrentScriptURL reports the script URL of the innermost frame — the
// instrumentation's view of "who called this API".
func (in *Interp) CurrentScriptURL() string {
	if len(in.stack) == 0 {
		return ""
	}
	return in.stack[len(in.stack)-1].scriptURL
}

// StackTrace renders the call stack the way the paper's Figure 1
// captures it via new Error().stack.
func (in *Interp) StackTrace() string {
	var b strings.Builder
	b.WriteString("Error")
	for i := len(in.stack) - 1; i >= 0; i-- {
		f := in.stack[i]
		fmt.Fprintf(&b, "\n    at %s (%s:%d)", f.fnName, f.scriptURL, f.line)
	}
	return b.String()
}

// CallFunction invokes a callable Value from Go (used by the browser to
// fire event handlers and promise callbacks).
func (in *Interp) CallFunction(fn Value, this Value, args []Value) (Value, error) {
	return in.call(fn, this, args, 0)
}

func (in *Interp) step(line int) error {
	in.steps++
	if in.steps > in.MaxSteps {
		return ErrBudget
	}
	_ = line
	return nil
}

func (in *Interp) rterr(line int, format string, args ...any) error {
	return &RuntimeError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// ---- statement execution ----

func (in *Interp) exec(n Node, env *Env) error {
	if err := in.step(0); err != nil {
		return err
	}
	switch s := n.(type) {
	case *SeqStmt:
		for _, stmt := range s.Body {
			if err := in.exec(stmt, env); err != nil {
				return err
			}
		}
		return nil
	case *BlockStmt:
		inner := NewEnv(env)
		// Hoist nested function declarations.
		for _, stmt := range s.Body {
			if fd, ok := stmt.(*FuncDecl); ok {
				inner.Define(fd.Name, FuncValue(&Closure{
					Name: fd.Name, Params: fd.Params, Body: fd.Body,
					Env: inner, ScriptURL: in.CurrentScriptURL(), Line: fd.Line,
				}))
			}
		}
		for _, stmt := range s.Body {
			if _, ok := stmt.(*FuncDecl); ok {
				continue
			}
			if err := in.exec(stmt, inner); err != nil {
				return err
			}
		}
		return nil
	case *VarDecl:
		v := Undefined()
		if s.Init != nil {
			var err error
			v, err = in.eval(s.Init, env)
			if err != nil {
				return err
			}
		}
		env.Define(s.Name, v)
		return nil
	case *ExprStmt:
		_, err := in.eval(s.X, env)
		return err
	case *IfStmt:
		cond, err := in.eval(s.Cond, env)
		if err != nil {
			return err
		}
		if cond.Truthy() {
			return in.exec(s.Then, env)
		}
		if s.Else != nil {
			return in.exec(s.Else, env)
		}
		return nil
	case *WhileStmt:
		for {
			cond, err := in.eval(s.Cond, env)
			if err != nil {
				return err
			}
			if !cond.Truthy() {
				return nil
			}
			if err := in.execLoopBody(s.Body, env); err != nil {
				if _, brk := err.(breakSignal); brk {
					return nil
				}
				return err
			}
		}
	case *ForStmt:
		inner := NewEnv(env)
		if s.Init != nil {
			if err := in.exec(asStmt(s.Init), inner); err != nil {
				return err
			}
		}
		for {
			if s.Cond != nil {
				cond, err := in.eval(s.Cond, inner)
				if err != nil {
					return err
				}
				if !cond.Truthy() {
					return nil
				}
			}
			if err := in.execLoopBody(s.Body, inner); err != nil {
				if _, brk := err.(breakSignal); brk {
					return nil
				}
				return err
			}
			if s.Post != nil {
				if _, err := in.eval(s.Post, inner); err != nil {
					return err
				}
			}
		}
	case *SwitchStmt:
		tag, err := in.eval(s.Tag, env)
		if err != nil {
			return err
		}
		matched := -1
		defaultIdx := -1
		for i, c := range s.Cases {
			if c.Test == nil {
				defaultIdx = i
				continue
			}
			tv, err := in.eval(c.Test, env)
			if err != nil {
				return err
			}
			if StrictEquals(tag, tv) {
				matched = i
				break
			}
		}
		if matched < 0 {
			matched = defaultIdx
		}
		if matched < 0 {
			return nil
		}
		inner := NewEnv(env)
		for i := matched; i < len(s.Cases); i++ { // fallthrough semantics
			for _, stmt := range s.Cases[i].Body {
				if err := in.exec(stmt, inner); err != nil {
					if _, brk := err.(breakSignal); brk {
						return nil
					}
					return err
				}
			}
		}
		return nil
	case *DoWhileStmt:
		for {
			if err := in.execLoopBody(s.Body, env); err != nil {
				if _, brk := err.(breakSignal); brk {
					return nil
				}
				return err
			}
			cond, err := in.eval(s.Cond, env)
			if err != nil {
				return err
			}
			if !cond.Truthy() {
				return nil
			}
		}
	case *ReturnStmt:
		v := Undefined()
		if s.X != nil {
			var err error
			v, err = in.eval(s.X, env)
			if err != nil {
				return err
			}
		}
		return returnSignal{v: v}
	case *BreakStmt:
		return breakSignal{}
	case *ContinueStmt:
		return continueSignal{}
	case *ThrowStmt:
		v, err := in.eval(s.X, env)
		if err != nil {
			return err
		}
		return &Thrown{V: v}
	case *TryStmt:
		err := in.exec(s.Body, env)
		var thrown *Thrown
		if err != nil && errors.As(err, &thrown) && s.Catch != nil {
			inner := NewEnv(env)
			if s.CatchVar != "" {
				inner.Define(s.CatchVar, thrown.V)
			}
			err = in.exec(s.Catch, inner)
		} else if rt := (&RuntimeError{}); err != nil && errors.As(err, &rt) && s.Catch != nil {
			// Host TypeErrors are catchable, like in a browser.
			inner := NewEnv(env)
			if s.CatchVar != "" {
				eo := NewObject()
				eo.Class = "Error"
				eo.Set("message", String(rt.Msg))
				inner.Define(s.CatchVar, ObjectValue(eo))
			}
			err = in.exec(s.Catch, inner)
		}
		if s.Finally != nil {
			if ferr := in.exec(s.Finally, env); ferr != nil {
				return ferr
			}
		}
		return err
	case *FuncDecl:
		env.Define(s.Name, FuncValue(&Closure{
			Name: s.Name, Params: s.Params, Body: s.Body,
			Env: env, ScriptURL: in.CurrentScriptURL(), Line: s.Line,
		}))
		return nil
	default:
		// Expression used in statement position (from for-init).
		_, err := in.eval(n, env)
		return err
	}
}

// execLoopBody runs a loop body, translating continue into nil.
func (in *Interp) execLoopBody(body Node, env *Env) error {
	err := in.exec(body, env)
	if _, cont := err.(continueSignal); cont {
		return nil
	}
	return err
}

func asStmt(n Node) Node { return n }

// ---- expression evaluation ----

func (in *Interp) eval(n Node, env *Env) (Value, error) {
	if err := in.step(0); err != nil {
		return Undefined(), err
	}
	switch e := n.(type) {
	case *Lit:
		return e.Val, nil
	case *Ident:
		if v, ok := env.Get(e.Name); ok {
			return v, nil
		}
		return Undefined(), in.rterr(e.Line, "%s is not defined", e.Name)
	case *ThisExpr:
		if v, ok := env.Get("this"); ok {
			return v, nil
		}
		return Undefined(), nil
	case *Member:
		obj, err := in.eval(e.Obj, env)
		if err != nil {
			return Undefined(), err
		}
		if e.Optional && (obj.IsUndefined() || obj.IsNull()) {
			return Undefined(), nil
		}
		if e.Index != nil {
			idx, err := in.eval(e.Index, env)
			if err != nil {
				return Undefined(), err
			}
			return in.getIndexed(obj, idx, e.Line)
		}
		return in.getMember(obj, e.Name, e.Line)
	case *Call:
		return in.evalCall(e, env)
	case *Unary:
		x, err := in.eval(e.X, env)
		if err != nil {
			if e.Op == "typeof" {
				// typeof of an undefined variable is "undefined", not an error.
				var rt *RuntimeError
				if errors.As(err, &rt) && strings.HasSuffix(rt.Msg, "is not defined") {
					return String("undefined"), nil
				}
			}
			return Undefined(), err
		}
		return applyUnary(e.Op, x)
	case *Binary:
		return in.evalBinary(e, env)
	case *Logical:
		x, err := in.eval(e.X, env)
		if err != nil {
			return Undefined(), err
		}
		switch e.Op {
		case "&&":
			if !x.Truthy() {
				return x, nil
			}
		case "||":
			if x.Truthy() {
				return x, nil
			}
		case "??":
			if !x.IsUndefined() && !x.IsNull() {
				return x, nil
			}
		}
		return in.eval(e.Y, env)
	case *Cond:
		t, err := in.eval(e.Test, env)
		if err != nil {
			return Undefined(), err
		}
		if t.Truthy() {
			return in.eval(e.Then, env)
		}
		return in.eval(e.Else, env)
	case *Assign:
		return in.evalAssign(e, env)
	case *Update:
		delta := 1.0
		if e.Op == "--" {
			delta = -1
		}
		// Member targets resolve base and index exactly once, shared by
		// the read and the write (a[f()]++ must call f once).
		if m, ok := e.Target.(*Member); ok {
			ref, err := in.resolveRef(m, env)
			if err != nil {
				return Undefined(), err
			}
			cur, err := in.readRef(ref, m.Line)
			if err != nil {
				return Undefined(), err
			}
			nv := Number(cur.ToNumber() + delta)
			if err := in.writeRef(ref, nv, m.Line); err != nil {
				return Undefined(), err
			}
			return nv, nil
		}
		cur, err := in.eval(e.Target, env)
		if err != nil {
			return Undefined(), err
		}
		nv := Number(cur.ToNumber() + delta)
		id, ok := e.Target.(*Ident)
		if !ok {
			return Undefined(), in.rterr(0, "invalid update target %T", e.Target)
		}
		env.Assign(id.Name, nv)
		return nv, nil
	case *ObjectLit:
		o := NewObject()
		for i, k := range e.Keys {
			v, err := in.eval(e.Vals[i], env)
			if err != nil {
				return Undefined(), err
			}
			o.Set(k, v)
		}
		return ObjectValue(o), nil
	case *ArrayLit:
		elems := make([]Value, 0, len(e.Elems))
		for _, el := range e.Elems {
			v, err := in.eval(el, env)
			if err != nil {
				return Undefined(), err
			}
			elems = append(elems, v)
		}
		return ArrayValue(elems...), nil
	case *FuncLit:
		return FuncValue(&Closure{
			Params: e.Params, Body: e.Body, ExprBody: e.ExprBody,
			Env: env, ScriptURL: in.CurrentScriptURL(), Line: e.Line,
		}), nil
	case *SpreadExpr:
		return in.eval(e.X, env)
	}
	return Undefined(), in.rterr(0, "cannot evaluate %T", n)
}

func (in *Interp) evalBinary(e *Binary, env *Env) (Value, error) {
	x, err := in.eval(e.X, env)
	if err != nil {
		return Undefined(), err
	}
	y, err := in.eval(e.Y, env)
	if err != nil {
		return Undefined(), err
	}
	return applyBinary(e.Op, x, y, e.Line)
}

// applyUnary applies a unary operator to an evaluated operand. Pure,
// shared by the tree-walking and compiled paths (and compile-time
// folding). delete is evaluate-and-ignore: the interpreter has no
// property deletion, matching the tree-walker's historic behavior.
func applyUnary(op string, x Value) (Value, error) {
	switch op {
	case "!":
		return Bool(!x.Truthy()), nil
	case "-":
		return Number(-x.ToNumber()), nil
	case "+":
		return Number(x.ToNumber()), nil
	case "~":
		return Number(float64(^int64(x.ToNumber()))), nil
	case "typeof":
		return String(x.TypeOf()), nil
	case "delete":
		return Bool(true), nil
	}
	return Undefined(), &RuntimeError{Msg: fmt.Sprintf("unknown unary %q", op)}
}

// applyBinary applies a (non-short-circuit) binary operator to two
// already-evaluated values. It is pure, so the compiler folds constant
// operands through it at compile time, and the tree-walking and
// compiled paths share it for identical semantics.
func applyBinary(op string, x, y Value, line int) (Value, error) {
	switch op {
	case ",":
		return y, nil
	case "+":
		if x.kind == KindString || y.kind == KindString ||
			x.kind == KindArray || y.kind == KindArray ||
			x.kind == KindObject || y.kind == KindObject {
			return String(x.ToString() + y.ToString()), nil
		}
		return Number(x.ToNumber() + y.ToNumber()), nil
	case "-":
		return Number(x.ToNumber() - y.ToNumber()), nil
	case "*":
		return Number(x.ToNumber() * y.ToNumber()), nil
	case "/":
		return Number(x.ToNumber() / y.ToNumber()), nil
	case "%":
		return Number(math.Mod(x.ToNumber(), y.ToNumber())), nil
	case "==":
		return Bool(LooseEquals(x, y)), nil
	case "!=":
		return Bool(!LooseEquals(x, y)), nil
	case "===":
		return Bool(StrictEquals(x, y)), nil
	case "!==":
		return Bool(!StrictEquals(x, y)), nil
	case "<", ">", "<=", ">=":
		if x.kind == KindString && y.kind == KindString {
			switch op {
			case "<":
				return Bool(x.s < y.s), nil
			case ">":
				return Bool(x.s > y.s), nil
			case "<=":
				return Bool(x.s <= y.s), nil
			default:
				return Bool(x.s >= y.s), nil
			}
		}
		a, b := x.ToNumber(), y.ToNumber()
		switch op {
		case "<":
			return Bool(a < b), nil
		case ">":
			return Bool(a > b), nil
		case "<=":
			return Bool(a <= b), nil
		default:
			return Bool(a >= b), nil
		}
	case "&":
		return Number(float64(int64(x.ToNumber()) & int64(y.ToNumber()))), nil
	case "|":
		return Number(float64(int64(x.ToNumber()) | int64(y.ToNumber()))), nil
	case "^":
		return Number(float64(int64(x.ToNumber()) ^ int64(y.ToNumber()))), nil
	case "in":
		if y.kind == KindObject {
			_, ok := y.obj.Get(x.ToString())
			return Bool(ok), nil
		}
		return Bool(false), nil
	}
	return Undefined(), &RuntimeError{Line: line, Msg: fmt.Sprintf("unknown operator %q", op)}
}

func (in *Interp) evalAssign(e *Assign, env *Env) (Value, error) {
	switch t := e.Target.(type) {
	case *Ident:
		var cur Value
		if e.Op != "=" {
			var err error
			cur, err = in.eval(t, env)
			if err != nil {
				return Undefined(), err
			}
		}
		val, err := in.eval(e.Val, env)
		if err != nil {
			return Undefined(), err
		}
		if e.Op != "=" {
			val, err = applyBinary(strings.TrimSuffix(e.Op, "="), cur, val, e.Line)
			if err != nil {
				return Undefined(), err
			}
		}
		env.Assign(t.Name, val)
		return val, nil
	case *Member:
		// The base and index evaluate exactly once, shared by the
		// compound-op read and the final write (a[i++] += 1 bumps i once).
		ref, err := in.resolveRef(t, env)
		if err != nil {
			return Undefined(), err
		}
		var cur Value
		if e.Op != "=" {
			cur, err = in.readRef(ref, t.Line)
			if err != nil {
				return Undefined(), err
			}
		}
		val, err := in.eval(e.Val, env)
		if err != nil {
			return Undefined(), err
		}
		if e.Op != "=" {
			val, err = applyBinary(strings.TrimSuffix(e.Op, "="), cur, val, e.Line)
			if err != nil {
				return Undefined(), err
			}
		}
		if err := in.writeRef(ref, val, e.Line); err != nil {
			return Undefined(), err
		}
		return val, nil
	}
	return Undefined(), in.rterr(e.Line, "invalid assignment target %T", e.Target)
}

// memberRef is a member-assignment target with its base (and computed
// index, if any) already evaluated — each exactly once.
type memberRef struct {
	base   Value
	name   string // dot access
	idx    Value  // bracket access
	hasIdx bool
}

// resolveRef evaluates a member target's base and index expressions.
func (in *Interp) resolveRef(m *Member, env *Env) (memberRef, error) {
	base, err := in.eval(m.Obj, env)
	if err != nil {
		return memberRef{}, err
	}
	ref := memberRef{base: base, name: m.Name}
	if m.Index != nil {
		idx, err := in.eval(m.Index, env)
		if err != nil {
			return memberRef{}, err
		}
		ref.idx, ref.hasIdx = idx, true
	}
	return ref, nil
}

func (in *Interp) readRef(ref memberRef, line int) (Value, error) {
	if ref.hasIdx {
		return in.getIndexed(ref.base, ref.idx, line)
	}
	return in.getMember(ref.base, ref.name, line)
}

func (in *Interp) writeRef(ref memberRef, val Value, line int) error {
	if ref.hasIdx {
		return in.setIndexed(ref.base, ref.idx, val, line)
	}
	return in.setMember(ref.base, ref.name, val, line)
}

// arrayIndex reports whether idx selects an array element: a
// non-negative integer number. Everything else — negative, fractional,
// NaN, strings — addresses an object-style property instead.
func arrayIndex(idx Value) (int, bool) {
	if idx.kind != KindNumber {
		return 0, false
	}
	i := int(idx.n)
	if float64(i) != idx.n || i < 0 {
		return 0, false
	}
	return i, true
}

// getIndexed resolves obj[idx]: the array element fast path, then the
// generic member surface keyed by ToString(idx).
func (in *Interp) getIndexed(obj, idx Value, line int) (Value, error) {
	if obj.kind == KindArray {
		if i, ok := arrayIndex(idx); ok {
			if i < len(obj.arr.Elems) {
				return obj.arr.Elems[i], nil
			}
			return Undefined(), nil
		}
	}
	return in.getMember(obj, idx.ToString(), line)
}

// maxArrayGrow bounds how far a single out-of-range element write may
// extend an array — a runtime error beats an unbounded allocation from
// a[1e9] = x inside a hostile script.
const maxArrayGrow = 1 << 20

// setIndexed implements obj[idx] = val.
func (in *Interp) setIndexed(obj, idx, val Value, line int) error {
	if obj.kind == KindArray {
		if i, ok := arrayIndex(idx); ok {
			if i >= maxArrayGrow {
				return in.rterr(line, "array index %d exceeds growth limit", i)
			}
			for len(obj.arr.Elems) <= i {
				obj.arr.Elems = append(obj.arr.Elems, Undefined())
			}
			obj.arr.Elems[i] = val
			return nil
		}
	}
	return in.setMember(obj, idx.ToString(), val, line)
}

// setMember implements obj.name = val for every assignable base kind.
func (in *Interp) setMember(obj Value, name string, val Value, line int) error {
	switch obj.kind {
	case KindObject:
		obj.obj.Set(name, val)
		return nil
	case KindArray:
		// JS arrays are objects: non-element keys land in the property
		// bag (ignored by JSON serialization, like real JSON.stringify).
		if obj.arr.Props == nil {
			obj.arr.Props = map[string]Value{}
		}
		obj.arr.Props[name] = val
		return nil
	}
	return in.rterr(line, "cannot set property %q of %s", name, obj.TypeOf())
}

func (in *Interp) evalCall(e *Call, env *Env) (Value, error) {
	var this Value = Undefined()
	var fn Value
	var err error
	var calleeName string
	if m, ok := e.Fn.(*Member); ok && m.Index == nil {
		this, err = in.eval(m.Obj, env)
		if err != nil {
			return Undefined(), err
		}
		if m.Optional && (this.IsUndefined() || this.IsNull()) {
			return Undefined(), nil
		}
		fn, err = in.getMember(this, m.Name, m.Line)
		if err != nil {
			return Undefined(), err
		}
		calleeName = m.Name
	} else {
		fn, err = in.eval(e.Fn, env)
		if err != nil {
			return Undefined(), err
		}
		if id, ok := e.Fn.(*Ident); ok {
			calleeName = id.Name
		}
	}
	args := make([]Value, 0, len(e.Args))
	for _, a := range e.Args {
		if sp, ok := a.(*SpreadExpr); ok {
			v, err := in.eval(sp.X, env)
			if err != nil {
				return Undefined(), err
			}
			if v.kind == KindArray {
				args = append(args, v.arr.Elems...)
			} else {
				args = append(args, v)
			}
			continue
		}
		v, err := in.eval(a, env)
		if err != nil {
			return Undefined(), err
		}
		args = append(args, v)
	}
	if !fn.IsCallable() {
		if e.Optional && (fn.IsUndefined() || fn.IsNull()) {
			return Undefined(), nil
		}
		if calleeName == "" {
			calleeName = "value"
		}
		return Undefined(), in.rterr(e.Line, "%s is not a function", calleeName)
	}
	if e.New {
		return in.construct(fn, args, e.Line)
	}
	return in.call(fn, this, args, e.Line)
}

// construct implements `new`: natives act as constructors directly;
// closures get a fresh `this` object.
func (in *Interp) construct(fn Value, args []Value, line int) (Value, error) {
	if fn.kind == KindNative {
		return in.call(fn, Undefined(), args, line)
	}
	thisObj := ObjectValue(NewObject())
	ret, err := in.call(fn, thisObj, args, line)
	if err != nil {
		return Undefined(), err
	}
	if ret.kind == KindObject || ret.kind == KindArray {
		return ret, nil
	}
	return thisObj, nil
}

func (in *Interp) call(fn Value, this Value, args []Value, line int) (Value, error) {
	if len(in.stack) > 200 {
		return Undefined(), in.rterr(line, "maximum call stack size exceeded")
	}
	if fn.kind == KindObject && fn.obj.Call != nil {
		in.stack = append(in.stack, frame{fnName: fn.obj.Call.Name, scriptURL: in.CurrentScriptURL(), line: line})
		v, err := fn.obj.Call.Fn(in, this, args)
		in.stack = in.stack[:len(in.stack)-1]
		return v, err
	}
	switch fn.kind {
	case KindNative:
		in.stack = append(in.stack, frame{fnName: fn.nat.Name, scriptURL: in.CurrentScriptURL(), line: line})
		v, err := fn.nat.Fn(in, this, args)
		in.stack = in.stack[:len(in.stack)-1]
		return v, err
	case KindFunc:
		c := fn.fn
		if c.compiled != nil {
			return in.callCompiled(c, this, args)
		}
		env := NewEnv(c.Env)
		env.Define("this", this)
		for i, p := range c.Params {
			if i < len(args) {
				env.Define(p, args[i])
			} else {
				env.Define(p, Undefined())
			}
		}
		env.Define("arguments", ArrayValue(args...))
		name := c.Name
		if name == "" {
			name = "<anonymous>"
		}
		in.stack = append(in.stack, frame{fnName: name, scriptURL: c.ScriptURL, line: c.Line})
		defer func() { in.stack = in.stack[:len(in.stack)-1] }()
		if c.ExprBody != nil {
			return in.eval(c.ExprBody, env)
		}
		err := in.exec(c.Body, env)
		if rs, ok := err.(returnSignal); ok {
			return rs.v, nil
		}
		if err != nil {
			return Undefined(), err
		}
		return Undefined(), nil
	}
	return Undefined(), in.rterr(line, "not callable")
}

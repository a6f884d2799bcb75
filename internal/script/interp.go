package script

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Env is a lexical scope. It has two storage modes:
//
//   - map mode (layout == nil): a name→value map, used by the global
//     scope, whose names are only known at run time;
//   - frame mode (layout != nil): a compile-time slot layout plus a
//     flat value slice, used by activation records and block scopes so
//     a scope costs one slice instead of a map allocation per entry.
//     A name the layout lacks (a var whose block opened no frame, a
//     host Define) spills into the same lazily allocated map.
//
// A name is bound only once its declaration executes: a frame slot
// holding the unset sentinel does not bind its name yet, just as a map
// has no key until Define, so a lookup walks past it to outer scopes.
//
// A global scope that installed a snapshot binds its globals lazily:
// lazy resolves a snapshot name the map lacks on its first read and
// stores it in the map (InstallSnapshot).
type Env struct {
	vars   map[string]Value
	parent *Env
	layout *frameLayout
	slots  []Value
	lazy   *localizer
}

// kindUnset marks a frame slot whose declaration has not executed yet.
// It never escapes the Env accessors.
const kindUnset Kind = 0xFF

// frameLayout is the immutable compile-time shape of a frame-mode
// scope: slot names and their indexes.
type frameLayout struct {
	names  []string
	slotOf map[string]int
}

// newFrame creates a frame-mode scope for a layout, every slot unset.
// A frame is an ordinary allocation: closures may capture it, and the
// collector reclaims it once nothing does.
func newFrame(parent *Env, fl *frameLayout) *Env {
	slots := make([]Value, len(fl.names))
	for i := range slots {
		slots[i].kind = kindUnset
	}
	return &Env{parent: parent, layout: fl, slots: slots}
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
		if s.lazy != nil {
			if t, ok := s.lazy.snap.vals[name]; ok {
				v := s.lazy.value(t)
				s.vars[name] = v
				return v, true
			}
		}
	}
	return Undefined(), false
}

// Assign sets an existing binding, or defines globally if absent
// (sloppy-mode semantics, which real probe scripts rely on). A snapshot
// global not read yet is overwritten the same way: the write binds the
// name, so its snapshot value is never localized.
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

// Run parses, compiles and executes src. scriptURL labels stack frames
// for 1P/3P attribution.
func (in *Interp) Run(src, scriptURL string) error {
	cp, err := CompileSource(src)
	if err != nil {
		return err
	}
	return in.RunCompiled(cp, scriptURL)
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

func (in *Interp) step() error {
	in.steps++
	if in.steps > in.MaxSteps {
		return ErrBudget
	}
	return nil
}

func (in *Interp) rterr(line int, format string, args ...any) error {
	return &RuntimeError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// applyUnary applies a unary operator to an evaluated operand. delete
// is evaluate-and-ignore: the interpreter has no property deletion.
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
// already-evaluated values; compound assignments share it.
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

// memberRef is a member-assignment target with its base (and computed
// index, if any) already evaluated — each exactly once.
type memberRef struct {
	base   Value
	name   string // dot access
	idx    Value  // bracket access
	hasIdx bool
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
	case KindNull:
		return in.rterr(line, "cannot set property %q of null", name)
	}
	return in.rterr(line, "cannot set property %q of %s", name, obj.TypeOf())
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
		return in.callCompiled(fn.fn, this, args)
	}
	return Undefined(), in.rterr(line, "not callable")
}

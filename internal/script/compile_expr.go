package script

import (
	"errors"
	"strings"
)

// Expression lowering: each expression becomes an evalFn that
// evaluates its operands when it runs; operators apply applyUnary and
// applyBinary to the results. Object and array literals allocate a
// fresh mutable value on each evaluation.

// literal returns an evalFn yielding v.
func literal(v Value) evalFn {
	return func(*Interp, *Env) (Value, error) { return v, nil }
}

func (c *compiler) compileExpr(n Node) (evalFn, error) {
	switch e := n.(type) {
	case *Lit:
		return literal(e.Val), nil
	case *Ident:
		return c.compileIdent(e.Name, e.Line), nil
	case *ThisExpr:
		if hops, slot, ok := c.resolve("this"); ok {
			return func(in *Interp, env *Env) (Value, error) {
				if v := envUp(env, hops).slots[slot]; v.kind != kindUnset {
					return v, nil
				}
				return Undefined(), nil
			}, nil
		}
		return func(in *Interp, env *Env) (Value, error) {
			if v, ok := env.Get("this"); ok {
				return v, nil
			}
			return Undefined(), nil
		}, nil
	case *Member:
		objX, err := c.compileExpr(e.Obj)
		if err != nil {
			return nil, err
		}
		name, line, optional := e.Name, e.Line, e.Optional
		if e.Index != nil {
			idxX, err := c.compileExpr(e.Index)
			if err != nil {
				return nil, err
			}
			return func(in *Interp, env *Env) (Value, error) {
				obj, err := objX(in, env)
				if err != nil {
					return Undefined(), err
				}
				if optional && (obj.IsUndefined() || obj.IsNull()) {
					return Undefined(), nil
				}
				idx, err := idxX(in, env)
				if err != nil {
					return Undefined(), err
				}
				return in.getIndexed(obj, idx, line)
			}, nil
		}
		return func(in *Interp, env *Env) (Value, error) {
			obj, err := objX(in, env)
			if err != nil {
				return Undefined(), err
			}
			if optional && (obj.IsUndefined() || obj.IsNull()) {
				return Undefined(), nil
			}
			return in.getMember(obj, name, line)
		}, nil
	case *Call:
		return c.compileCall(e)
	case *Unary:
		xX, err := c.compileExpr(e.X)
		if err != nil {
			return nil, err
		}
		op := e.Op
		_, bareName := e.X.(*Ident)
		return func(in *Interp, env *Env) (Value, error) {
			x, err := xX(in, env)
			if err != nil {
				if op == "typeof" && bareName {
					// typeof of an undeclared name is "undefined", not a
					// ReferenceError; a name's read fails no other way. An
					// operand that only contains such a name still throws.
					return String("undefined"), nil
				}
				return Undefined(), err
			}
			return applyUnary(op, x)
		}, nil
	case *Binary:
		xX, err := c.compileExpr(e.X)
		if err != nil {
			return nil, err
		}
		yX, err := c.compileExpr(e.Y)
		if err != nil {
			return nil, err
		}
		op, line := e.Op, e.Line
		return func(in *Interp, env *Env) (Value, error) {
			x, err := xX(in, env)
			if err != nil {
				return Undefined(), err
			}
			y, err := yX(in, env)
			if err != nil {
				return Undefined(), err
			}
			return applyBinary(op, x, y, line)
		}, nil
	case *Logical:
		xX, err := c.compileExpr(e.X)
		if err != nil {
			return nil, err
		}
		yX, err := c.compileExpr(e.Y)
		if err != nil {
			return nil, err
		}
		op := e.Op
		return func(in *Interp, env *Env) (Value, error) {
			x, err := xX(in, env)
			if err != nil {
				return Undefined(), err
			}
			if logicalShortCircuits(op, x) {
				return x, nil
			}
			return yX(in, env)
		}, nil
	case *Cond:
		testX, err := c.compileExpr(e.Test)
		if err != nil {
			return nil, err
		}
		thenX, err := c.compileExpr(e.Then)
		if err != nil {
			return nil, err
		}
		elseX, err := c.compileExpr(e.Else)
		if err != nil {
			return nil, err
		}
		return func(in *Interp, env *Env) (Value, error) {
			t, err := testX(in, env)
			if err != nil {
				return Undefined(), err
			}
			if t.Truthy() {
				return thenX(in, env)
			}
			return elseX(in, env)
		}, nil
	case *Assign:
		return c.compileAssign(e)
	case *Update:
		return c.compileUpdate(e)
	case *ObjectLit:
		vals := make([]evalFn, len(e.Vals))
		for i, v := range e.Vals {
			var err error
			if vals[i], err = c.compileExpr(v); err != nil {
				return nil, err
			}
		}
		keys := e.Keys
		return func(in *Interp, env *Env) (Value, error) {
			o := NewObject()
			for i, k := range keys {
				v, err := vals[i](in, env)
				if err != nil {
					return Undefined(), err
				}
				o.Set(k, v)
			}
			return ObjectValue(o), nil
		}, nil
	case *ArrayLit:
		elems := make([]evalFn, len(e.Elems))
		for i, el := range e.Elems {
			var err error
			if elems[i], err = c.compileExpr(el); err != nil {
				return nil, err
			}
		}
		return func(in *Interp, env *Env) (Value, error) {
			out := make([]Value, 0, len(elems))
			for i := range elems {
				v, err := elems[i](in, env)
				if err != nil {
					return Undefined(), err
				}
				out = append(out, v)
			}
			return ArrayValue(out...), nil
		}, nil
	case *FuncLit:
		cf, err := c.compileFunc("", e.Params, e.Body, e.ExprBody, e.Line)
		if err != nil {
			return nil, err
		}
		line := e.Line
		return func(in *Interp, env *Env) (Value, error) {
			return FuncValue(&Closure{
				compiled: cf, Env: env,
				ScriptURL: in.CurrentScriptURL(), Line: line,
			}), nil
		}, nil
	case *SpreadExpr:
		return c.compileExpr(e.X)
	}
	return nil, errUncompilable
}

// errUncompilable reports a node the parser never produces in that
// position (it rejects non-reference assignment and update targets).
var errUncompilable = errors.New("script: cannot compile node")

func logicalShortCircuits(op string, x Value) bool {
	switch op {
	case "&&":
		return !x.Truthy()
	case "||":
		return x.Truthy()
	case "??":
		return !x.IsUndefined() && !x.IsNull()
	}
	return false
}

// compileIdent resolves a variable read. A resolved slot still falls
// back to the dynamic chain while unset: a hoisted declaration does not
// bind its name until it executes, so until then the read finds an
// outer binding (or nothing).
func (c *compiler) compileIdent(name string, line int) evalFn {
	if hops, slot, ok := c.resolve(name); ok {
		return func(in *Interp, env *Env) (Value, error) {
			if v := envUp(env, hops).slots[slot]; v.kind != kindUnset {
				return v, nil
			}
			if v, ok := env.Get(name); ok {
				return v, nil
			}
			return Undefined(), in.rterr(line, "%s is not defined", name)
		}
	}
	return func(in *Interp, env *Env) (Value, error) {
		if v, ok := env.Get(name); ok {
			return v, nil
		}
		return Undefined(), in.rterr(line, "%s is not defined", name)
	}
}

// compileIdentWrite builds the sloppy-mode assignment path: write the
// resolved slot if its binding exists, otherwise walk the chain like
// Env.Assign (defining globally when absent).
func (c *compiler) compileIdentWrite(name string) func(env *Env, v Value) {
	if hops, slot, ok := c.resolve(name); ok {
		return func(env *Env, v Value) {
			sc := envUp(env, hops)
			if sc.slots[slot].kind != kindUnset {
				sc.slots[slot] = v
				return
			}
			env.Assign(name, v)
		}
	}
	return func(env *Env, v Value) { env.Assign(name, v) }
}

func (c *compiler) compileAssign(e *Assign) (evalFn, error) {
	valX, err := c.compileExpr(e.Val)
	if err != nil {
		return nil, err
	}
	op, line := e.Op, e.Line
	compound := op != "="
	binOp := strings.TrimSuffix(op, "=")
	switch t := e.Target.(type) {
	case *Ident:
		readX := c.compileIdent(t.Name, t.Line)
		write := c.compileIdentWrite(t.Name)
		return func(in *Interp, env *Env) (Value, error) {
			var cur Value
			if compound {
				var err error
				if cur, err = readX(in, env); err != nil {
					return Undefined(), err
				}
			}
			val, err := valX(in, env)
			if err != nil {
				return Undefined(), err
			}
			if compound {
				if val, err = applyBinary(binOp, cur, val, line); err != nil {
					return Undefined(), err
				}
			}
			write(env, val)
			return val, nil
		}, nil
	case *Member:
		objX, err := c.compileExpr(t.Obj)
		if err != nil {
			return nil, err
		}
		var idxX evalFn
		hasIdx := t.Index != nil
		if hasIdx {
			if idxX, err = c.compileExpr(t.Index); err != nil {
				return nil, err
			}
		}
		name, tline := t.Name, t.Line
		return func(in *Interp, env *Env) (Value, error) {
			// Base and index evaluate exactly once, shared by the
			// compound-op read and the final write.
			base, err := objX(in, env)
			if err != nil {
				return Undefined(), err
			}
			ref := memberRef{base: base, name: name}
			if hasIdx {
				idx, err := idxX(in, env)
				if err != nil {
					return Undefined(), err
				}
				ref.idx, ref.hasIdx = idx, true
			}
			var cur Value
			if compound {
				if cur, err = in.readRef(ref, tline); err != nil {
					return Undefined(), err
				}
			}
			val, err := valX(in, env)
			if err != nil {
				return Undefined(), err
			}
			if compound {
				if val, err = applyBinary(binOp, cur, val, line); err != nil {
					return Undefined(), err
				}
			}
			if err := in.writeRef(ref, val, line); err != nil {
				return Undefined(), err
			}
			return val, nil
		}, nil
	}
	return nil, errUncompilable
}

func (c *compiler) compileUpdate(e *Update) (evalFn, error) {
	delta := 1.0
	if e.Op == "--" {
		delta = -1
	}
	prefix := e.Prefix
	switch t := e.Target.(type) {
	case *Member:
		objX, err := c.compileExpr(t.Obj)
		if err != nil {
			return nil, err
		}
		var idxX evalFn
		hasIdx := t.Index != nil
		if hasIdx {
			if idxX, err = c.compileExpr(t.Index); err != nil {
				return nil, err
			}
		}
		name, line := t.Name, t.Line
		return func(in *Interp, env *Env) (Value, error) {
			base, err := objX(in, env)
			if err != nil {
				return Undefined(), err
			}
			ref := memberRef{base: base, name: name}
			if hasIdx {
				idx, err := idxX(in, env)
				if err != nil {
					return Undefined(), err
				}
				ref.idx, ref.hasIdx = idx, true
			}
			cur, err := in.readRef(ref, line)
			if err != nil {
				return Undefined(), err
			}
			old := cur.ToNumber()
			nv := Number(old + delta)
			if err := in.writeRef(ref, nv, line); err != nil {
				return Undefined(), err
			}
			if prefix {
				return nv, nil
			}
			return Number(old), nil
		}, nil
	case *Ident:
		readX := c.compileIdent(t.Name, t.Line)
		write := c.compileIdentWrite(t.Name)
		return func(in *Interp, env *Env) (Value, error) {
			cur, err := readX(in, env)
			if err != nil {
				return Undefined(), err
			}
			old := cur.ToNumber()
			nv := Number(old + delta)
			write(env, nv)
			if prefix {
				return nv, nil
			}
			return Number(old), nil
		}, nil
	}
	return nil, errUncompilable
}

func (c *compiler) compileCall(e *Call) (evalFn, error) {
	type argC struct {
		x      evalFn
		spread bool
	}
	args := make([]argC, len(e.Args))
	for i, a := range e.Args {
		if sp, ok := a.(*SpreadExpr); ok {
			x, err := c.compileExpr(sp.X)
			if err != nil {
				return nil, err
			}
			args[i] = argC{x: x, spread: true}
			continue
		}
		x, err := c.compileExpr(a)
		if err != nil {
			return nil, err
		}
		args[i] = argC{x: x}
	}
	evalArgs := func(in *Interp, env *Env) ([]Value, error) {
		out := make([]Value, 0, len(args))
		for i := range args {
			v, err := args[i].x(in, env)
			if err != nil {
				return nil, err
			}
			if args[i].spread && v.kind == KindArray {
				out = append(out, v.arr.Elems...)
				continue
			}
			out = append(out, v)
		}
		return out, nil
	}
	isNew, optional, line := e.New, e.Optional, e.Line
	if m, ok := e.Fn.(*Member); ok && m.Index == nil {
		// Method call: the receiver binds this.
		objX, err := c.compileExpr(m.Obj)
		if err != nil {
			return nil, err
		}
		mName, mOpt, mLine := m.Name, m.Optional, m.Line
		return func(in *Interp, env *Env) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			this, err := objX(in, env)
			if err != nil {
				return Undefined(), err
			}
			if mOpt && (this.IsUndefined() || this.IsNull()) {
				return Undefined(), nil
			}
			fnv, err := in.getMember(this, mName, mLine)
			if err != nil {
				return Undefined(), err
			}
			av, err := evalArgs(in, env)
			if err != nil {
				return Undefined(), err
			}
			return in.finishCall(fnv, this, av, mName, isNew, optional, line)
		}, nil
	}
	fnX, err := c.compileExpr(e.Fn)
	if err != nil {
		return nil, err
	}
	var calleeName string
	if id, ok := e.Fn.(*Ident); ok {
		calleeName = id.Name
	}
	return func(in *Interp, env *Env) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		fnv, err := fnX(in, env)
		if err != nil {
			return Undefined(), err
		}
		av, err := evalArgs(in, env)
		if err != nil {
			return Undefined(), err
		}
		return in.finishCall(fnv, Undefined(), av, calleeName, isNew, optional, line)
	}, nil
}

// finishCall is the shared tail of both call paths: callable check,
// optional-call short-circuit, construct vs call dispatch.
func (in *Interp) finishCall(fnv, this Value, args []Value, calleeName string, isNew, optional bool, line int) (Value, error) {
	if !fnv.IsCallable() {
		if optional && (fnv.IsUndefined() || fnv.IsNull()) {
			return Undefined(), nil
		}
		if calleeName == "" {
			calleeName = "value"
		}
		return Undefined(), in.rterr(line, "%s is not a function", calleeName)
	}
	if isNew {
		return in.construct(fnv, args, line)
	}
	return in.call(fnv, this, args, line)
}

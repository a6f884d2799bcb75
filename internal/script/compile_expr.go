package script

import (
	"errors"
	"strings"
)

// Expression lowering with constant folding: Binary/Logical/Cond (and
// pure Unary) over literal operands collapse at compile time via the
// same applyBinary/applyUnary the running code uses, so folding can
// never change semantics. Object and array literals never fold — each
// evaluation must produce a fresh mutable value.

func (c *compiler) compileExpr(n Node) (cexpr, error) {
	switch e := n.(type) {
	case *Lit:
		return litExpr(e.Val), nil
	case *Ident:
		return c.compileIdent(e.Name, e.Line), nil
	case *ThisExpr:
		if hops, slot, ok := c.resolve("this"); ok {
			return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
				if v := envUp(env, hops).slots[slot]; v.kind != kindUnset {
					return v, nil
				}
				return Undefined(), nil
			}}, nil
		}
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			if v, ok := env.Get("this"); ok {
				return v, nil
			}
			return Undefined(), nil
		}}, nil
	case *Member:
		objX, err := c.compileExpr(e.Obj)
		if err != nil {
			return cexpr{}, err
		}
		name, line, optional := e.Name, e.Line, e.Optional
		if e.Index != nil {
			idxX, err := c.compileExpr(e.Index)
			if err != nil {
				return cexpr{}, err
			}
			return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
				obj, err := objX.fn(in, env)
				if err != nil {
					return Undefined(), err
				}
				if optional && (obj.IsUndefined() || obj.IsNull()) {
					return Undefined(), nil
				}
				idx, err := idxX.fn(in, env)
				if err != nil {
					return Undefined(), err
				}
				return in.getIndexed(obj, idx, line)
			}}, nil
		}
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			obj, err := objX.fn(in, env)
			if err != nil {
				return Undefined(), err
			}
			if optional && (obj.IsUndefined() || obj.IsNull()) {
				return Undefined(), nil
			}
			return in.getMember(obj, name, line)
		}}, nil
	case *Call:
		return c.compileCall(e)
	case *Unary:
		xX, err := c.compileExpr(e.X)
		if err != nil {
			return cexpr{}, err
		}
		op := e.Op
		if xX.isLit {
			if v, err := applyUnary(op, xX.lit); err == nil {
				return litExpr(v), nil
			}
		}
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			x, err := xX.fn(in, env)
			if err != nil {
				if op == "typeof" {
					// typeof of an undefined variable is "undefined", not an error.
					var rt *RuntimeError
					if errors.As(err, &rt) && strings.HasSuffix(rt.Msg, "is not defined") {
						return String("undefined"), nil
					}
				}
				return Undefined(), err
			}
			return applyUnary(op, x)
		}}, nil
	case *Binary:
		xX, err := c.compileExpr(e.X)
		if err != nil {
			return cexpr{}, err
		}
		yX, err := c.compileExpr(e.Y)
		if err != nil {
			return cexpr{}, err
		}
		op, line := e.Op, e.Line
		if xX.isLit && yX.isLit {
			if v, err := applyBinary(op, xX.lit, yX.lit, line); err == nil {
				return litExpr(v), nil
			}
		}
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			x, err := xX.fn(in, env)
			if err != nil {
				return Undefined(), err
			}
			y, err := yX.fn(in, env)
			if err != nil {
				return Undefined(), err
			}
			return applyBinary(op, x, y, line)
		}}, nil
	case *Logical:
		xX, err := c.compileExpr(e.X)
		if err != nil {
			return cexpr{}, err
		}
		yX, err := c.compileExpr(e.Y)
		if err != nil {
			return cexpr{}, err
		}
		op := e.Op
		if xX.isLit {
			if logicalShortCircuits(op, xX.lit) {
				return litExpr(xX.lit), nil
			}
			return yX, nil
		}
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			x, err := xX.fn(in, env)
			if err != nil {
				return Undefined(), err
			}
			if logicalShortCircuits(op, x) {
				return x, nil
			}
			return yX.fn(in, env)
		}}, nil
	case *Cond:
		testX, err := c.compileExpr(e.Test)
		if err != nil {
			return cexpr{}, err
		}
		thenX, err := c.compileExpr(e.Then)
		if err != nil {
			return cexpr{}, err
		}
		elseX, err := c.compileExpr(e.Else)
		if err != nil {
			return cexpr{}, err
		}
		if testX.isLit {
			if testX.lit.Truthy() {
				return thenX, nil
			}
			return elseX, nil
		}
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			t, err := testX.fn(in, env)
			if err != nil {
				return Undefined(), err
			}
			if t.Truthy() {
				return thenX.fn(in, env)
			}
			return elseX.fn(in, env)
		}}, nil
	case *Assign:
		return c.compileAssign(e)
	case *Update:
		return c.compileUpdate(e)
	case *ObjectLit:
		vals := make([]cexpr, len(e.Vals))
		for i, v := range e.Vals {
			var err error
			if vals[i], err = c.compileExpr(v); err != nil {
				return cexpr{}, err
			}
		}
		keys := e.Keys
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			o := NewObject()
			for i, k := range keys {
				v, err := vals[i].fn(in, env)
				if err != nil {
					return Undefined(), err
				}
				o.Set(k, v)
			}
			return ObjectValue(o), nil
		}}, nil
	case *ArrayLit:
		elems := make([]cexpr, len(e.Elems))
		for i, el := range e.Elems {
			var err error
			if elems[i], err = c.compileExpr(el); err != nil {
				return cexpr{}, err
			}
		}
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			out := make([]Value, 0, len(elems))
			for i := range elems {
				v, err := elems[i].fn(in, env)
				if err != nil {
					return Undefined(), err
				}
				out = append(out, v)
			}
			return ArrayValue(out...), nil
		}}, nil
	case *FuncLit:
		cf, err := c.compileFunc("", e.Params, e.Body, e.ExprBody, e.Line)
		if err != nil {
			return cexpr{}, err
		}
		line := e.Line
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			return FuncValue(&Closure{
				compiled: cf, Env: env,
				ScriptURL: in.CurrentScriptURL(), Line: line,
			}), nil
		}}, nil
	case *SpreadExpr:
		return c.compileExpr(e.X)
	}
	return cexpr{}, errUncompilable
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
func (c *compiler) compileIdent(name string, line int) cexpr {
	if hops, slot, ok := c.resolve(name); ok {
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			if v := envUp(env, hops).slots[slot]; v.kind != kindUnset {
				return v, nil
			}
			if v, ok := env.Get(name); ok {
				return v, nil
			}
			return Undefined(), in.rterr(line, "%s is not defined", name)
		}}
	}
	return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
		if v, ok := env.Get(name); ok {
			return v, nil
		}
		return Undefined(), in.rterr(line, "%s is not defined", name)
	}}
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

func (c *compiler) compileAssign(e *Assign) (cexpr, error) {
	valX, err := c.compileExpr(e.Val)
	if err != nil {
		return cexpr{}, err
	}
	op, line := e.Op, e.Line
	compound := op != "="
	binOp := strings.TrimSuffix(op, "=")
	switch t := e.Target.(type) {
	case *Ident:
		readX := c.compileIdent(t.Name, t.Line)
		write := c.compileIdentWrite(t.Name)
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			var cur Value
			if compound {
				var err error
				if cur, err = readX.fn(in, env); err != nil {
					return Undefined(), err
				}
			}
			val, err := valX.fn(in, env)
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
		}}, nil
	case *Member:
		objX, err := c.compileExpr(t.Obj)
		if err != nil {
			return cexpr{}, err
		}
		var idxX cexpr
		hasIdx := t.Index != nil
		if hasIdx {
			if idxX, err = c.compileExpr(t.Index); err != nil {
				return cexpr{}, err
			}
		}
		name, tline := t.Name, t.Line
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			// Base and index evaluate exactly once, shared by the
			// compound-op read and the final write.
			base, err := objX.fn(in, env)
			if err != nil {
				return Undefined(), err
			}
			ref := memberRef{base: base, name: name}
			if hasIdx {
				idx, err := idxX.fn(in, env)
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
			val, err := valX.fn(in, env)
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
		}}, nil
	}
	return cexpr{}, errUncompilable
}

func (c *compiler) compileUpdate(e *Update) (cexpr, error) {
	delta := 1.0
	if e.Op == "--" {
		delta = -1
	}
	switch t := e.Target.(type) {
	case *Member:
		objX, err := c.compileExpr(t.Obj)
		if err != nil {
			return cexpr{}, err
		}
		var idxX cexpr
		hasIdx := t.Index != nil
		if hasIdx {
			if idxX, err = c.compileExpr(t.Index); err != nil {
				return cexpr{}, err
			}
		}
		name, line := t.Name, t.Line
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			base, err := objX.fn(in, env)
			if err != nil {
				return Undefined(), err
			}
			ref := memberRef{base: base, name: name}
			if hasIdx {
				idx, err := idxX.fn(in, env)
				if err != nil {
					return Undefined(), err
				}
				ref.idx, ref.hasIdx = idx, true
			}
			cur, err := in.readRef(ref, line)
			if err != nil {
				return Undefined(), err
			}
			nv := Number(cur.ToNumber() + delta)
			if err := in.writeRef(ref, nv, line); err != nil {
				return Undefined(), err
			}
			return nv, nil
		}}, nil
	case *Ident:
		readX := c.compileIdent(t.Name, t.Line)
		write := c.compileIdentWrite(t.Name)
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			cur, err := readX.fn(in, env)
			if err != nil {
				return Undefined(), err
			}
			nv := Number(cur.ToNumber() + delta)
			write(env, nv)
			return nv, nil
		}}, nil
	}
	return cexpr{}, errUncompilable
}

func (c *compiler) compileCall(e *Call) (cexpr, error) {
	type argC struct {
		x      cexpr
		spread bool
	}
	args := make([]argC, len(e.Args))
	for i, a := range e.Args {
		if sp, ok := a.(*SpreadExpr); ok {
			x, err := c.compileExpr(sp.X)
			if err != nil {
				return cexpr{}, err
			}
			args[i] = argC{x: x, spread: true}
			continue
		}
		x, err := c.compileExpr(a)
		if err != nil {
			return cexpr{}, err
		}
		args[i] = argC{x: x}
	}
	evalArgs := func(in *Interp, env *Env) ([]Value, error) {
		out := make([]Value, 0, len(args))
		for i := range args {
			v, err := args[i].x.fn(in, env)
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
			return cexpr{}, err
		}
		mName, mOpt, mLine := m.Name, m.Optional, m.Line
		return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			this, err := objX.fn(in, env)
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
		}}, nil
	}
	fnX, err := c.compileExpr(e.Fn)
	if err != nil {
		return cexpr{}, err
	}
	var calleeName string
	if id, ok := e.Fn.(*Ident); ok {
		calleeName = id.Name
	}
	return cexpr{fn: func(in *Interp, env *Env) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		fnv, err := fnX.fn(in, env)
		if err != nil {
			return Undefined(), err
		}
		av, err := evalArgs(in, env)
		if err != nil {
			return Undefined(), err
		}
		return in.finishCall(fnv, Undefined(), av, calleeName, isNew, optional, line)
	}}, nil
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

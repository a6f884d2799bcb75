package script

import "errors"

// Statement lowering. Each compiled statement counts one interpreter
// step at entry (loops additionally count one per iteration, calls one
// per invocation), so runaway compiled scripts still hit ErrBudget.

func (c *compiler) compileStmts(stmts []Node) ([]execFn, error) {
	out := make([]execFn, 0, len(stmts))
	for _, s := range stmts {
		fn, err := c.compileStmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

func (c *compiler) compileStmt(n Node) (execFn, error) {
	switch s := n.(type) {
	case *SeqStmt:
		fns, err := c.compileStmts(s.Body)
		if err != nil {
			return nil, err
		}
		return func(in *Interp, env *Env) error {
			if err := in.step(); err != nil {
				return err
			}
			return runAll(in, env, fns)
		}, nil
	case *BlockStmt:
		return c.compileBlock(s)
	case *VarDecl:
		initX := literal(Undefined())
		if s.Init != nil {
			var err error
			if initX, err = c.compileExpr(s.Init); err != nil {
				return nil, err
			}
		}
		name := s.Name
		// The declaring scope is the innermost frame, when one exists and
		// laid the name out (a var nested under if/while belongs to an
		// enclosing block whose layout includes it). A var whose block
		// pushed no frame binds through dynamic Define in the scope it
		// runs in: the global map or an enclosing frame's spill.
		if len(c.scopes) > 0 {
			if slot, ok := c.scopes[len(c.scopes)-1].slotOf[name]; ok {
				return func(in *Interp, env *Env) error {
					if err := in.step(); err != nil {
						return err
					}
					v, err := initX(in, env)
					if err != nil {
						return err
					}
					env.slots[slot] = v
					return nil
				}, nil
			}
		}
		return func(in *Interp, env *Env) error {
			if err := in.step(); err != nil {
				return err
			}
			v, err := initX(in, env)
			if err != nil {
				return err
			}
			env.Define(name, v)
			return nil
		}, nil
	case *ExprStmt:
		x, err := c.compileExpr(s.X)
		if err != nil {
			return nil, err
		}
		return func(in *Interp, env *Env) error {
			if err := in.step(); err != nil {
				return err
			}
			_, err := x(in, env)
			return err
		}, nil
	case *IfStmt:
		condX, err := c.compileExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		thenFn, err := c.compileStmt(s.Then)
		if err != nil {
			return nil, err
		}
		var elseFn execFn
		if s.Else != nil {
			if elseFn, err = c.compileStmt(s.Else); err != nil {
				return nil, err
			}
		}
		return func(in *Interp, env *Env) error {
			if err := in.step(); err != nil {
				return err
			}
			cond, err := condX(in, env)
			if err != nil {
				return err
			}
			if cond.Truthy() {
				return thenFn(in, env)
			}
			if elseFn != nil {
				return elseFn(in, env)
			}
			return nil
		}, nil
	case *WhileStmt:
		condX, err := c.compileExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		bodyFn, err := c.compileStmt(s.Body)
		if err != nil {
			return nil, err
		}
		return func(in *Interp, env *Env) error {
			for {
				if err := in.step(); err != nil {
					return err
				}
				cond, err := condX(in, env)
				if err != nil {
					return err
				}
				if !cond.Truthy() {
					return nil
				}
				if err := runLoopBody(in, env, bodyFn); err != nil {
					if _, brk := err.(breakSignal); brk {
						return nil
					}
					return err
				}
			}
		}, nil
	case *DoWhileStmt:
		bodyFn, err := c.compileStmt(s.Body)
		if err != nil {
			return nil, err
		}
		condX, err := c.compileExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		return func(in *Interp, env *Env) error {
			for {
				if err := in.step(); err != nil {
					return err
				}
				if err := runLoopBody(in, env, bodyFn); err != nil {
					if _, brk := err.(breakSignal); brk {
						return nil
					}
					return err
				}
				cond, err := condX(in, env)
				if err != nil {
					return err
				}
				if !cond.Truthy() {
					return nil
				}
			}
		}, nil
	case *ForStmt:
		return c.compileFor(s)
	case *SwitchStmt:
		return c.compileSwitch(s)
	case *ReturnStmt:
		x := literal(Undefined())
		if s.X != nil {
			var err error
			if x, err = c.compileExpr(s.X); err != nil {
				return nil, err
			}
		}
		return func(in *Interp, env *Env) error {
			if err := in.step(); err != nil {
				return err
			}
			v, err := x(in, env)
			if err != nil {
				return err
			}
			return returnSignal{v: v}
		}, nil
	case *BreakStmt:
		return func(in *Interp, env *Env) error {
			if err := in.step(); err != nil {
				return err
			}
			return breakSignal{}
		}, nil
	case *ContinueStmt:
		return func(in *Interp, env *Env) error {
			if err := in.step(); err != nil {
				return err
			}
			return continueSignal{}
		}, nil
	case *ThrowStmt:
		x, err := c.compileExpr(s.X)
		if err != nil {
			return nil, err
		}
		return func(in *Interp, env *Env) error {
			if err := in.step(); err != nil {
				return err
			}
			v, err := x(in, env)
			if err != nil {
				return err
			}
			return &Thrown{V: v}
		}, nil
	case *TryStmt:
		return c.compileTry(s)
	case *FuncDecl:
		// A declaration in executed position (switch cases, if branches):
		// the binding appears when the statement runs, not at scope entry.
		cf, err := c.compileFunc(s.Name, s.Params, s.Body, nil, s.Line)
		if err != nil {
			return nil, err
		}
		name := s.Name
		slot := -1
		if len(c.scopes) > 0 {
			if i, ok := c.scopes[len(c.scopes)-1].slotOf[name]; ok {
				slot = i
			}
		}
		return func(in *Interp, env *Env) error {
			if err := in.step(); err != nil {
				return err
			}
			v := FuncValue(&Closure{
				Name: name, compiled: cf,
				Env: env, ScriptURL: in.CurrentScriptURL(), Line: cf.line,
			})
			if slot >= 0 {
				env.slots[slot] = v
			} else {
				env.Define(name, v)
			}
			return nil
		}, nil
	default:
		// Expression in statement position (for-init expressions).
		x, err := c.compileExpr(n)
		if err != nil {
			return nil, err
		}
		return func(in *Interp, env *Env) error {
			if err := in.step(); err != nil {
				return err
			}
			_, err := x(in, env)
			return err
		}, nil
	}
}

func runAll(in *Interp, env *Env, fns []execFn) error {
	for _, fn := range fns {
		if err := fn(in, env); err != nil {
			return err
		}
	}
	return nil
}

// runLoopBody translates continue into normal completion.
func runLoopBody(in *Interp, env *Env, body execFn) error {
	err := body(in, env)
	if _, cont := err.(continueSignal); cont {
		return nil
	}
	return err
}

func (c *compiler) compileBlock(b *BlockStmt) (execFn, error) {
	decls := declNames(b.Body)
	if len(decls) == 0 {
		// No bindings can land here: skip the frame entirely. A scope
		// that binds nothing cannot change what a lookup finds.
		fns, err := c.compileStmts(b.Body)
		if err != nil {
			return nil, err
		}
		return func(in *Interp, env *Env) error {
			if err := in.step(); err != nil {
				return err
			}
			return runAll(in, env, fns)
		}, nil
	}
	fl := newLayout(decls)
	c.push(fl)
	hoisted, fns, err := c.compileScope(b.Body, fl.slotOf)
	c.pop()
	if err != nil {
		return nil, err
	}
	return func(in *Interp, env *Env) error {
		if err := in.step(); err != nil {
			return err
		}
		fe := newFrame(env, fl)
		defineHoisted(in, fe, hoisted)
		return runAll(in, fe, fns)
	}, nil
}

func (c *compiler) compileFor(s *ForStmt) (execFn, error) {
	var fl *frameLayout
	if s.Init != nil {
		if decls := declNames([]Node{s.Init}); len(decls) > 0 {
			fl = newLayout(decls)
		}
	}
	if fl != nil {
		c.push(fl)
		defer c.pop()
	}
	var initFn execFn
	var err error
	if s.Init != nil {
		if initFn, err = c.compileStmt(s.Init); err != nil {
			return nil, err
		}
	}
	var condX, postX evalFn
	if s.Cond != nil {
		if condX, err = c.compileExpr(s.Cond); err != nil {
			return nil, err
		}
	}
	if s.Post != nil {
		if postX, err = c.compileExpr(s.Post); err != nil {
			return nil, err
		}
	}
	bodyFn, err := c.compileStmt(s.Body)
	if err != nil {
		return nil, err
	}
	return func(in *Interp, env *Env) error {
		if err := in.step(); err != nil {
			return err
		}
		if fl != nil {
			env = newFrame(env, fl)
		}
		if initFn != nil {
			if err := initFn(in, env); err != nil {
				return err
			}
		}
		for {
			if err := in.step(); err != nil {
				return err
			}
			if condX != nil {
				cond, err := condX(in, env)
				if err != nil {
					return err
				}
				if !cond.Truthy() {
					return nil
				}
			}
			if err := runLoopBody(in, env, bodyFn); err != nil {
				if _, brk := err.(breakSignal); brk {
					return nil
				}
				return err
			}
			if postX != nil {
				if _, err := postX(in, env); err != nil {
					return err
				}
			}
		}
	}, nil
}

func (c *compiler) compileSwitch(s *SwitchStmt) (execFn, error) {
	tagX, err := c.compileExpr(s.Tag)
	if err != nil {
		return nil, err
	}
	// Case tests evaluate in the enclosing scope, before the case-body
	// scope exists — compile them outside the pushed layout.
	tests := make([]evalFn, len(s.Cases)) // nil for default
	for i, cs := range s.Cases {
		if cs.Test == nil {
			continue
		}
		if tests[i], err = c.compileExpr(cs.Test); err != nil {
			return nil, err
		}
	}
	var all []Node
	for _, cs := range s.Cases {
		all = append(all, cs.Body...)
	}
	var fl *frameLayout
	if decls := declNames(all); len(decls) > 0 {
		fl = newLayout(decls)
		c.push(fl)
		defer c.pop()
	}
	bodies := make([][]execFn, len(s.Cases))
	for i, cs := range s.Cases {
		// Switch does not hoist: function declarations in case bodies
		// bind when executed, so they compile as ordinary statements.
		if bodies[i], err = c.compileStmts(cs.Body); err != nil {
			return nil, err
		}
	}
	return func(in *Interp, env *Env) error {
		if err := in.step(); err != nil {
			return err
		}
		tag, err := tagX(in, env)
		if err != nil {
			return err
		}
		matched, defaultIdx := -1, -1
		for i := range tests {
			if tests[i] == nil {
				defaultIdx = i
				continue
			}
			tv, err := tests[i](in, env)
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
		if fl != nil {
			env = newFrame(env, fl)
		}
		for i := matched; i < len(bodies); i++ { // fallthrough semantics
			for _, fn := range bodies[i] {
				if err := fn(in, env); err != nil {
					if _, brk := err.(breakSignal); brk {
						return nil
					}
					return err
				}
			}
		}
		return nil
	}, nil
}

func (c *compiler) compileTry(s *TryStmt) (execFn, error) {
	bodyFn, err := c.compileBlock(s.Body)
	if err != nil {
		return nil, err
	}
	var catchFl *frameLayout
	var catchFn execFn
	if s.Catch != nil {
		if s.CatchVar != "" {
			// The catch variable lives in its own one-slot scope wrapping
			// the catch block; the block's declarations bind in the
			// block's frame inside it.
			catchFl = newLayout([]string{s.CatchVar})
			c.push(catchFl)
		}
		catchFn, err = c.compileBlock(s.Catch)
		if s.CatchVar != "" {
			c.pop()
		}
		if err != nil {
			return nil, err
		}
	}
	var finallyFn execFn
	if s.Finally != nil {
		if finallyFn, err = c.compileBlock(s.Finally); err != nil {
			return nil, err
		}
	}
	runCatch := func(in *Interp, env *Env, caught Value) error {
		if catchFl != nil {
			env = newFrame(env, catchFl)
			env.slots[0] = caught
		}
		return catchFn(in, env)
	}
	return func(in *Interp, env *Env) error {
		if err := in.step(); err != nil {
			return err
		}
		err := bodyFn(in, env)
		if err != nil && catchFn != nil {
			var thrown *Thrown
			var rt *RuntimeError
			if errors.As(err, &thrown) {
				err = runCatch(in, env, thrown.V)
			} else if errors.As(err, &rt) {
				// Host TypeErrors are catchable, like in a browser.
				eo := NewObject()
				eo.Class = "Error"
				eo.Set("message", String(rt.Msg))
				err = runCatch(in, env, ObjectValue(eo))
			}
		}
		if finallyFn != nil {
			if ferr := finallyFn(in, env); ferr != nil {
				return ferr
			}
		}
		return err
	}, nil
}

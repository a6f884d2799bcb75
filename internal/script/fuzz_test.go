package script

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"permodyssey/internal/synthweb"
)

// fuzzSteps is the step budget of a fuzzed run: small, so a runaway
// loop ends in milliseconds.
const fuzzSteps = 20000

// addFuzzSeeds seeds a fuzz target with every script corpus the engine
// is tested on: the language corpus, the webapi probe corpus, and the
// synthetic web's host-page and widget scripts.
func addFuzzSeeds(f *testing.F) {
	for _, src := range equivalenceCorpus {
		f.Add(src)
	}
	raw, err := os.ReadFile("../webapi/testdata/probe_corpus.json")
	if err != nil {
		f.Fatal(err)
	}
	var probes []string
	if err := json.Unmarshal(raw, &probes); err != nil {
		f.Fatal(err)
	}
	for _, src := range probes {
		f.Add(src)
	}
	for _, hs := range synthweb.HostScripts {
		f.Add(hs.Body)
	}
	for _, w := range synthweb.Catalog {
		if w.Script != "" {
			f.Add(w.Script)
		}
	}
}

// FuzzParse: the lexer and parser never panic, and a rejected source
// always fails with a *SyntaxError.
func FuzzParse(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("parse failed with %T, want *SyntaxError: %v", err, err)
			}
			return
		}
		if prog == nil {
			t.Fatal("nil program without an error")
		}
	})
}

// FuzzRun: every parsable source compiles, and its run returns with no
// Go panic — within the step budget (exceeding it always surfaces as
// ErrBudget) and under the call-stack cap, with the call stack unwound.
func FuzzRun(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		cp, err := Compile(prog)
		if err != nil {
			t.Fatalf("parsed source does not compile: %v", err)
		}
		in := NewInterp()
		in.MaxSteps = fuzzSteps
		err = in.RunCompiled(cp, "fuzz://run")
		if in.steps > in.MaxSteps && !errors.Is(err, ErrBudget) {
			t.Fatalf("ran %d steps over a budget of %d, returned %v", in.steps, in.MaxSteps, err)
		}
		if len(in.stack) != 0 {
			t.Fatalf("run returned with %d frames on the call stack", len(in.stack))
		}
	})
}

// FuzzArgumentsFlag: the UsesArguments the parser sets on every
// function declaration and literal equals a walk of that function's
// body for an `arguments` identifier, nested functions and template
// interpolations included and discarded default parameters left out.
func FuzzArgumentsFlag(f *testing.F) {
	addFuzzSeeds(f)
	for _, src := range []string{
		"function f() { var g = () => () => arguments.length; return g()(); }",
		"function f() { return `${arguments[0]}`; }",
		"function f() { return {arguments}; }",
		"var o = { m() { return arguments.length; } };",
		"function f() { function g(a = arguments) {} return g; }",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		findNode(prog, func(n Node) bool {
			var fn *FuncLit
			switch s := n.(type) {
			case *FuncDecl:
				fn = &s.FuncLit
			case *FuncLit:
				fn = s
			default:
				return false
			}
			body := []Node{fn.ExprBody}
			if fn.ExprBody == nil {
				body = fn.Body.Body
			}
			if want := identUsed("arguments", body); fn.UsesArguments != want {
				t.Fatalf("function at line %d: UsesArguments = %v, a walk of its body says %v", fn.Line, fn.UsesArguments, want)
			}
			return false
		})
	})
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

// identUsed reports whether any of stmts holds an identifier name.
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

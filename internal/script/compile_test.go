package script

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// runObserved executes src against a fresh interpreter with a
// `probe(...)` native that records its arguments, and returns the
// observation log (trailing error included as a final entry).
func runObserved(t *testing.T, src string) []string {
	t.Helper()
	var log []string
	in := NewInterp()
	in.Global.Define("probe", NativeValue("probe", func(_ *Interp, _ Value, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.TypeOf() + ":" + a.ToString()
		}
		log = append(log, strings.Join(parts, "|"))
		return Undefined(), nil
	}))
	if err := in.Run(src, "test://equiv"); err != nil {
		log = append(log, "ERR "+err.Error())
	}
	return log
}

// equivalenceCorpus exercises the language surface: operators, scoping,
// functions, loops, switch, exceptions, members and builtins.
var equivalenceCorpus = []string{
	// Basics: operators on literals, string ops.
	`probe(1 + 2 * 3, "a" + "b", 10 % 3, 2 < 1, "x" < "y", 7 & 3, 7 | 8, 5 ^ 1);`,
	`probe(!0, -(-3), +"42", ~5, typeof {}, typeof missingVar);`,
	`probe(1 && 2, 0 || "fb", null ?? "d", 0 ?? "kept", true ? "y" : "n");`,
	`var x = 1; x += 2; x *= 3; probe(x); x -= 4; probe(x, x++, x, --x);`,
	// Scoping: hoisting, shadowing, blocks, read-before-declare.
	`var a = 1; { var a = 2; probe(a); } probe(a);`,
	`var a = 1; function f() { probe(a); var a = 2; probe(a); } f(); probe(a);`,
	`var a = 1; function f() { a = 9; } f(); probe(a);`,
	`function f() { b = 7; var b; probe(b); } f(); probe(typeof b);`,
	`var a = 1; { if (true) var a = 5; probe(a); } probe(a);`,
	`var a = 1; { probe(typeof a); var g = 2; if (true) var a = 5; probe(a); } probe(a);`,
	`var i = 0; while (i < 3) { var sq = i * i; probe(sq); i = i + 1; } probe(i);`,
	// Functions: params, arguments, defaults, recursion, closures.
	`function add(a, b) { return a + b; } probe(add(1, 2), add(1), add(1, 2, 3));`,
	`function f() { return arguments.length + ":" + arguments[1]; } probe(f("a", "b", "c"));`,
	`function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } probe(fib(10));`,
	`function counter() { var n = 0; return function () { n = n + 1; return n; }; }
		 var c1 = counter(); var c2 = counter(); probe(c1(), c1(), c2(), c1());`,
	`var inc = function (x) { return x + 1; }; var dbl = (x) => x * 2; probe(dbl(inc(3)));`,
	`function outer() { function inner() { return "in"; } return inner(); } probe(outer());`,
	`probe(mutual1(4)); function mutual1(n) { return n <= 0 ? "done" : mutual2(n - 1); }
		 function mutual2(n) { return mutual1(n - 1); }`,
	`function f(a, a) { return a; } probe(f(1, 2));`,
	`var o = { m: function () { return this.tag; }, tag: "T" }; probe(o.m());`,
	`function F(v) { this.v = v; } var o = new F(42); probe(o.v);`,
	// this at top level, method extraction losing this.
	`probe(typeof this);`,
	`var o = { tag: "t", m: function () { return typeof this; } }; var g = o.m; probe(o.m(), o["m"]());`,
	// Loops: for, do-while, nested break/continue.
	`var s = 0; for (var i = 0; i < 5; i++) { if (i === 2) continue; s += i; } probe(s, i);`,
	`var s = ""; for (var i = 0; i < 10; i++) { if (i > 3) break; s += i; } probe(s);`,
	`var n = 0; do { n++; } while (n < 4); probe(n);`,
	`var s = 0; for (var i = 0; i < 3; i++) for (var j = 0; j < 3; j++) { if (j === 1) continue; s += 1; } probe(s);`,
	`for (var i = 0, j = 10; i < j; i++, j--) {} probe(i, j);`,
	// Switch: match, default, fallthrough, decls in cases.
	`switch (2) { case 1: probe("one"); case 2: probe("two"); case 3: probe("three"); break; case 4: probe("four"); }`,
	`switch ("zz") { case "a": probe("a"); break; default: probe("dflt"); }`,
	`switch (1) { case 1: var sv = "set"; } probe(typeof sv);`,
	// try/catch/finally, throw, host errors, nesting.
	`try { throw { code: 7 }; } catch (e) { probe(e.code); } finally { probe("fin"); }`,
	`try { nope.prop; } catch (e) { probe(e.message); }`,
	`try { probe("ok"); } catch (e) { probe("never"); } probe("after");`,
	`function f() { try { return "t"; } finally { probe("fin"); } } probe(f());`,
	`try { try { throw "inner"; } finally { probe("f1"); } } catch (e) { probe(e); }`,
	`try { undefinedFn(); } catch (e) { probe(e.message); }`,
	// Objects, arrays, members, computed access, compound member ops.
	`var o = { a: 1, b: { c: 2 } }; o.b.d = o.a + o.b.c; probe(o.b.d, JSON.stringify(o));`,
	`var a = [1, 2, 3]; a.push(4); a[0] = a[1] + a[3]; probe(a.join(","), a.length);`,
	`var a = [5]; a[-1] = "neg"; a[1.5] = "frac"; probe(a[-1], a[1.5], a.length, JSON.stringify(a));`,
	`var i = 0; var a = [10, 20, 30]; a[i++] += 5; probe(i, a.join(","));`,
	`var o = {}; var k = "dyn"; o[k] = 1; o[k] += 2; probe(o.dyn);`,
	`var a = [1, 2, 3]; probe(a.map(function (x) { return x * 2; }).join(","), a.filter(function (x) { return x > 1; }).length);`,
	`var s = 0; [1, 2, 3].forEach(function (v, i) { s += v * i; }); probe(s);`,
	`var out = []; for (var i = 0; i < 3; i++) { out.push((function (n) { return function () { return n; }; })(i)); } probe(out[0](), out[1](), out[2]());`,
	// Spread, optional chaining/calls, apply/call/bind.
	`function sum(a, b, c) { return a + b + c; } var args = [1, 2, 3]; probe(sum.apply(null, args), sum(...args));`,
	`var o = null; probe(o?.x, o?.m?.(), typeof o?.a?.b);`,
	`function greet(g, n) { return g + " " + n + " from " + (this && this.tag); }
		 probe(greet.call({ tag: "c" }, "hi", "x"), greet.bind({ tag: "b" }, "yo")("z"));`,
	// Builtins: Math (deterministic LCG), JSON, parseInt, Object.
	`probe(Math.floor(3.7), Math.max(1, 9, 4), Math.abs(-2), parseInt("12px"), parseFloat("3.5rem"));`,
	`probe(Math.random() === Math.random());`,
	`probe(JSON.stringify({ b: 2, a: [1, "x", null] }), Object.keys({ x: 1, y: 2 }).join(","));`,
	`var e = new Error("boom"); probe(e.message, typeof e.stack);`,
	// Promises + setTimeout (synchronous in this interpreter).
	`Promise.resolve(5).then(function (v) { probe("then", v); }); probe("after");`,
	`setTimeout(function () { probe("timer"); }, 0); probe("sync");`,
	// Errors escaping to the top level keep line/message parity.
	`var x = 1;
		 probe("before");
		 x.missing.deeper;`,
	`probe("a"); ({}).nope();`,
	`probe(1 in { 1: "x" }, "k" in { k: 1 }, "k" in {});`,
	// Sequence/comma operator, template strings, ternary chains.
	`var x = (probe("first"), 2); probe(x);`,
	"var who = 'w'; probe(`hello ${who} ${1 + 1}`);",
	`var v = 5; probe(v < 3 ? "lo" : v < 7 ? "mid" : "hi");`,
	// Update on member/index single-evaluation.
	`var calls = 0; function idx() { calls++; return 0; } var a = [10]; a[idx()]++; probe(calls, a[0]);`,
	`var calls = 0; function base() { calls++; return o; } var o = { n: 1 }; base().n += 4; probe(calls, o.n);`,
}

// TestCompileEquivalence runs the corpus and requires each script's
// observable behavior — the same probe calls in the same order with the
// same values, the same final error — to match the logs frozen in
// testdata/compile_equivalence.golden.json. The logs were recorded from
// the AST interpreter the compiler replaced, so they pin the language
// semantics independently of the code under test.
func TestCompileEquivalence(t *testing.T) {
	raw, err := os.ReadFile("testdata/compile_equivalence.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(equivalenceCorpus) {
		t.Fatalf("golden has %d logs for %d corpus scripts", len(want), len(equivalenceCorpus))
	}
	for i, src := range equivalenceCorpus {
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			got := runObserved(t, src)
			if fmt.Sprint(got) != fmt.Sprint(want[i]) {
				t.Errorf("observations differ from the golden for:\n%s\ngot:  %v\nwant: %v", src, got, want[i])
			}
			if len(got) == 0 {
				t.Errorf("script produced no observations (probe never called, no error):\n%s", src)
			}
		})
	}
}

// TestCompileEquivalenceBudget checks a compiled runaway loop still
// exhausts the step budget.
func TestCompileEquivalenceBudget(t *testing.T) {
	prog, err := Parse(`while (true) { var x = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	in.MaxSteps = 5000
	if err := in.RunCompiled(cp, "test://budget"); err != ErrBudget {
		t.Fatalf("compiled runaway loop: got %v, want ErrBudget", err)
	}
}

// TestCompileEquivalenceRecursionCap checks compiled infinite recursion
// hits the call-stack cap rather than overflowing the Go stack.
func TestCompileEquivalenceRecursionCap(t *testing.T) {
	log := runObserved(t, `function f() { return f(); } f();`)
	if len(log) != 1 || !strings.Contains(log[0], "maximum call stack") {
		t.Fatalf("want call-stack error, got %v", log)
	}
}

// TestCompiledSharedAcrossInterps runs one compiled program in several
// interpreters and checks the runs stay independent (no shared frames
// or globals leaking through the immutable compiled form).
func TestCompiledSharedAcrossInterps(t *testing.T) {
	prog, err := Parse(`var n = (typeof seed === "number") ? seed : -1;
		function bump() { n += 1; return n; }
		bump(); bump();`)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 3; seed++ {
		in := NewInterp()
		in.Global.Define("seed", Number(float64(seed*100)))
		if err := in.RunCompiled(cp, "test://shared"); err != nil {
			t.Fatal(err)
		}
		v, _ := in.Global.Get("n")
		if want := float64(seed*100 + 2); v.Num() != want {
			t.Fatalf("seed %d: n = %v, want %v", seed, v.Num(), want)
		}
	}
}

// TestUpdateTargets: ++/-- on anything but a name or member access is an
// early syntax error at the operator's line, as browsers raise it, so no
// script reaches the compiler with an unwritable update target. Writable
// targets keep their behavior (a postfix update yields the old value, a
// prefix update the updated one).
func TestUpdateTargets(t *testing.T) {
	for _, src := range []string{"probe(1);\n[A]++", "probe(1);\n++(a+b)", "probe(1);\nf()--"} {
		_, err := Parse(src)
		var se *SyntaxError
		if !errors.As(err, &se) || se.Line != 2 || !strings.Contains(se.Msg, "invalid update target") {
			t.Errorf("Parse(%q) = %v, want an invalid-update-target syntax error at line 2", src, err)
		}
	}
	log := runObserved(t, "var a = 1; var i = 0; var o = { x: 5 }; var arr = [7];\n"+
		"probe(a++, a, (a)++, a, o.x--, o.x, arr[i]++, arr[0], ++a, --o.x, i);")
	want := "[number:1|number:2|number:2|number:3|number:5|number:4|number:7|number:8|number:4|number:3|number:0]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("updates of writable targets:\ngot  %s\nwant %s", got, want)
	}
}

// TestUpdateValues pins ECMAScript's update expressions (§13.4): each
// form writes ToNumber(old) plus or minus one; a postfix form yields
// ToNumber(old), a prefix form the new value.
func TestUpdateValues(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"var a = 0; var b = a++; probe(b, a);", "number:0|number:1"},
		{"var a = 5; probe(a--, a);", "number:5|number:4"},
		{`var o = { n: "7" }; probe(o.n++, o.n);`, "number:7|number:8"},
		{`var s = "x"; probe(s++, s);`, "number:NaN|number:NaN"},
		{"var arr = [10, 20]; var i = 0; probe(arr[i++], i);", "number:10|number:1"},
		{"var a = 0; var b = ++a; probe(b, a);", "number:1|number:1"},
		{"var a = 5; probe(--a, a);", "number:4|number:4"},
		{`var o = { n: "7" }; probe(++o.n, o.n);`, "number:8|number:8"},
		{"var arr = [10, 20]; var i = 0; probe(arr[++i], i);", "number:20|number:1"},
	} {
		if got := fmt.Sprint(runObserved(t, tc.src)); got != "["+tc.want+"]" {
			t.Errorf("%s\ngot  %s\nwant [%s]", tc.src, got, tc.want)
		}
	}
}

// TestJavaScriptAgreement pins, with the values JavaScript gives, what
// this engine computes for `arguments`, for assignment and update
// targets and for a property of null; the error lines are this
// engine's: a read fails at the member's line, an `=` or `op=` write at
// the assignment's. Where the engine differs from JavaScript (an
// arrow's own `arguments`, a parameter named `arguments`), only
// FuzzArgumentsFlag holds it.
func TestJavaScriptAgreement(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []string
	}{
		{"function f() { return arguments.length; } probe(f(1, 2, 3));", []string{"number:3"}},
		{"function f() { return `${arguments[0]}-${arguments.length}`; } probe(f('a', 'b'));", []string{"string:a-2"}},
		{"function f() { var o = {arguments}; return o.arguments[1]; } probe(f(1, 2));", []string{"number:2"}},
		{"var o = { m() { return arguments.length; } }; probe(o.m(1, 2, 3, 4));", []string{"number:4"}},
		{"function f() { var g = function () { return arguments.length; }; return g(1, 2, 3, 4, 5) + arguments.length; } probe(f(1));",
			[]string{"number:6"}},
		{"probe(typeof arguments);", []string{"string:undefined"}},
		{"var x = { a: 1 }; x.a += 2; x['b'] = 5; x.b++; probe(x.a, x.b, (x.a--) + (++x.a), x.a);",
			[]string{"number:3|number:6|number:6|number:3"}},
		{"var a = []; var i = 0; a[i++] = 7; probe(a[0], i, a.length);", []string{"number:7|number:1|number:1"}},
		{"var s = 'x'; s += 1; probe(s); s++; probe(s);", []string{"string:x1", "number:NaN"}},
		{"probe(1);\nzz += 1;", []string{"number:1", "ERR script runtime error at line 2: zz is not defined"}},
		{"undef.x++;", []string{"ERR script runtime error at line 1: undef is not defined"}},
		{"var n = null;\nn.p;", []string{`ERR script runtime error at line 2: cannot read properties of null (reading "p")`}},
		{"var n = null;\nn.p\n+= 1;", []string{`ERR script runtime error at line 2: cannot read properties of null (reading "p")`}},
		{"var n = null;\nn.p\n= 1;", []string{`ERR script runtime error at line 3: cannot set property "p" of null`}},
		{"var n = null;\nn['p']\n++;", []string{`ERR script runtime error at line 2: cannot read properties of null (reading "p")`}},
	} {
		if got := runObserved(t, tc.src); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s\ngot  %q\nwant %q", tc.src, got, tc.want)
		}
	}
}

package script

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// evalExpr runs `var __r = <expr>` and returns __r.
func evalExpr(t *testing.T, expr string) Value {
	t.Helper()
	in := NewInterp()
	if err := in.Run("var __r = ("+expr+");", "test://expr"); err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	v, _ := in.Global.Get("__r")
	return v
}

func TestArithmeticAndStrings(t *testing.T) {
	tests := []struct {
		expr string
		want string
	}{
		{"1 + 2 * 3", "7"},
		{"(1 + 2) * 3", "9"},
		{"10 % 3", "1"},
		{"'a' + 'b'", "ab"},
		{"'n=' + 5", "n=5"},
		{"1 < 2", "true"},
		{"'abc'.length", "3"},
		{"'A-B-C'.split('-').length", "3"},
		{"'Hello'.toLowerCase()", "hello"},
		{"'camera,mic'.includes('mic')", "true"},
		{"[1,2,3].length", "3"},
		{"[1,2,3].indexOf(2)", "1"},
		{"[1,2,3].join('|')", "1|2|3"},
		{"typeof 'x'", "string"},
		{"typeof undefined", "undefined"},
		{"typeof {}", "object"},
		{"typeof missingVar", "undefined"},
		{"true ? 'y' : 'n'", "y"},
		{"null == undefined", "true"},
		{"null === undefined", "false"},
		{"'5' == 5", "true"},
		{"'5' === 5", "false"},
		{"!0", "true"},
		{"1 && 2", "2"},
		{"0 || 'fallback'", "fallback"},
		{"null ?? 'dflt'", "dflt"},
		{"0 ?? 'dflt'", "0"},
		{"0x10", "16"},
		{"3.5 + 1", "4.5"},
		{"`template`", "template"},
		{"-(-3)", "3"},
	}
	for _, tt := range tests {
		if got := evalExpr(t, tt.expr).ToString(); got != tt.want {
			t.Errorf("%s = %q; want %q", tt.expr, got, tt.want)
		}
	}
}

func TestVariablesAndFunctions(t *testing.T) {
	in := NewInterp()
	src := `
	var total = 0;
	function add(a, b) { return a + b; }
	const inc = (x) => x + 1;
	let dbl = function (x) { return x * 2; };
	total = add(inc(1), dbl(3)); // 2 + 6
	`
	if err := in.Run(src, "test://fn"); err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global.Get("total")
	if v.ToString() != "8" {
		t.Errorf("total = %s; want 8", v.ToString())
	}
}

func TestHoisting(t *testing.T) {
	in := NewInterp()
	if err := in.Run("var r = later(); function later() { return 42; }", "t"); err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global.Get("r")
	if v.Num() != 42 {
		t.Errorf("hoisted call = %v", v.ToString())
	}
}

func TestClosures(t *testing.T) {
	in := NewInterp()
	src := `
	function counter() {
		var n = 0;
		return function () { n = n + 1; return n; };
	}
	var c = counter();
	c(); c();
	var result = c();
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global.Get("result")
	if v.Num() != 3 {
		t.Errorf("closure counter = %v", v.ToString())
	}
}

func TestObjectsAndArrays(t *testing.T) {
	in := NewInterp()
	src := `
	var o = {name: 'camera', nested: {deep: true}, list: [1, 2]};
	var byDot = o.name;
	var byIndex = o['name'];
	var deep = o.nested.deep;
	o.added = 'yes';
	o.list.push(3);
	var len = o.list.length;
	var keys = Object.keys(o).join(',');
	var shorthandVal = 7;
	var sh = {shorthandVal};
	var shv = sh.shorthandVal;
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	expect := map[string]string{
		"byDot": "camera", "byIndex": "camera", "deep": "true",
		"len": "3", "keys": "name,nested,list,added", "shv": "7",
	}
	for name, want := range expect {
		v, _ := in.Global.Get(name)
		if v.ToString() != want {
			t.Errorf("%s = %q; want %q", name, v.ToString(), want)
		}
	}
}

func TestControlFlow(t *testing.T) {
	in := NewInterp()
	src := `
	var evens = [];
	for (var i = 0; i < 10; i++) {
		if (i % 2 !== 0) { continue; }
		if (i > 6) { break; }
		evens.push(i);
	}
	var sum = 0;
	var j = 0;
	while (j < 5) { sum += j; j++; }
	var evensStr = evens.join(',');
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global.Get("evensStr")
	if v.ToString() != "0,2,4,6" {
		t.Errorf("evens = %q", v.ToString())
	}
	s, _ := in.Global.Get("sum")
	if s.Num() != 10 {
		t.Errorf("sum = %v", s.ToString())
	}
}

func TestTryCatchThrow(t *testing.T) {
	in := NewInterp()
	src := `
	var caught = '';
	try {
		throw 'boom';
	} catch (e) {
		caught = e;
	} finally {
		caught += '!';
	}
	var typeErrCaught = false;
	try {
		undefined.property;
	} catch (e) {
		typeErrCaught = true;
	}
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global.Get("caught")
	if v.ToString() != "boom!" {
		t.Errorf("caught = %q", v.ToString())
	}
	te, _ := in.Global.Get("typeErrCaught")
	if !te.Truthy() {
		t.Error("host TypeError must be catchable")
	}
}

func TestUncaughtThrow(t *testing.T) {
	in := NewInterp()
	err := in.Run("throw 'unhandled';", "t")
	var thrown *Thrown
	if !errors.As(err, &thrown) || thrown.V.ToString() != "unhandled" {
		t.Errorf("err = %v", err)
	}
}

func TestStepBudget(t *testing.T) {
	in := NewInterp()
	in.MaxSteps = 1000
	err := in.Run("while (true) { var x = 1; }", "t")
	if !errors.Is(err, ErrBudget) {
		t.Errorf("infinite loop: err = %v; want budget exhaustion", err)
	}
}

func TestErrorStackAttribution(t *testing.T) {
	// The Figure 1 mechanism: new Error().stack reveals the script URL
	// of the calling frames.
	in := NewInterp()
	src := `
	function helper() { return new Error().stack; }
	var stack = helper();
	`
	if err := in.Run(src, "https://thirdparty.example/track.js"); err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global.Get("stack")
	if !strings.Contains(v.ToString(), "https://thirdparty.example/track.js") {
		t.Errorf("stack missing script URL: %q", v.ToString())
	}
	if !strings.Contains(v.ToString(), "at helper") {
		t.Errorf("stack missing frame name: %q", v.ToString())
	}
}

func TestCrossScriptAttribution(t *testing.T) {
	// A function defined by script A but invoked from script B must
	// attribute to A (its defining script), like a stack trace does.
	in := NewInterp()
	if err := in.Run("function fromA() { return new Error().stack; }", "https://a.example/a.js"); err != nil {
		t.Fatal(err)
	}
	if err := in.Run("var st = fromA();", "https://b.example/b.js"); err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global.Get("st")
	if !strings.Contains(v.ToString(), "a.example/a.js") {
		t.Errorf("innermost frame should be a.js: %q", v.ToString())
	}
	if !strings.Contains(v.ToString(), "b.example/b.js") {
		t.Errorf("outer frame should be b.js: %q", v.ToString())
	}
}

func TestCallApplyBind(t *testing.T) {
	in := NewInterp()
	src := `
	function whoami() { return this.name; }
	var viaCall = whoami.call({name: 'call'});
	var viaApply = whoami.apply({name: 'apply'}, []);
	var bound = whoami.bind({name: 'bind'});
	var viaBind = bound();
	function sum(a, b) { return a + b; }
	var applied = sum.apply(null, [3, 4]);
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"viaCall": "call", "viaApply": "apply", "viaBind": "bind", "applied": "7",
	} {
		v, _ := in.Global.Get(name)
		if v.ToString() != want {
			t.Errorf("%s = %q; want %q", name, v.ToString(), want)
		}
	}
}

func TestInstrumentationWrapperPattern(t *testing.T) {
	// The paper's Figure 1 verbatim pattern must work end to end: save
	// the original function, overwrite it with a logging wrapper, call
	// through with apply, and the instrumented call still works.
	in := NewInterp()
	host := NewObject()
	calls := 0
	host.Set("query", NativeValue("query", func(_ *Interp, _ Value, args []Value) (Value, error) {
		calls++
		return String("granted"), nil
	}))
	nav := NewObject()
	nav.Set("permissions", ObjectValue(host))
	in.Global.Define("navigator", ObjectValue(nav))
	src := `
	var origFunc = navigator.permissions.query;
	var logged = [];
	navigator.permissions.query = function () {
		var stacktrace = new Error().stack;
		logged.push(stacktrace);
		return origFunc.apply(this, arguments);
	};
	var result = navigator.permissions.query({name: 'camera'});
	`
	if err := in.Run(src, "https://site.example/main.js"); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("original function called %d times; want 1", calls)
	}
	r, _ := in.Global.Get("result")
	if r.ToString() != "granted" {
		t.Errorf("result = %q", r.ToString())
	}
	lg, _ := in.Global.Get("logged")
	if lg.Kind() != KindArray || len(lg.Arr().Elems) != 1 {
		t.Fatalf("logged = %v", lg.ToString())
	}
	if !strings.Contains(lg.Arr().Elems[0].ToString(), "site.example/main.js") {
		t.Errorf("stack: %q", lg.Arr().Elems[0].ToString())
	}
}

func TestPromises(t *testing.T) {
	in := NewInterp()
	src := `
	var order = [];
	Promise.resolve('v1').then(function (v) {
		order.push('then:' + v);
		return 'v2';
	}).then(function (v) {
		order.push('chain:' + v);
	});
	Promise.reject('bad').catch(function (e) { order.push('catch:' + e); });
	Promise.resolve(1).finally(function () { order.push('finally'); });
	var trace = order.join(' ');
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global.Get("trace")
	if v.ToString() != "then:v1 chain:v2 catch:bad finally" {
		t.Errorf("trace = %q", v.ToString())
	}
}

func TestAwaitUnwrapsEagerPromise(t *testing.T) {
	in := NewInterp()
	src := `
	async function probe() {
		var p = await Promise.resolve('ok');
		return p;
	}
	var got = probe();
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global.Get("got")
	// await returns the promise object itself in this synchronous model;
	// unwrap for comparison.
	if v.Kind() == KindObject && v.Obj().Class == "Promise" {
		v = v.Obj().GetOr("__value", Undefined())
	}
	if v.ToString() != "ok" {
		t.Errorf("await result = %q", v.ToString())
	}
}

func TestArrayHigherOrder(t *testing.T) {
	in := NewInterp()
	src := `
	var doubled = [1,2,3].map(function (x) { return x * 2; }).join(',');
	var bigs = [1,5,10].filter(function (x) { return x > 2; }).length;
	var found = ['camera','mic'].find(function (x) { return x === 'mic'; });
	var any = [1,2].some(function (x) { return x === 2; });
	var seen = [];
	['a','b'].forEach(function (x, i) { seen.push(i + ':' + x); });
	var seenStr = seen.join(' ');
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"doubled": "2,4,6", "bigs": "2", "found": "mic", "any": "true", "seenStr": "0:a 1:b",
	} {
		v, _ := in.Global.Get(name)
		if v.ToString() != want {
			t.Errorf("%s = %q; want %q", name, v.ToString(), want)
		}
	}
}

func TestSpread(t *testing.T) {
	in := NewInterp()
	src := `
	function three(a, b, c) { return a + b + c; }
	var args = [1, 2, 3];
	var r = three(...args);
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	v, _ := in.Global.Get("r")
	if v.Num() != 6 {
		t.Errorf("spread result = %v", v.ToString())
	}
}

func TestOptionalChaining(t *testing.T) {
	in := NewInterp()
	src := `
	var nav = {permissions: null};
	var a = nav.permissions?.query;
	var b = nav.missing?.anything;
	var safe = nav.permissions?.query?.('x');
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "safe"} {
		v, _ := in.Global.Get(name)
		if !v.IsUndefined() {
			t.Errorf("%s = %v; want undefined", name, v.ToString())
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"var = 3;",
		"function () {}",
		"if (x {",
		"'unterminated",
		"for (x of y) {}",
		"@",
	}
	for _, src := range bad {
		if err := NewInterp().Run(src, "t"); err == nil {
			t.Errorf("Run(%q): expected error", src)
		}
	}
}

func TestDeterministicMathRandom(t *testing.T) {
	run := func() string {
		in := NewInterp()
		if err := in.Run("var r = '' + Math.random() + Math.random();", "t"); err != nil {
			t.Fatal(err)
		}
		v, _ := in.Global.Get("r")
		return v.ToString()
	}
	if run() != run() {
		t.Error("Math.random must be deterministic across interpreter instances")
	}
}

// Property: the parser never panics on arbitrary input.
func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: every program either runs to completion or returns an error
// within the step budget (no hangs).
func TestRunTerminates(t *testing.T) {
	snippets := []string{
		"while(1){}", "for(;;){}", "var i=0; while(i<1e9){i++}",
		"function f(){return f()} f()",
	}
	for _, src := range snippets {
		in := NewInterp()
		in.MaxSteps = 5000
		if err := in.Run(src, "t"); err == nil {
			t.Errorf("%q: expected an error (budget or stack)", src)
		}
	}
}

func BenchmarkInterpQueryLoop(b *testing.B) {
	src := `
	var total = 0;
	for (var i = 0; i < 100; i++) { total += i; }
	`
	prog, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := NewInterp()
		if err := in.RunCompiled(cp, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTypeofReferenceError: typeof turns a ReferenceError into
// "undefined" only when its operand is a bare undeclared name. An
// operand that reads such a name anywhere else throws, as in a browser,
// and try/catch catches the error.
func TestTypeofReferenceError(t *testing.T) {
	tests := []struct{ src, want string }{
		{`var r = typeof nope;`, "undefined"},
		{`var r = typeof (function () { return nope; })();`, "ERR nope is not defined"},
		{`var r = typeof (nope + 1);`, "ERR nope is not defined"},
		{`var r = typeof [nope];`, "ERR nope is not defined"},
		{`var r; try { r = typeof (nope + 1); } catch (e) { r = "caught " + e.message; }`, "caught nope is not defined"},
	}
	for _, tt := range tests {
		in := NewInterp()
		got := ""
		if err := in.Run(tt.src, "test://typeof"); err != nil {
			var rt *RuntimeError
			if !errors.As(err, &rt) {
				t.Fatalf("%s: %v", tt.src, err)
			}
			got = "ERR " + rt.Msg
		} else {
			v, _ := in.Global.Get("r")
			got = v.ToString()
		}
		if got != tt.want {
			t.Errorf("%s: got %q, want %q", tt.src, got, tt.want)
		}
	}
}

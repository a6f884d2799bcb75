package script

import (
	"errors"
	"strings"
	"testing"
)

// TestStringMethods sweeps the string surface real probe scripts use.
func TestStringMethods(t *testing.T) {
	tests := []struct{ expr, want string }{
		{"' padded '.trim()", "padded"},
		{"'a-b-c'.replace('-', '+')", "a+b-c"},
		{"'abcdef'.slice(1, 3)", "bc"},
		{"'abcdef'.substring(2)", "cdef"},
		{"'abcdef'.charAt(2)", "c"},
		{"'abcdef'.charAt(99)", ""},
		{"'abc'.toUpperCase()", "ABC"},
		{"'camera,mic'.startsWith('cam')", "true"},
		{"'camera,mic'.endsWith('mic')", "true"},
		{"'xyz'.indexOf('y')", "1"},
		{"'xyz'.indexOf('q')", "-1"},
		{"'a'.toString()", "a"},
		{"'one two'.split()[0]", "one two"},
		{"(5).toString()", "5"},
		{"(3.25).toFixed()", "3.25"},
	}
	for _, tt := range tests {
		if got := evalExpr(t, tt.expr).ToString(); got != tt.want {
			t.Errorf("%s = %q; want %q", tt.expr, got, tt.want)
		}
	}
}

func TestArrayMethods(t *testing.T) {
	tests := []struct{ expr, want string }{
		{"[1,2,3].pop()", "3"},
		{"[].pop()", "undefined"},
		{"[1,2,3].slice(1)", "2,3"},
		{"[1,2,3].slice(-2)", "2,3"},
		{"[1,2].concat([3,4], 5)", "1,2,3,4,5"},
		{"[1,2,3].find(function (x) { return x > 1; })", "2"},
		{"[1,2,3].some(function (x) { return x > 5; })", "false"},
		{"Array.isArray([1])", "true"},
		{"Array.isArray('no')", "false"},
		{"Array.from([7,8]).length", "2"},
		{"[3,1].includes(3)", "true"},
	}
	for _, tt := range tests {
		if got := evalExpr(t, tt.expr).ToString(); got != tt.want {
			t.Errorf("%s = %q; want %q", tt.expr, got, tt.want)
		}
	}
}

func TestObjectAndJSONBuiltins(t *testing.T) {
	in := NewInterp()
	src := `
	var a = {x: 1};
	Object.assign(a, {y: 2}, {z: 3});
	var keys = Object.keys(a).join(',');
	var entries = Object.entries(a).length;
	var json = JSON.stringify({b: true, n: 2, s: 'str', arr: [1, null]});
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	keys, _ := in.Global.Get("keys")
	if keys.ToString() != "x,y,z" {
		t.Errorf("keys = %q", keys.ToString())
	}
	entries, _ := in.Global.Get("entries")
	if entries.Num() != 3 {
		t.Errorf("entries = %v", entries.ToString())
	}
	json, _ := in.Global.Get("json")
	if !strings.Contains(json.ToString(), `"arr":[1,null]`) || !strings.Contains(json.ToString(), `"b":true`) {
		t.Errorf("json = %q", json.ToString())
	}
}

func TestMathAndNumericBuiltins(t *testing.T) {
	tests := []struct{ expr, want string }{
		{"Math.floor(3.9)", "3"},
		{"Math.ceil(3.1)", "4"},
		{"Math.round(3.5)", "4"},
		{"Math.abs(-7)", "7"},
		{"Math.min(3, 1, 2)", "1"},
		{"Math.max(3, 9, 2)", "9"},
		{"parseInt('42.9')", "42"},
		{"parseFloat('2.5')", "2.5"},
		{"Number('8')", "8"},
		{"Number(true)", "1"},
		{"String(99)", "99"},
		{"Boolean('')", "false"},
		{"Boolean('x')", "true"},
		{"7 & 3", "3"},
		{"4 | 1", "5"},
		{"5 ^ 1", "4"},
		{"~0", "-1"},
		{"'x' in {x: 1}", "true"},
		{"'y' in {x: 1}", "false"},
		{"encodeURIComponent('a b')", "a%20b"},
	}
	for _, tt := range tests {
		if got := evalExpr(t, tt.expr).ToString(); got != tt.want {
			t.Errorf("%s = %q; want %q", tt.expr, got, tt.want)
		}
	}
}

func TestOperatorAssignsAndComma(t *testing.T) {
	in := NewInterp()
	src := `
	var n = 10;
	n -= 2; n *= 3; n /= 4; // 6
	var s = 'a'; s += 'b';
	var c = (1, 2, 3);
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	n, _ := in.Global.Get("n")
	s, _ := in.Global.Get("s")
	c, _ := in.Global.Get("c")
	if n.Num() != 6 || s.ToString() != "ab" || c.Num() != 3 {
		t.Errorf("n=%v s=%v c=%v", n.ToString(), s.ToString(), c.ToString())
	}
}

func TestConstructUserFunction(t *testing.T) {
	in := NewInterp()
	src := `
	function Widget(name) { this.name = name; }
	var w = new Widget('chat');
	var n = w.name;
	function Factory() { return {made: true}; }
	var f = new Factory();
	var made = f.made;
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	n, _ := in.Global.Get("n")
	made, _ := in.Global.Get("made")
	if n.ToString() != "chat" || !made.Truthy() {
		t.Errorf("n=%v made=%v", n.ToString(), made.ToString())
	}
}

func TestPromiseAllMixed(t *testing.T) {
	in := NewInterp()
	src := `
	var got = '';
	Promise.all([Promise.resolve(1), 2, Promise.resolve(3)]).then(function (vs) {
		got = vs.join('-');
	});
	var rejected = '';
	Promise.all([Promise.resolve(1), Promise.reject('bad')]).catch(function (e) {
		rejected = e;
	});
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	got, _ := in.Global.Get("got")
	rejected, _ := in.Global.Get("rejected")
	if got.ToString() != "1-2-3" {
		t.Errorf("got = %q", got.ToString())
	}
	if rejected.ToString() != "bad" {
		t.Errorf("rejected = %q", rejected.ToString())
	}
}

func TestTimersAndConsole(t *testing.T) {
	in := NewInterp()
	src := `
	var ticks = 0;
	var id = setTimeout(function () { ticks++; }, 100);
	clearTimeout(id);
	var iv = setInterval(function () { ticks += 10; }, 100);
	clearInterval(iv);
	console.log('hello', ticks);
	console.warn('warn'); console.error('err'); console.info('info'); console.debug('dbg');
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	ticks, _ := in.Global.Get("ticks")
	// setTimeout/setInterval run synchronously once in this model.
	if ticks.Num() != 11 {
		t.Errorf("ticks = %v", ticks.ToString())
	}
}

func TestStringEscapesAndComments(t *testing.T) {
	in := NewInterp()
	src := "// line comment\n" +
		"/* block\ncomment */\n" +
		`var s = 'tab\there\nnewline\rret\\slash\'quote';` + "\n" +
		"var hex = 0xFF;"
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	s, _ := in.Global.Get("s")
	if !strings.Contains(s.ToString(), "\t") || !strings.Contains(s.ToString(), "\n") ||
		!strings.Contains(s.ToString(), `\slash`) || !strings.Contains(s.ToString(), "'quote") {
		t.Errorf("escapes: %q", s.ToString())
	}
	hex, _ := in.Global.Get("hex")
	if hex.Num() != 255 {
		t.Errorf("hex = %v", hex.ToString())
	}
}

func TestValueConversions(t *testing.T) {
	tests := []struct{ expr, want string }{
		{"typeof true", "boolean"},
		{"typeof 1.5", "number"},
		{"typeof null", "object"},
		{"typeof [1]", "object"},
		{"typeof function () {}", "function"},
		{"'' + [1,2]", "1,2"},
		{"'' + {a:1}", "[object Object]"},
		{"'' + null", "null"},
		{"'' + undefined", "undefined"},
		{"1 + true", "2"},
		{"'3' * 2", "6"},
		{"'abc' < 'abd'", "true"},
		{"5 >= 5", "true"},
		{"false == 0", "true"},
		{"'0.5' / 1", "0.5"},
	}
	for _, tt := range tests {
		if got := evalExpr(t, tt.expr).ToString(); got != tt.want {
			t.Errorf("%s = %q; want %q", tt.expr, got, tt.want)
		}
	}
}

func TestCallFunctionFromHost(t *testing.T) {
	in := NewInterp()
	if err := in.Run("function add(a, b) { return a + b; }", "t"); err != nil {
		t.Fatal(err)
	}
	fn, _ := in.Global.Get("add")
	got, err := in.CallFunction(fn, Undefined(), []Value{Number(2), Number(3)})
	if err != nil || got.Num() != 5 {
		t.Errorf("CallFunction = %v, %v", got.ToString(), err)
	}
	if _, err := in.CallFunction(String("not callable"), Undefined(), nil); err == nil {
		t.Error("calling a string must fail")
	}
}

func TestErrorMessageProperty(t *testing.T) {
	in := NewInterp()
	src := `
	var e = new Error('boom');
	var msg = e.message;
	var hasStack = e.stack.length > 0;
	var te = new TypeError('typed');
	var tmsg = te.message;
	`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	msg, _ := in.Global.Get("msg")
	hasStack, _ := in.Global.Get("hasStack")
	tmsg, _ := in.Global.Get("tmsg")
	if msg.ToString() != "boom" || !hasStack.Truthy() || tmsg.ToString() != "typed" {
		t.Errorf("msg=%q hasStack=%v tmsg=%q", msg.ToString(), hasStack.Truthy(), tmsg.ToString())
	}
}

func TestArrayIndexAssignmentGrowth(t *testing.T) {
	in := NewInterp()
	if err := in.Run("var a = [1]; a[3] = 9; var len = a.length; var hole = a[2];", "t"); err != nil {
		t.Fatal(err)
	}
	length, _ := in.Global.Get("len")
	hole, _ := in.Global.Get("hole")
	if length.Num() != 4 || !hole.IsUndefined() {
		t.Errorf("len=%v hole=%v", length.ToString(), hole.ToString())
	}
}

func TestObjectBracketAssignment(t *testing.T) {
	in := NewInterp()
	if err := in.Run("var o = {}; o['k' + 1] = 'v'; var got = o.k1;", "t"); err != nil {
		t.Fatal(err)
	}
	got, _ := in.Global.Get("got")
	if got.ToString() != "v" {
		t.Errorf("got = %q", got.ToString())
	}
	// Assigning a property on a primitive fails like a TypeError.
	if err := NewInterp().Run("var n = 5; n.x = 1;", "t"); err == nil {
		t.Error("property assignment on number must fail")
	}
}

// Non-element computed indices on an array (negative, fractional)
// become property sets instead of being silently dropped.
func TestArrayNonElementIndexAssignment(t *testing.T) {
	in := NewInterp()
	if err := in.Run(`var a = [5];
	a[-1] = 'neg'; a[1.5] = 'frac';
	var neg = a[-1]; var frac = a[1.5]; var len = a.length;`, "t"); err != nil {
		t.Fatal(err)
	}
	neg, _ := in.Global.Get("neg")
	frac, _ := in.Global.Get("frac")
	length, _ := in.Global.Get("len")
	if neg.ToString() != "neg" || frac.ToString() != "frac" || length.Num() != 1 {
		t.Errorf("neg=%q frac=%q len=%v", neg.ToString(), frac.ToString(), length.ToString())
	}
}

// Compound member/index assignment evaluates the target object and
// the index expression exactly once.
func TestCompoundMemberSingleEvaluation(t *testing.T) {
	in := NewInterp()
	if err := in.Run(`var baseCalls = 0, idxCalls = 0;
	var o = { n: 1 };
	function base() { baseCalls++; return o; }
	function idx() { idxCalls++; return 0; }
	base().n += 4;
	var a = [10];
	a[idx()] += 5;
	var n = o.n; var el = a[0];`, "t"); err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		v, _ := in.Global.Get(name)
		return v.Num()
	}
	if get("baseCalls") != 1 || get("n") != 5 {
		t.Errorf("base() calls=%v o.n=%v; want 1 and 5", get("baseCalls"), get("n"))
	}
	if get("idxCalls") != 1 || get("el") != 15 {
		t.Errorf("idx() calls=%v a[0]=%v; want 1 and 15", get("idxCalls"), get("el"))
	}
}

// TestArrayCallbackMissing: an array method called without its callback
// fails as a call of undefined, a catchable runtime error, instead of
// indexing past the argument list.
func TestArrayCallbackMissing(t *testing.T) {
	for _, m := range []string{"map", "filter", "find", "some"} {
		err := NewInterp().Run("[1]."+m+"();", "t")
		var rt *RuntimeError
		if !errors.As(err, &rt) {
			t.Errorf("[1].%s() = %v, want a runtime error", m, err)
		}
	}
}

// TestCyclicValues: a value that contains itself neither recurses
// forever nor loses the rest of the value. JSON.stringify rejects it
// with a catchable error, and an array renders the cyclic element empty,
// as Array.prototype.join does.
func TestCyclicValues(t *testing.T) {
	in := NewInterp()
	src := `var o = { a: 1 }; o.self = o;
		var msg = ""; try { JSON.stringify(o); } catch (e) { msg = e.message; }
		var arr = [1, 2]; arr.push(arr); var s = "" + arr;`
	if err := in.Run(src, "t"); err != nil {
		t.Fatal(err)
	}
	if v, _ := in.Global.Get("msg"); !strings.Contains(v.ToString(), "circular") {
		t.Errorf("JSON.stringify of a cycle: message %q", v.ToString())
	}
	if v, _ := in.Global.Get("s"); v.ToString() != "1,2," {
		t.Errorf(`"" + cyclic array = %q, want "1,2,"`, v.ToString())
	}
	if got := JSONString(ArrayValue(Number(1), ArrayValue(Number(2)))); got != "[1,[2]]" {
		t.Errorf("acyclic nesting = %s", got)
	}
}

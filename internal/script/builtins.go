package script

import (
	"math"
	"strings"
)

// installBuiltins populates the global scope with the standard objects
// the probe scripts need: Object, Array, JSON, Math, console, Error,
// Promise, and a synchronous setTimeout.
func (in *Interp) installBuiltins() {
	g := in.Global

	// console: a sink; the browser layer may replace it to capture logs.
	console := NewObject()
	for _, m := range []string{"log", "warn", "error", "info", "debug"} {
		console.Set(m, NativeValue("console."+m, func(_ *Interp, _ Value, _ []Value) (Value, error) {
			return Undefined(), nil
		}))
	}
	g.Define("console", ObjectValue(console))

	// Object.keys / Object.assign / Object.entries.
	objectNS := NewObject()
	objectNS.Set("keys", NativeValue("Object.keys", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 || args[0].Kind() != KindObject {
			return ArrayValue(), nil
		}
		return StringsValue(args[0].Obj().Keys()), nil
	}))
	objectNS.Set("assign", NativeValue("Object.assign", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 || args[0].Kind() != KindObject {
			return Undefined(), nil
		}
		dst := args[0]
		for _, src := range args[1:] {
			if src.Kind() != KindObject {
				continue
			}
			for _, k := range src.Obj().Keys() {
				v, _ := src.Obj().Get(k)
				dst.Obj().Set(k, v)
			}
		}
		return dst, nil
	}))
	objectNS.Set("entries", NativeValue("Object.entries", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 || args[0].Kind() != KindObject {
			return ArrayValue(), nil
		}
		var pairs []Value
		for _, k := range args[0].Obj().Keys() {
			v, _ := args[0].Obj().Get(k)
			pairs = append(pairs, ArrayValue(String(k), v))
		}
		return ArrayValue(pairs...), nil
	}))
	g.Define("Object", ObjectValue(objectNS))

	arrayNS := NewObject()
	arrayNS.Set("isArray", NativeValue("Array.isArray", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return Bool(len(args) > 0 && args[0].Kind() == KindArray), nil
	}))
	arrayNS.Set("from", NativeValue("Array.from", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) > 0 && args[0].Kind() == KindArray {
			return ArrayValue(append([]Value{}, args[0].Arr().Elems...)...), nil
		}
		return ArrayValue(), nil
	}))
	g.Define("Array", ObjectValue(arrayNS))

	jsonNS := NewObject()
	jsonNS.Set("stringify", NativeValue("JSON.stringify", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return String("undefined"), nil
		}
		return String(JSONString(args[0])), nil
	}))
	g.Define("JSON", ObjectValue(jsonNS))

	mathNS := NewObject()
	mathNS.Set("floor", NativeValue("Math.floor", numFn(math.Floor)))
	mathNS.Set("ceil", NativeValue("Math.ceil", numFn(math.Ceil)))
	mathNS.Set("round", NativeValue("Math.round", numFn(math.Round)))
	mathNS.Set("abs", NativeValue("Math.abs", numFn(math.Abs)))
	mathNS.Set("min", NativeValue("Math.min", func(_ *Interp, _ Value, args []Value) (Value, error) {
		m := math.Inf(1)
		for _, a := range args {
			m = math.Min(m, a.ToNumber())
		}
		return Number(m), nil
	}))
	mathNS.Set("max", NativeValue("Math.max", func(_ *Interp, _ Value, args []Value) (Value, error) {
		m := math.Inf(-1)
		for _, a := range args {
			m = math.Max(m, a.ToNumber())
		}
		return Number(m), nil
	}))
	mathNS.Set("random", NativeValue("Math.random", func(in *Interp, _ Value, _ []Value) (Value, error) {
		// Deterministic LCG so crawls are reproducible.
		in.rng = in.rng*6364136223846793005 + 1442695040888963407
		return Number(float64(in.rng>>11) / float64(1<<53)), nil
	}))
	g.Define("Math", ObjectValue(mathNS))

	// Error: captures the interpreter's stack like V8's Error().stack —
	// the mechanism the paper's instrumentation (Figure 1) relies on.
	g.Define("Error", NativeValue("Error", func(in *Interp, _ Value, args []Value) (Value, error) {
		eo := NewObject()
		eo.Class = "Error"
		msg := ""
		if len(args) > 0 {
			msg = args[0].ToString()
		}
		eo.Set("message", String(msg))
		eo.Set("stack", String(in.StackTrace()))
		return ObjectValue(eo), nil
	}))
	g.Define("TypeError", mustGlobal(g, "Error"))

	// Promise with eager (synchronous) resolution.
	promiseNS := NewObject()
	promiseNS.Set("resolve", NativeValue("Promise.resolve", func(_ *Interp, _ Value, args []Value) (Value, error) {
		v := Undefined()
		if len(args) > 0 {
			v = args[0]
		}
		return ResolvedPromise(v), nil
	}))
	promiseNS.Set("reject", NativeValue("Promise.reject", func(_ *Interp, _ Value, args []Value) (Value, error) {
		v := Undefined()
		if len(args) > 0 {
			v = args[0]
		}
		return RejectedPromise(v), nil
	}))
	promiseNS.Set("all", NativeValue("Promise.all", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 || args[0].Kind() != KindArray {
			return ResolvedPromise(ArrayValue()), nil
		}
		var results []Value
		for _, p := range args[0].Arr().Elems {
			if p.Kind() == KindObject && p.Obj().Class == "Promise" {
				if state := p.Obj().GetOr("__state", String("")); state.Str() == "rejected" {
					return p, nil
				}
				results = append(results, p.Obj().GetOr("__value", Undefined()))
			} else {
				results = append(results, p)
			}
		}
		return ResolvedPromise(ArrayValue(results...)), nil
	}))
	g.Define("Promise", ObjectValue(promiseNS))

	// setTimeout: synchronous execution — the crawler's "wait 20 seconds
	// on the page" phase collapses to immediate callback execution.
	g.Define("setTimeout", NativeValue("setTimeout", func(in *Interp, _ Value, args []Value) (Value, error) {
		if len(args) > 0 && args[0].IsCallable() {
			if _, err := in.call(args[0], Undefined(), nil, 0); err != nil {
				return Undefined(), err
			}
		}
		return Number(1), nil
	}))
	g.Define("setInterval", NativeValue("setInterval", func(in *Interp, _ Value, args []Value) (Value, error) {
		// One tick is enough for the measurement model.
		if len(args) > 0 && args[0].IsCallable() {
			if _, err := in.call(args[0], Undefined(), nil, 0); err != nil {
				return Undefined(), err
			}
		}
		return Number(1), nil
	}))
	g.Define("clearTimeout", NativeValue("clearTimeout", noop))
	g.Define("clearInterval", NativeValue("clearInterval", noop))
	g.Define("parseInt", NativeValue("parseInt", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(math.NaN()), nil
		}
		return Number(math.Trunc(args[0].ToNumber())), nil
	}))
	g.Define("parseFloat", NativeValue("parseFloat", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(math.NaN()), nil
		}
		return Number(args[0].ToNumber()), nil
	}))
	g.Define("String", NativeValue("String", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return String(""), nil
		}
		return String(args[0].ToString()), nil
	}))
	g.Define("Boolean", NativeValue("Boolean", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return Bool(len(args) > 0 && args[0].Truthy()), nil
	}))
	g.Define("Number", NativeValue("Number", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(0), nil
		}
		return Number(args[0].ToNumber()), nil
	}))
	g.Define("encodeURIComponent", NativeValue("encodeURIComponent", func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return String("undefined"), nil
		}
		return String(strings.ReplaceAll(args[0].ToString(), " ", "%20")), nil
	}))
	g.Define("globalThis", Undefined()) // replaced by the browser layer
	g.Define("NaN", Number(math.NaN()))
	g.Define("Infinity", Number(math.Inf(1)))
}

func numFn(f func(float64) float64) func(*Interp, Value, []Value) (Value, error) {
	return func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(math.NaN()), nil
		}
		return Number(f(args[0].ToNumber())), nil
	}
}

func noop(_ *Interp, _ Value, _ []Value) (Value, error) { return Undefined(), nil }

func mustGlobal(g *Env, name string) Value {
	v, _ := g.Get(name)
	return v
}

// ResolvedPromise builds a synchronously-resolved promise object: then
// callbacks fire immediately, which models the crawler's settled-page
// snapshot (every pending promise has resolved by collection time).
func ResolvedPromise(v Value) Value {
	return makePromise("resolved", v)
}

// RejectedPromise builds a rejected promise.
func RejectedPromise(reason Value) Value {
	return makePromise("rejected", reason)
}

// Promise methods are shared this-based natives rather than per-promise
// closures: they read __state/__value from the receiver, so a promise
// in a sealed template keeps working through each realm's stub — a
// captured-variable implementation would leak the template's state and
// identity into every realm.
var promiseThenV, promiseCatchV, promiseFinallyV Value

func init() {
	// Assigned in init: a package-level initializer would form a cycle
	// (then → ResolvedPromise → makePromise → then).
	promiseThenV = NativeValue("then", promiseThen)
	promiseCatchV = NativeValue("catch", promiseCatch)
	promiseFinallyV = NativeValue("finally", promiseFinally)
}

func promiseState(this Value) (state string, v Value) {
	if this.Kind() != KindObject {
		return "", Undefined()
	}
	return this.Obj().GetOr("__state", String("")).Str(),
		this.Obj().GetOr("__value", Undefined())
}

func promiseThen(in *Interp, this Value, args []Value) (Value, error) {
	state, v := promiseState(this)
	if state == "resolved" && len(args) > 0 && args[0].IsCallable() {
		r, err := in.call(args[0], Undefined(), []Value{v}, 0)
		if err != nil {
			return Undefined(), err
		}
		if r.Kind() == KindObject && r.Obj().Class == "Promise" {
			return r, nil
		}
		return ResolvedPromise(r), nil
	}
	if state == "rejected" && len(args) > 1 && args[1].IsCallable() {
		r, err := in.call(args[1], Undefined(), []Value{v}, 0)
		if err != nil {
			return Undefined(), err
		}
		return ResolvedPromise(r), nil
	}
	return this, nil
}

func promiseCatch(in *Interp, this Value, args []Value) (Value, error) {
	state, v := promiseState(this)
	if state == "rejected" && len(args) > 0 && args[0].IsCallable() {
		r, err := in.call(args[0], Undefined(), []Value{v}, 0)
		if err != nil {
			return Undefined(), err
		}
		return ResolvedPromise(r), nil
	}
	return this, nil
}

func promiseFinally(in *Interp, this Value, args []Value) (Value, error) {
	if len(args) > 0 && args[0].IsCallable() {
		if _, err := in.call(args[0], Undefined(), nil, 0); err != nil {
			return Undefined(), err
		}
	}
	return this, nil
}

func makePromise(state string, v Value) Value {
	p := NewObject()
	p.Class = "Promise"
	p.Set("__state", String(state))
	p.Set("__value", v)
	p.Set("then", promiseThenV)
	p.Set("catch", promiseCatchV)
	p.Set("finally", promiseFinallyV)
	return ObjectValue(p)
}

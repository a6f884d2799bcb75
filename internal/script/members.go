package script

import (
	"strings"
)

// getMember resolves property access for every value kind, including
// the method surface of strings, arrays and functions that permission
// probe scripts routinely use (split, includes, forEach, apply, ...).
func (in *Interp) getMember(v Value, name string, line int) (Value, error) {
	switch v.kind {
	case KindUndefined, KindNull:
		return Undefined(), in.rterr(line, "cannot read properties of %s (reading %q)", v.TypeOf(), name)
	case KindObject:
		if p, ok := v.obj.Get(name); ok {
			return p, nil
		}
		return Undefined(), nil
	case KindArray:
		return in.arrayMember(v, name)
	case KindString:
		return in.stringMember(v, name)
	case KindFunc, KindNative:
		return in.funcMember(v, name)
	case KindNumber:
		switch name {
		case "toFixed":
			return NativeValue("toFixed", func(_ *Interp, this Value, args []Value) (Value, error) {
				return String(this.ToString()), nil
			}), nil
		case "toString":
			return boundToString(v), nil
		}
		return Undefined(), nil
	default:
		return Undefined(), nil
	}
}

func boundToString(v Value) Value {
	return NativeValue("toString", func(_ *Interp, _ Value, _ []Value) (Value, error) {
		return String(v.ToString()), nil
	})
}

func (in *Interp) arrayMember(v Value, name string) (Value, error) {
	arr := v.arr
	switch name {
	case "length":
		return Number(float64(len(arr.Elems))), nil
	case "push":
		return NativeValue("push", func(_ *Interp, _ Value, args []Value) (Value, error) {
			arr.Elems = append(arr.Elems, args...)
			return Number(float64(len(arr.Elems))), nil
		}), nil
	case "pop":
		return NativeValue("pop", func(_ *Interp, _ Value, _ []Value) (Value, error) {
			if len(arr.Elems) == 0 {
				return Undefined(), nil
			}
			last := arr.Elems[len(arr.Elems)-1]
			arr.Elems = arr.Elems[:len(arr.Elems)-1]
			return last, nil
		}), nil
	case "includes":
		return NativeValue("includes", func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Bool(false), nil
			}
			for _, e := range arr.Elems {
				if StrictEquals(e, args[0]) {
					return Bool(true), nil
				}
			}
			return Bool(false), nil
		}), nil
	case "indexOf":
		return NativeValue("indexOf", func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			for i, e := range arr.Elems {
				if StrictEquals(e, args[0]) {
					return Number(float64(i)), nil
				}
			}
			return Number(-1), nil
		}), nil
	case "join":
		return NativeValue("join", func(_ *Interp, _ Value, args []Value) (Value, error) {
			sep := ","
			if len(args) > 0 {
				sep = args[0].ToString()
			}
			parts := make([]string, len(arr.Elems))
			for i, e := range arr.Elems {
				parts[i] = e.ToString()
			}
			return String(strings.Join(parts, sep)), nil
		}), nil
	case "slice":
		return NativeValue("slice", func(_ *Interp, _ Value, args []Value) (Value, error) {
			start, end := 0, len(arr.Elems)
			if len(args) > 0 {
				start = clampIndex(int(args[0].ToNumber()), len(arr.Elems))
			}
			if len(args) > 1 {
				end = clampIndex(int(args[1].ToNumber()), len(arr.Elems))
			}
			if start > end {
				start = end
			}
			return ArrayValue(append([]Value{}, arr.Elems[start:end]...)...), nil
		}), nil
	case "forEach":
		return NativeValue("forEach", func(in *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 || !args[0].IsCallable() {
				return Undefined(), nil
			}
			for i, e := range arr.Elems {
				if _, err := in.call(args[0], Undefined(), []Value{e, Number(float64(i)), v}, 0); err != nil {
					return Undefined(), err
				}
			}
			return Undefined(), nil
		}), nil
	case "map":
		return NativeValue("map", func(in *Interp, _ Value, args []Value) (Value, error) {
			fn := firstArg(args)
			out := make([]Value, 0, len(arr.Elems))
			for i, e := range arr.Elems {
				r, err := in.call(fn, Undefined(), []Value{e, Number(float64(i)), v}, 0)
				if err != nil {
					return Undefined(), err
				}
				out = append(out, r)
			}
			return ArrayValue(out...), nil
		}), nil
	case "filter":
		return NativeValue("filter", func(in *Interp, _ Value, args []Value) (Value, error) {
			fn := firstArg(args)
			var out []Value
			for i, e := range arr.Elems {
				r, err := in.call(fn, Undefined(), []Value{e, Number(float64(i)), v}, 0)
				if err != nil {
					return Undefined(), err
				}
				if r.Truthy() {
					out = append(out, e)
				}
			}
			return ArrayValue(out...), nil
		}), nil
	case "find":
		return NativeValue("find", func(in *Interp, _ Value, args []Value) (Value, error) {
			fn := firstArg(args)
			for i, e := range arr.Elems {
				r, err := in.call(fn, Undefined(), []Value{e, Number(float64(i)), v}, 0)
				if err != nil {
					return Undefined(), err
				}
				if r.Truthy() {
					return e, nil
				}
			}
			return Undefined(), nil
		}), nil
	case "some":
		return NativeValue("some", func(in *Interp, _ Value, args []Value) (Value, error) {
			fn := firstArg(args)
			for i, e := range arr.Elems {
				r, err := in.call(fn, Undefined(), []Value{e, Number(float64(i)), v}, 0)
				if err != nil {
					return Undefined(), err
				}
				if r.Truthy() {
					return Bool(true), nil
				}
			}
			return Bool(false), nil
		}), nil
	case "reduce":
		return NativeValue("reduce", func(in *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 || !args[0].IsCallable() {
				return Undefined(), &RuntimeError{Msg: "reduce requires a callback"}
			}
			var acc Value
			start := 0
			if len(args) > 1 {
				acc = args[1]
			} else {
				if len(arr.Elems) == 0 {
					return Undefined(), &RuntimeError{Msg: "reduce of empty array with no initial value"}
				}
				acc = arr.Elems[0]
				start = 1
			}
			for i := start; i < len(arr.Elems); i++ {
				r, err := in.call(args[0], Undefined(), []Value{acc, arr.Elems[i], Number(float64(i)), v}, 0)
				if err != nil {
					return Undefined(), err
				}
				acc = r
			}
			return acc, nil
		}), nil
	case "concat":
		return NativeValue("concat", func(_ *Interp, _ Value, args []Value) (Value, error) {
			out := append([]Value{}, arr.Elems...)
			for _, a := range args {
				if a.kind == KindArray {
					out = append(out, a.arr.Elems...)
				} else {
					out = append(out, a)
				}
			}
			return ArrayValue(out...), nil
		}), nil
	default:
		if p, ok := arr.Props[name]; ok {
			return p, nil
		}
		return Undefined(), nil
	}
}

func clampIndex(i, n int) int {
	if i < 0 {
		i += n
	}
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

func (in *Interp) stringMember(v Value, name string) (Value, error) {
	s := v.s
	switch name {
	case "length":
		return Number(float64(len(s))), nil
	case "includes":
		return NativeValue("includes", func(_ *Interp, _ Value, args []Value) (Value, error) {
			return Bool(len(args) > 0 && strings.Contains(s, args[0].ToString())), nil
		}), nil
	case "indexOf":
		return NativeValue("indexOf", func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			return Number(float64(strings.Index(s, args[0].ToString()))), nil
		}), nil
	case "startsWith":
		return NativeValue("startsWith", func(_ *Interp, _ Value, args []Value) (Value, error) {
			return Bool(len(args) > 0 && strings.HasPrefix(s, args[0].ToString())), nil
		}), nil
	case "endsWith":
		return NativeValue("endsWith", func(_ *Interp, _ Value, args []Value) (Value, error) {
			return Bool(len(args) > 0 && strings.HasSuffix(s, args[0].ToString())), nil
		}), nil
	case "toLowerCase":
		return NativeValue("toLowerCase", func(_ *Interp, _ Value, _ []Value) (Value, error) {
			return String(strings.ToLower(s)), nil
		}), nil
	case "toUpperCase":
		return NativeValue("toUpperCase", func(_ *Interp, _ Value, _ []Value) (Value, error) {
			return String(strings.ToUpper(s)), nil
		}), nil
	case "split":
		return NativeValue("split", func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return ArrayValue(String(s)), nil
			}
			parts := strings.Split(s, args[0].ToString())
			return StringsValue(parts), nil
		}), nil
	case "trim":
		return NativeValue("trim", func(_ *Interp, _ Value, _ []Value) (Value, error) {
			return String(strings.TrimSpace(s)), nil
		}), nil
	case "slice", "substring":
		return NativeValue(name, func(_ *Interp, _ Value, args []Value) (Value, error) {
			start, end := 0, len(s)
			if len(args) > 0 {
				start = clampIndex(int(args[0].ToNumber()), len(s))
			}
			if len(args) > 1 {
				end = clampIndex(int(args[1].ToNumber()), len(s))
			}
			if start > end {
				start = end
			}
			return String(s[start:end]), nil
		}), nil
	case "replace":
		return NativeValue("replace", func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) < 2 {
				return String(s), nil
			}
			return String(strings.Replace(s, args[0].ToString(), args[1].ToString(), 1)), nil
		}), nil
	case "charAt":
		return NativeValue("charAt", func(_ *Interp, _ Value, args []Value) (Value, error) {
			i := 0
			if len(args) > 0 {
				i = int(args[0].ToNumber())
			}
			if i < 0 || i >= len(s) {
				return String(""), nil
			}
			return String(string(s[i])), nil
		}), nil
	case "toString":
		return boundToString(v), nil
	default:
		return Undefined(), nil
	}
}

// funcMember implements call/apply/bind — apply in particular is the
// exact idiom of the paper's Figure 1 instrumentation wrapper
// (origFunc.apply(this, [...params])).
func (in *Interp) funcMember(fn Value, name string) (Value, error) {
	switch name {
	case "call":
		return NativeValue("call", func(in *Interp, _ Value, args []Value) (Value, error) {
			this := Undefined()
			var rest []Value
			if len(args) > 0 {
				this = args[0]
				rest = args[1:]
			}
			return in.call(fn, this, rest, 0)
		}), nil
	case "apply":
		return NativeValue("apply", func(in *Interp, _ Value, args []Value) (Value, error) {
			this := Undefined()
			var rest []Value
			if len(args) > 0 {
				this = args[0]
			}
			if len(args) > 1 && args[1].kind == KindArray {
				rest = args[1].arr.Elems
			}
			return in.call(fn, this, rest, 0)
		}), nil
	case "bind":
		return NativeValue("bind", func(_ *Interp, _ Value, args []Value) (Value, error) {
			boundThis := Undefined()
			var bound []Value
			if len(args) > 0 {
				boundThis = args[0]
				bound = append([]Value{}, args[1:]...)
			}
			return NativeValue("bound", func(in *Interp, _ Value, callArgs []Value) (Value, error) {
				return in.call(fn, boundThis, append(append([]Value{}, bound...), callArgs...), 0)
			}), nil
		}), nil
	case "name":
		if fn.kind == KindFunc {
			return String(fn.fn.Name), nil
		}
		return String(fn.nat.Name), nil
	default:
		return Undefined(), nil
	}
}

// firstArg returns a native's first argument, or undefined when the
// call passed none: [1].map() must fail as a call of undefined, not
// index past the argument list.
func firstArg(args []Value) Value {
	if len(args) == 0 {
		return Undefined()
	}
	return args[0]
}

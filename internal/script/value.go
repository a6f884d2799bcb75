package script

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates runtime values.
type Kind uint8

const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject
	KindArray
	KindFunc   // closure
	KindNative // Go-implemented function
)

// Value is a JavaScript value.
type Value struct {
	kind Kind
	b    bool
	n    float64
	s    string
	obj  *Object
	arr  *Array
	fn   *Closure
	nat  *Native
}

// Object is a property bag. Host objects (navigator, document, ...) are
// Objects whose function-valued properties are Natives.
//
// An object is one of three shapes; only the accessors below and the
// snapshot sealer touch props, so callers never see the difference:
//
//   - plain: props and order hold every property;
//   - sealed template (id != 0): part of a GlobalSnapshot, shared by
//     every realm and never written again;
//   - realm-local stub (base != nil): a copy-on-write view of a sealed
//     template object. Reads fall through to base; writes land in the
//     stub's own props, and order lists only keys base lacks.
type Object struct {
	props map[string]Value
	order []string
	// Class tags host objects ("Promise", "PermissionStatus", ...).
	Class string
	// Call, when non-nil, makes the object callable/constructible —
	// used for host constructors that also carry static properties
	// (Notification.requestPermission alongside new Notification()).
	Call *Native

	base *Object
	// loc localizes base's object-valued properties into the stub's
	// realm, so every path to one template object yields one stub.
	loc *localizer
	// id numbers a sealed template object within its snapshot (1-based).
	id int32
}

// Array is a JS array.
type Array struct {
	Elems []Value
	// Props holds object-style properties set with non-element keys
	// (negative or fractional indexes, arbitrary strings) — JS arrays are
	// objects, and a[-1] = x is a property set, not an element write.
	// Allocated lazily; JSON serialization ignores it, like
	// JSON.stringify does for non-index array properties.
	Props map[string]Value
}

// Closure is a user-defined function.
type Closure struct {
	Name string
	Env  *Env
	// ScriptURL is the URL of the script that defined the function; it
	// feeds stack-trace attribution (§4.1.1: "the stacktrace enables us
	// to determine the origin of a call").
	ScriptURL string
	Line      int
	// compiled is the lowered body: each call runs it in a fresh slot
	// frame with slot-resolved variables.
	compiled *compiledFunc
}

// Native is a host function.
type Native struct {
	Name string
	Fn   func(in *Interp, this Value, args []Value) (Value, error)
}

// ---- constructors ----

func Undefined() Value       { return Value{kind: KindUndefined} }
func Null() Value            { return Value{kind: KindNull} }
func Bool(b bool) Value      { return Value{kind: KindBool, b: b} }
func Number(n float64) Value { return Value{kind: KindNumber, n: n} }
func String(s string) Value  { return Value{kind: KindString, s: s} }

// NewObject creates an empty object.
func NewObject() *Object { return &Object{props: map[string]Value{}} }

// ObjectValue wraps an Object.
func ObjectValue(o *Object) Value { return Value{kind: KindObject, obj: o} }

// ArrayValue wraps element values.
func ArrayValue(elems ...Value) Value {
	return Value{kind: KindArray, arr: &Array{Elems: elems}}
}

// StringsValue builds an array of strings.
func StringsValue(ss []string) Value {
	elems := make([]Value, len(ss))
	for i, s := range ss {
		elems[i] = String(s)
	}
	return ArrayValue(elems...)
}

// NativeValue wraps a host function.
func NativeValue(name string, fn func(in *Interp, this Value, args []Value) (Value, error)) Value {
	return Value{kind: KindNative, nat: &Native{Name: name, Fn: fn}}
}

// FuncValue wraps a closure.
func FuncValue(c *Closure) Value { return Value{kind: KindFunc, fn: c} }

// ---- accessors ----

func (v Value) Kind() Kind        { return v.kind }
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }
func (v Value) IsNull() bool      { return v.kind == KindNull }
func (v Value) IsCallable() bool {
	return v.kind == KindFunc || v.kind == KindNative ||
		(v.kind == KindObject && v.obj.Call != nil)
}

// Str returns the string payload (empty for non-strings).
func (v Value) Str() string { return v.s }

// Num returns the numeric payload.
func (v Value) Num() float64 { return v.n }

// BoolVal returns the bool payload.
func (v Value) BoolVal() bool { return v.b }

// Obj returns the object payload, or nil.
func (v Value) Obj() *Object { return v.obj }

// Arr returns the array payload, or nil.
func (v Value) Arr() *Array { return v.arr }

// Truthy implements JS truthiness.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindUndefined, KindNull:
		return false
	case KindBool:
		return v.b
	case KindNumber:
		return v.n != 0 && !math.IsNaN(v.n)
	case KindString:
		return v.s != ""
	default:
		return true
	}
}

// Set assigns a property, preserving insertion order for new keys.
func (o *Object) Set(key string, v Value) {
	if o.id != 0 {
		// Only a bug reaches here: a native that captured a template
		// object, or a template interpreter used after its snapshot.
		panic("script: write to sealed template object (property " + strconv.Quote(key) + ")")
	}
	if o.props == nil {
		o.props = make(map[string]Value)
	}
	if _, exists := o.props[key]; !exists {
		if _, inherited := o.base.own(key); !inherited {
			o.order = append(o.order, key)
		}
	}
	o.props[key] = v
}

// Get reads a property.
func (o *Object) Get(key string) (Value, bool) {
	if v, ok := o.props[key]; ok {
		return v, true
	}
	if v, ok := o.base.own(key); ok {
		return o.loc.value(v), true
	}
	return Undefined(), false
}

// own reads a property of a plain or sealed object without localizing
// it; a nil receiver (a stub's absent base) has no properties.
func (o *Object) own(key string) (Value, bool) {
	if o == nil {
		return Undefined(), false
	}
	v, ok := o.props[key]
	return v, ok
}

// GetOr reads a property with a default.
func (o *Object) GetOr(key string, def Value) Value {
	if v, ok := o.Get(key); ok {
		return v
	}
	return def
}

// Keys returns property names in insertion order: for a stub, its
// template's keys first, then the keys the realm added.
func (o *Object) Keys() []string {
	if o.base == nil {
		return append([]string{}, o.order...)
	}
	keys := make([]string, 0, len(o.base.order)+len(o.order))
	return append(append(keys, o.base.order...), o.order...)
}

// ToString implements JS ToString for diagnostics and concatenation.
func (v Value) ToString() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindNumber:
		if v.n == math.Trunc(v.n) && math.Abs(v.n) < 1e15 && !math.IsInf(v.n, 0) {
			return strconv.FormatInt(int64(v.n), 10)
		}
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	case KindString:
		return v.s
	case KindArray:
		return arrayString(v.arr, nil)
	case KindObject:
		if v.obj.Class != "" {
			return "[object " + v.obj.Class + "]"
		}
		return "[object Object]"
	case KindFunc:
		return "function " + v.fn.Name + "() { [user code] }"
	case KindNative:
		return "function " + v.nat.Name + "() { [native code] }"
	}
	return ""
}

// ToNumber implements JS ToNumber loosely.
func (v Value) ToNumber() float64 {
	switch v.kind {
	case KindNumber:
		return v.n
	case KindBool:
		if v.b {
			return 1
		}
		return 0
	case KindString:
		s := strings.TrimSpace(v.s)
		if s == "" {
			return 0
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case KindNull:
		return 0
	default:
		return math.NaN()
	}
}

// TypeOf implements the typeof operator.
func (v Value) TypeOf() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindFunc, KindNative:
		return "function"
	default:
		return "object"
	}
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindUndefined, KindNull:
		return true
	case KindBool:
		return a.b == b.b
	case KindNumber:
		return a.n == b.n
	case KindString:
		return a.s == b.s
	case KindObject:
		return a.obj == b.obj
	case KindArray:
		return a.arr == b.arr
	case KindFunc:
		return a.fn == b.fn
	case KindNative:
		return a.nat == b.nat
	}
	return false
}

// LooseEquals implements == (approximately: === plus null/undefined
// equivalence plus string/number coercion).
func LooseEquals(a, b Value) bool {
	if a.kind == b.kind {
		return StrictEquals(a, b)
	}
	if (a.kind == KindNull && b.kind == KindUndefined) ||
		(a.kind == KindUndefined && b.kind == KindNull) {
		return true
	}
	if (a.kind == KindNumber && b.kind == KindString) ||
		(a.kind == KindString && b.kind == KindNumber) ||
		(a.kind == KindBool || b.kind == KindBool) {
		return a.ToNumber() == b.ToNumber()
	}
	return false
}

// arrayString joins an array's elements with commas. An element that
// is the array itself or one enclosing it renders empty, as
// Array.prototype.join does, so a cyclic array cannot recurse forever.
func arrayString(a *Array, path []*Array) string {
	if slices.Contains(path, a) {
		return ""
	}
	path = append(path, a)
	parts := make([]string, len(a.Elems))
	for i, e := range a.Elems {
		if e.kind == KindArray {
			parts[i] = arrayString(e.arr, path)
		} else {
			parts[i] = e.ToString()
		}
	}
	return strings.Join(parts, ",")
}

// JSONString renders a value as JSON. A value that contains itself
// renders the inner reference as null; JSON.stringify rejects it.
func JSONString(v Value) string {
	s, _ := jsonString(v, nil)
	return s
}

// jsonString renders v inside the arrays and objects on path, and
// reports false when v contains one of them or itself.
func jsonString(v Value, path []any) (string, bool) {
	var parts []string
	acyclic := true
	add := func(prefix string, e Value) {
		s, ok := jsonString(e, path)
		parts, acyclic = append(parts, prefix+s), acyclic && ok
	}
	switch v.kind {
	case KindBool:
		return strconv.FormatBool(v.b), true
	case KindNumber:
		return v.ToString(), true
	case KindString:
		return strconv.Quote(v.s), true
	case KindArray:
		if slices.Contains(path, any(v.arr)) {
			return "null", false
		}
		path = append(path, v.arr)
		for _, e := range v.arr.Elems {
			add("", e)
		}
		return "[" + strings.Join(parts, ",") + "]", acyclic
	case KindObject:
		if slices.Contains(path, any(v.obj)) {
			return "null", false
		}
		path = append(path, v.obj)
		keys := v.obj.Keys()
		sort.Strings(keys)
		for _, k := range keys {
			if pv, _ := v.obj.Get(k); !pv.IsCallable() {
				add(strconv.Quote(k)+":", pv)
			}
		}
		return "{" + strings.Join(parts, ",") + "}", acyclic
	}
	return "null", true
}

package script

import (
	"sort"
	"sync"
)

// Realm-global snapshotting: embedders that install a large host
// surface (the webapi realm defines dozens of namespace objects and
// hundreds of natives) build it ONCE on a template interpreter, seal it
// into a snapshot, and install that snapshot into each new realm
// copy-on-write.
//
// Sealing makes the template graph concrete and immutable: every object
// is numbered and any write to it panics. Installing copies nothing:
// each template object a realm reaches becomes a realm-local stub,
// created on first read and memoised per realm, whose reads fall
// through to the template and whose writes land in the stub. Natives
// and closures are shared as they are — host functions recover
// per-realm state through Interp.Host at call time, so a native must
// never capture a template object. Arrays have no copy-on-write form
// (Elems is a public slice), so a realm copies a template array
// eagerly the first time it reaches it; the webapi surface has none.
//
// Because every path to one template object passes through the same
// memo, aliasing holds within a realm: if the template defines window,
// self and globalThis as one object, the realm sees one stub for all
// three, and window.navigator === navigator.

// GlobalSnapshot is an immutable capture of an interpreter's global
// bindings, ready to be installed into other interpreters.
type GlobalSnapshot struct {
	names []string
	vals  []Value
	// objects is the number of sealed objects reachable from vals.
	objects int
}

// Names returns the snapshot's global binding names, sorted.
func (s *GlobalSnapshot) Names() []string { return append([]string(nil), s.names...) }

// NewBareInterp creates an interpreter with an empty global scope — no
// builtins. Pair with InstallSnapshot to stamp a prebuilt surface.
func NewBareInterp() *Interp {
	return &Interp{Global: NewEnv(nil), MaxSteps: 200000, rng: 0x9E3779B97F4A7C15}
}

// SnapshotGlobals seals the interpreter's current global bindings into
// a snapshot. Objects the template built are sealed in place; stubs it
// holds over another snapshot are flattened into sealed copies, so the
// result never reads through to anything but itself. Take the snapshot
// only when the surface is fully built: the template interpreter must
// not run or be written again.
func (in *Interp) SnapshotGlobals() *GlobalSnapshot {
	s := &GlobalSnapshot{}
	for name := range in.Global.vars {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	sl := &sealer{done: map[*Object]*Object{}, arrs: map[*Array]bool{}}
	for _, name := range s.names {
		s.vals = append(s.vals, sl.value(in.Global.vars[name]))
	}
	s.objects = sl.n
	return s
}

// InstallSnapshot binds the snapshot's globals in this interpreter,
// copy-on-write: the bound objects are realm-local stubs over the
// sealed template, so realms cannot observe each other's writes.
func (in *Interp) InstallSnapshot(s *GlobalSnapshot) {
	l := &localizer{objs: make([]*Object, s.objects)}
	if len(in.Global.vars) == 0 {
		in.Global.vars = make(map[string]Value, len(s.names))
	}
	for i, name := range s.names {
		in.Global.vars[name] = l.value(s.vals[i])
	}
}

// sealer walks a template graph once, preserving aliasing (and
// surviving cycles) through its memo.
type sealer struct {
	done map[*Object]*Object
	arrs map[*Array]bool
	n    int
}

func (s *sealer) value(v Value) Value {
	switch v.kind {
	case KindObject:
		return ObjectValue(s.object(v.obj))
	case KindArray:
		s.array(v.arr)
	}
	// Scalars are values; natives and closures are shared immutably.
	return v
}

func (s *sealer) object(o *Object) *Object {
	if t, ok := s.done[o]; ok {
		return t
	}
	t := o
	if o.base != nil || o.id != 0 {
		// A stub, or an object an earlier snapshot already sealed and
		// numbered (renumbering it would misdirect that snapshot's
		// realms): flatten it into an object this snapshot owns.
		keys := o.Keys()
		t = &Object{props: make(map[string]Value, len(keys)), order: keys, Class: o.Class, Call: o.Call}
		for _, k := range keys {
			t.props[k], _ = o.Get(k)
		}
	}
	s.done[o] = t // register before recursing: cycles and aliases hit it
	s.n++
	t.id = int32(s.n)
	for k, pv := range t.props {
		t.props[k] = s.value(pv)
	}
	return t
}

func (s *sealer) array(a *Array) {
	if s.arrs[a] {
		return
	}
	s.arrs[a] = true
	for i, e := range a.Elems {
		a.Elems[i] = s.value(e)
	}
	for k, pv := range a.Props {
		a.Props[k] = s.value(pv)
	}
}

// localizer maps one snapshot's sealed values into one realm.
type localizer struct {
	// objs holds the realm's stub for each sealed object, by id-1.
	objs []*Object
	// arrs holds the realm's eager copy of each template array reached.
	arrs map[*Array]*Array
}

func (l *localizer) value(v Value) Value {
	switch v.kind {
	case KindObject:
		return ObjectValue(l.object(v.obj))
	case KindArray:
		return Value{kind: KindArray, arr: l.array(v.arr)}
	}
	return v
}

func (l *localizer) object(t *Object) *Object {
	if stub := l.objs[t.id-1]; stub != nil {
		return stub
	}
	stub := &Object{Class: t.Class, Call: t.Call, base: t, loc: l}
	l.objs[t.id-1] = stub
	return stub
}

func (l *localizer) array(t *Array) *Array {
	if c, ok := l.arrs[t]; ok {
		return c
	}
	if l.arrs == nil {
		l.arrs = map[*Array]*Array{}
	}
	c := &Array{}
	l.arrs[t] = c // register before recursing, like the sealer
	if t.Elems != nil {
		c.Elems = make([]Value, len(t.Elems))
		for i, e := range t.Elems {
			c.Elems[i] = l.value(e)
		}
	}
	if t.Props != nil {
		c.Props = make(map[string]Value, len(t.Props))
		for k, pv := range t.Props {
			c.Props[k] = l.value(pv)
		}
	}
	return c
}

// builtinsSnap lazily captures the standard builtins from a throwaway
// template, so NewInterp installs a snapshot instead of rebuilding
// every native on each call.
var (
	builtinsOnce sync.Once
	builtinsSnap *GlobalSnapshot
)

func builtinsSnapshot() *GlobalSnapshot {
	builtinsOnce.Do(func() {
		tmpl := NewBareInterp()
		tmpl.installBuiltins()
		builtinsSnap = tmpl.SnapshotGlobals()
	})
	return builtinsSnap
}

package html

import (
	"sync"
	"unsafe"
)

// Slab sizes: nodes and attrs are carved in fixed chunks recycled
// through sync.Pools; a typical landing page (a few hundred nodes)
// needs one or two chunks of each.
const (
	nodeChunkSize = 256
	attrChunkSize = 256
	kidChunkSize  = 1024
	// kidSliceCap is the capacity carved for a node's first child; most
	// elements have a handful of children, and the rare wide node simply
	// grows onto the heap.
	kidSliceCap = 4
	// oversizedAttrs falls back to a heap allocation rather than burning
	// most of a chunk on one pathological tag.
	oversizedAttrs = attrChunkSize / 4

	nodeChunkBytes = nodeChunkSize * int(unsafe.Sizeof(Node{}))
	attrChunkBytes = attrChunkSize * int(unsafe.Sizeof(Attr{}))
	kidChunkBytes  = kidChunkSize * int(unsafe.Sizeof((*Node)(nil)))
)

// The chunk pools hold pointers to slice headers (the canonical
// sync.Pool shape) so each Put boxes one small pointer rather than
// copying a header into the interface — and staticcheck's SA6002 stays
// quiet without directives.
var (
	arenaPool     = sync.Pool{New: func() any { return &arena{} }}
	nodeChunkPool = sync.Pool{New: func() any { s := make([]Node, nodeChunkSize); return &s }}
	attrChunkPool = sync.Pool{New: func() any { s := make([]Attr, attrChunkSize); return &s }}
	kidChunkPool  = sync.Pool{New: func() any { s := make([]*Node, kidChunkSize); return &s }}
	stackPool     = sync.Pool{New: func() any { s := make([]*Node, 0, 32); return &s }}
)

// arena is a bump allocator for one parsed document: nodes, attribute
// slices, and initial child-pointer slices are carved from pooled
// chunks instead of individual heap allocations, and the whole document
// is returned to the pools in O(chunks) when its owner releases it.
//
// Ownership contract: an arena-backed tree is immutable after parsing
// and must not be referenced after release — ParsedDoc.Release is the
// one place release happens. A nil *arena degrades
// every method to plain heap allocation (the public Parse path, whose
// trees are GC-owned and live forever).
type arena struct {
	nodes [][]Node
	nodeN int
	attrs [][]Attr
	attrN int
	kids  [][]*Node
	kidN  int
}

func newArena() *arena {
	return arenaPool.Get().(*arena)
}

// slabBytes is the memory the arena's chunks pin, carved or not.
func (a *arena) slabBytes() int {
	return len(a.nodes)*nodeChunkBytes + len(a.attrs)*attrChunkBytes + len(a.kids)*kidChunkBytes
}

// release zeroes every chunk (dropping the string references that would
// otherwise pin the source body) and returns them to the pools.
func (a *arena) release() {
	for _, ch := range a.nodes {
		ch := ch
		clear(ch)
		nodeChunkPool.Put(&ch)
	}
	for _, ch := range a.attrs {
		ch := ch
		clear(ch)
		attrChunkPool.Put(&ch)
	}
	for _, ch := range a.kids {
		ch := ch
		clear(ch)
		kidChunkPool.Put(&ch)
	}
	a.nodes, a.attrs, a.kids = a.nodes[:0], a.attrs[:0], a.kids[:0]
	a.nodeN, a.attrN, a.kidN = 0, 0, 0
	arenaPool.Put(a)
}

// newNode carves one zeroed node.
func (a *arena) newNode() *Node {
	if a == nil {
		return &Node{}
	}
	if len(a.nodes) == 0 || a.nodeN == nodeChunkSize {
		a.nodes = append(a.nodes, *nodeChunkPool.Get().(*[]Node))
		a.nodeN = 0
	}
	n := &a.nodes[len(a.nodes)-1][a.nodeN]
	a.nodeN++
	return n
}

// copyAttrs copies a tokenizer's scratch attributes into arena (or, for
// a nil arena, exact-size heap) storage the node can own.
func (a *arena) copyAttrs(src []Attr) []Attr {
	if len(src) == 0 {
		return nil
	}
	if a == nil || len(src) > oversizedAttrs {
		return append([]Attr(nil), src...)
	}
	if len(a.attrs) == 0 || a.attrN+len(src) > attrChunkSize {
		a.attrs = append(a.attrs, *attrChunkPool.Get().(*[]Attr))
		a.attrN = 0
	}
	chunk := a.attrs[len(a.attrs)-1]
	dst := chunk[a.attrN : a.attrN+len(src) : a.attrN+len(src)]
	copy(dst, src)
	a.attrN += len(src)
	return dst
}

// appendChild links c under p, carving p's first child slice from the
// arena; growth past the carved capacity falls back to the ordinary
// heap-doubling append (the abandoned slab slots are reclaimed when the
// arena is released).
func (a *arena) appendChild(p, c *Node) {
	if a != nil && p.Children == nil {
		if len(a.kids) == 0 || a.kidN+kidSliceCap > kidChunkSize {
			a.kids = append(a.kids, *kidChunkPool.Get().(*[]*Node))
			a.kidN = 0
		}
		chunk := a.kids[len(a.kids)-1]
		p.Children = chunk[a.kidN : a.kidN : a.kidN+kidSliceCap]
		a.kidN += kidSliceCap
	}
	p.Children = append(p.Children, c)
}

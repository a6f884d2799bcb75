package html

import (
	"context"

	"permodyssey/internal/memo"
)

// ParsedDoc is one immutable parsed document: the DOM tree plus the
// three extractions the crawler needs, collected in a single pass
// during tree construction. A ParsedDoc may be shared concurrently by
// many frames and many crawl workers — nothing in it may be mutated.
//
// Ownership: the document's nodes live in a pooled arena that Release
// returns to the pools. A ParseDoc caller owns its document and
// releases it; a document from ParseShared belongs to the document
// memo, which releases it once it has left the memo and its last hold
// is released. Holding Tree, or any *Node inside it, past release is a
// use-after-release bug — the extracted value slices (Iframes,
// Scripts, Links) are plain strings and structs and stay valid forever.
type ParsedDoc struct {
	Tree    *Node
	Iframes []Iframe
	Scripts []Script
	Links   []string
	// SrcLen is the byte length of the parsed source, which the tree's
	// strings keep alive.
	SrcLen int
	// SlabBytes is the arena memory the tree pins until release.
	// SrcLen + SlabBytes is the document memo's byte charge.
	SlabBytes int

	arena *arena
}

// ParseDoc parses src into an arena-backed document with the iframe,
// script, and link extractions built during the same walk. The caller
// must Release it when done with Tree.
func ParseDoc(src string) *ParsedDoc {
	a := newArena()
	var ex docExtract
	d := &ParsedDoc{SrcLen: len(src), arena: a}
	d.Tree = parseInto(src, a, &ex)
	d.SlabBytes = a.slabBytes()
	if len(ex.iframes) > 0 {
		d.Iframes = make([]Iframe, 0, len(ex.iframes))
		for _, el := range ex.iframes {
			d.Iframes = append(d.Iframes, iframeOf(el))
		}
	}
	if len(ex.scripts) > 0 {
		d.Scripts = make([]Script, 0, len(ex.scripts))
		for _, el := range ex.scripts {
			d.Scripts = append(d.Scripts, scriptOf(el))
		}
	}
	d.Links = ex.links
	return d
}

// Release returns the document's arena to the pools. Safe on a nil
// document (a skipped parse) and on one already released.
func (d *ParsedDoc) Release() {
	if d == nil || d.arena == nil {
		return
	}
	a := d.arena
	// Poison the tree pointer so a use-after-release trips fast and
	// loudly instead of reading recycled nodes.
	d.arena, d.Tree = nil, nil
	a.release()
}

// NewDocMemo returns a document memo keyed by content digest, holding
// at most maxEntries documents and maxBytes of summed charge (each
// <= 0 = unbounded). Documents are released once they have left the
// memo and their last hold is released.
func NewDocMemo(maxEntries int, maxBytes int64) *memo.Memo[memo.Key, *ParsedDoc] {
	return memo.New[memo.Key](maxEntries, maxBytes, (*ParsedDoc).Release)
}

// ParseShared returns a hold on the parsed document for src from docs,
// parsing it on first sight, so a body fetched for N frames across a
// crawl — the Zipf-popular third-party widget documents — is tokenized
// and built once. The caller releases the hold when done with Tree.
func ParseShared(ctx context.Context, docs *memo.Memo[memo.Key, *ParsedDoc], src string) (memo.Hold[memo.Key, *ParsedDoc], error) {
	return docs.Get(ctx, memo.Sum(src), func() (*ParsedDoc, int64, error) {
		d := ParseDoc(src)
		return d, int64(d.SrcLen + d.SlabBytes), nil
	})
}

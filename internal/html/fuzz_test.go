package html

import (
	"reflect"
	"testing"
)

// fuzzSeeds are tag-soup edge cases worth mutating from: unterminated
// constructs, raw-text traps, entity corners, attribute junk.
var fuzzSeeds = []string{
	"",
	"<",
	"<div><p>unclosed",
	"</stray><div></div>",
	"<div attr=<<>>",
	"<div a='x",
	"<!-- unterminated comment",
	"<!doctype html>",
	"<script>never closed",
	"<script>var a = '</scrip' + 't>';</script>",
	"<ScRiPt>x</sCrIpT><p>after</p>",
	"<title>a < b</title>",
	"<textarea><div>not a div</div></textarea>",
	"<iframe src=\"/a\" allow=\"camera; mic\" sandbox srcdoc=\"&lt;p&gt;x\"></iframe>",
	"<a href=\"/x\">l</a><a href>empty</a>",
	"&amp;&#65;&#x42;&#0;&#xD800;&#x110000;&#;&unknown;",
	"<div/><br><img src=x>",
	"<div a=\"1\" a='2' a=3 a>",
	"\x00\xff<\x80div>",
	"<!---->",
	"<!--x--><div></div>",
}

// FuzzTokenizer: the tokenizer never panics, always makes progress
// (every token consumes at least one byte or is EOF), and terminates.
func FuzzTokenizer(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		z := NewTokenizer(src)
		prev := 0
		for steps := 0; ; steps++ {
			if steps > len(src)+10 {
				t.Fatalf("tokenizer failed to terminate on %q", src)
			}
			tok := z.Next()
			if tok.Type == EOFToken {
				break
			}
			if z.pos <= prev {
				t.Fatalf("tokenizer made no progress at pos %d on %q (token %+v)", z.pos, src, tok)
			}
			prev = z.pos
		}
	})
}

// FuzzParse: Parse and Extract never panic, terminate, keep the tree
// shape sane (text nodes are leaves), and agree with each other — the
// one-pass extraction can never drift from the wrapper walks, whatever
// the input.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree := Parse(src)
		if tree == nil {
			t.Fatal("Parse returned nil")
		}
		tree.Walk(func(n *Node) bool {
			if n.Type == TextNode && len(n.Children) > 0 {
				t.Error("text node with children")
			}
			return true
		})
		d := Extract(src)
		if !reflect.DeepEqual(d.Iframes, Iframes(tree)) {
			t.Errorf("iframes diverge on %q", src)
		}
		if !reflect.DeepEqual(d.Scripts, Scripts(tree)) {
			t.Errorf("scripts diverge on %q", src)
		}
		if !reflect.DeepEqual(d.Links, Links(tree)) {
			t.Errorf("links diverge on %q", src)
		}
	})
}

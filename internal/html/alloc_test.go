package html

import "testing"

// Allocation pins for the hot paths. These are ceilings, not exact
// counts — a small regression margin is built in so innocent compiler
// changes don't flake, while an accidental per-node or per-token heap
// allocation (the regressions this PR removes) blows well past them.
func TestHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pins need a quiet heap")
	}
	src := `<div class="row"><iframe src="/f" allow="camera"></iframe><script src="/s.js"></script><a href="/l">x</a><p>text &amp; more</p></div>`

	// Cold extraction of a ~140-byte document: the tokenizer, its
	// attribute scratch, the open-element stack, the three result
	// slices, the one entity-decoded text token and the one string
	// buffer the Doc owns. Measured at 9; pinned with margin.
	if got := testing.AllocsPerRun(500, func() {
		_ = Extract(src)
	}); got > 20 {
		t.Errorf("cold Extract: %.1f allocs/op, want <= 20", got)
	}

	// Entity decoding must return the input substring unchanged when
	// there is no '&' — zero allocations.
	if got := testing.AllocsPerRun(500, func() {
		_ = DecodeEntities("no references here at all")
	}); got != 0 {
		t.Errorf("DecodeEntities without '&': %.1f allocs/op, want 0", got)
	}

	// The raw-text close-tag scan allocates nothing.
	if got := testing.AllocsPerRun(500, func() {
		_ = indexFold("aaaa</scrip</script>bbb", "</script")
	}); got != 0 {
		t.Errorf("indexFold: %.1f allocs/op, want 0", got)
	}
}

package script

import (
	"fmt"
	"testing"
)

// TestCompileCacheEviction: a bounded cache drops the least-recently-used
// source and compiles it again on the next sight.
func TestCompileCacheEviction(t *testing.T) {
	c := NewBoundedCompileCache(2)
	src := func(i int) string { return fmt.Sprintf("var x%d = %d;", i, i+10) }

	first, err := c.Compile(src(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if _, err := c.Compile(src(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("want 2 entries and 1 eviction, got %+v", s)
	}

	// src(0) was evicted: compiling it again is a miss; src(2) is a hit.
	if _, err := c.Compile(src(2)); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != 1 {
		t.Fatalf("recently-used source not a hit: %+v", got)
	}
	again, err := c.Compile(src(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Misses != 4 {
		t.Fatalf("evicted source should recompile (4 misses), got %+v", got)
	}
	if again == first {
		t.Fatal("evicted source returned the dropped program instead of a recompile")
	}
	in := NewInterp()
	if err := in.RunCompiled(again, "t"); err != nil {
		t.Fatal(err)
	}
	if v, _ := in.Global.Get("x0"); v.Num() != 10 {
		t.Fatalf("recompiled program ran wrong: x0 = %v", v.ToString())
	}
}

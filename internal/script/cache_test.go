package script

import (
	"sync"
	"testing"
)

func TestCompileCache(t *testing.T) {
	cc := NewCompileCache()
	src := `var x = 1 + 2;`
	a, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same source should share one compiled program")
	}
	if _, err := cc.Compile(`var broken = ;`); err == nil {
		t.Fatal("want parse error through compile cache")
	}
	st := cc.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 2 entries", st)
	}
}

// TestCompileCacheHitMiss checks the accounting over valid sources: a
// repeated source is a hit that returns the cached program, and a new
// source is a miss that compiles a program of its own.
func TestCompileCacheHitMiss(t *testing.T) {
	c := NewCompileCache()
	src := "var x = 1 + 2;"
	p1, err := c.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second compile did not return the cached program")
	}
	p3, err := c.Compile("var y = 3;")
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("distinct sources share one compiled program")
	}
	s := c.Stats()
	if s.Misses != 2 || s.Hits != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 2 misses, 1 hit, 2 entries", s)
	}
}

func TestCompileCacheErrorsCached(t *testing.T) {
	c := NewCompileCache()
	src := "var = ;" // syntax error
	_, err1 := c.Compile(src)
	if err1 == nil {
		t.Fatal("expected parse error")
	}
	_, err2 := c.Compile(src)
	if err2 != err1 {
		t.Errorf("error not cached: %v vs %v", err1, err2)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the failure compiled once", s)
	}
}

// TestCompileCacheConcurrent hammers one source from many goroutines;
// under -race this proves the cache and the shared *Compiled are safe,
// and the accounting shows exactly one real compile.
func TestCompileCacheConcurrent(t *testing.T) {
	c := NewCompileCache()
	src := `function f(n) { var total = 0; for (var i = 0; i < n; i++) { total += i; } return total; } var r = f(10);`
	const goroutines = 32

	var wg sync.WaitGroup
	progs := make([]*Compiled, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Compile(src)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
			// Execute the shared program in a private interpreter, the
			// way concurrent crawl workers share one compiled widget script.
			in := NewInterp()
			if err := in.RunCompiled(p, "https://cdn.example/lib.js"); err != nil {
				t.Error(err)
			}
			if v, _ := in.Global.Get("r"); v.Num() != 45 {
				t.Errorf("r = %v, want 45", v.Num())
			}
		}(i)
	}
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if progs[i] != progs[0] {
			t.Fatal("goroutines saw different programs for one source")
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want exactly one compile", s)
	}
	if s.Hits+s.Coalesced != goroutines-1 {
		t.Errorf("hits (%d) + coalesced (%d) != %d", s.Hits, s.Coalesced, goroutines-1)
	}
}

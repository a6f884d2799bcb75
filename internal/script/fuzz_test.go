package script

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"permodyssey/internal/synthweb"
)

// fuzzSteps is the step budget of a fuzzed run: small, so a runaway
// loop ends in milliseconds.
const fuzzSteps = 20000

// addFuzzSeeds seeds a fuzz target with every script corpus the engine
// is tested on: the language corpus, the webapi probe corpus, and the
// synthetic web's host-page and widget scripts.
func addFuzzSeeds(f *testing.F) {
	for _, src := range equivalenceCorpus {
		f.Add(src)
	}
	raw, err := os.ReadFile("../webapi/testdata/probe_corpus.json")
	if err != nil {
		f.Fatal(err)
	}
	var probes []string
	if err := json.Unmarshal(raw, &probes); err != nil {
		f.Fatal(err)
	}
	for _, src := range probes {
		f.Add(src)
	}
	for _, hs := range synthweb.HostScripts {
		f.Add(hs.Body)
	}
	for _, w := range synthweb.Catalog {
		if w.Script != "" {
			f.Add(w.Script)
		}
	}
}

// FuzzParse: the lexer and parser never panic, and a rejected source
// always fails with a *SyntaxError.
func FuzzParse(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("parse failed with %T, want *SyntaxError: %v", err, err)
			}
			return
		}
		if prog == nil {
			t.Fatal("nil program without an error")
		}
	})
}

// FuzzRun: every parsable source compiles, and its run returns with no
// Go panic — within the step budget (exceeding it always surfaces as
// ErrBudget) and under the call-stack cap, with the call stack unwound.
func FuzzRun(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		cp, err := Compile(prog)
		if err != nil {
			t.Fatalf("parsed source does not compile: %v", err)
		}
		in := NewInterp()
		in.MaxSteps = fuzzSteps
		err = in.RunCompiled(cp, "fuzz://run")
		if in.steps > in.MaxSteps && !errors.Is(err, ErrBudget) {
			t.Fatalf("ran %d steps over a budget of %d, returned %v", in.steps, in.MaxSteps, err)
		}
		if len(in.stack) != 0 {
			t.Fatalf("run returned with %d frames on the call stack", len(in.stack))
		}
	})
}

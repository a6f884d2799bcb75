package bundle_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"permodyssey/internal/bundle"
)

// The byte edits FuzzVerify applies, chosen by the fuzzer's op modulo 3.
const (
	opOverwrite = iota
	opInsert
	opTruncate
)

// mutate returns a copy of raw with one edit applied at pos (taken
// modulo the valid positions): b overwrites a byte or is inserted
// before one, or raw is truncated to pos bytes.
func mutate(raw []byte, op uint8, pos uint32, b byte) []byte {
	out := append([]byte(nil), raw...)
	switch op % 3 {
	case opOverwrite:
		if len(out) > 0 {
			out[int(pos%uint32(len(out)))] = b
		}
	case opInsert:
		i := int(pos % uint32(len(out)+1))
		out = append(out[:i], append([]byte{b}, out[i:]...)...)
	default:
		out = out[:int(pos%uint32(len(out)+1))]
	}
	return out
}

// FuzzVerify: one overwritten, inserted or truncated byte in
// bundle.json or in any sealed file makes Open fail or Verify with the
// sealing key fail with ErrVerify, unless the edit left every sealed
// file byte-identical and bundle.json decoding to the sealed manifest.
// Neither ever panics.
func FuzzVerify(f *testing.F) {
	const key = "fuzz-key"
	spec := fixture(f)
	spec.Key = key
	sealed := filepath.Join(f.TempDir(), "b")
	seal(f, sealed, spec)
	b, err := bundle.Open(sealed)
	if err != nil {
		f.Fatal(err)
	}
	want := b.Manifest
	paths := []string{bundle.ManifestName}
	for _, fe := range want.Files {
		paths = append(paths, fe.Path)
	}
	orig := make(map[string][]byte, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(filepath.Join(sealed, filepath.FromSlash(p)))
		if err != nil {
			f.Fatal(err)
		}
		orig[p] = raw
	}

	manifest := orig[bundle.ManifestName]
	at := func(s string) uint32 { return uint32(bytes.Index(manifest, []byte(s)) + len(s)) }
	f.Add(uint8(0), uint8(opOverwrite), at(`"seed": `), byte('8'))
	f.Add(uint8(0), uint8(opOverwrite), at(`"records": `), byte('3'))
	f.Add(uint8(0), uint8(opOverwrite), at(`"format_version": `), byte('1'))
	f.Add(uint8(0), uint8(opInsert), at(`"files":`), byte(' '))
	f.Add(uint8(0), uint8(opTruncate), uint32(len(manifest)-2), byte(0))
	for i := 1; i < len(paths); i++ {
		f.Add(uint8(i), uint8(opOverwrite), uint32(0), byte('x'))
		f.Add(uint8(i), uint8(opTruncate), uint32(1), byte(0))
	}

	f.Fuzz(func(t *testing.T, file, op uint8, pos uint32, b byte) {
		target := paths[int(file)%len(paths)]
		dir := t.TempDir()
		identical := true
		for _, p := range paths {
			raw := orig[p]
			if p == target {
				raw = mutate(raw, op, pos, b)
				identical = p == bundle.ManifestName || bytes.Equal(raw, orig[p])
			}
			path := filepath.Join(dir, filepath.FromSlash(p))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		bd, err := bundle.Open(dir)
		if err != nil {
			return
		}
		defer bd.Close()
		err = bd.Verify(key)
		switch {
		case err != nil && !errors.Is(err, bundle.ErrVerify):
			t.Fatalf("Verify after editing %s = %v, want an error wrapping ErrVerify", target, err)
		case err == nil && !identical:
			t.Fatalf("Verify passed after %s changed", target)
		case err == nil && !reflect.DeepEqual(bd.Manifest, want):
			t.Fatalf("Verify passed a manifest that decodes differently:\n got %+v\nwant %+v", bd.Manifest, want)
		}
	})
}

package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStalePathFailsLint pins the path check: a doc naming a path that
// does not exist fails the lint, and creating the path makes it pass.
func TestStalePathFailsLint(t *testing.T) {
	root := t.TempDir()
	write := func(name, text string) {
		t.Helper()
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "The demo solves `examples/demo/input.cnf`; see `ARCHITECTURE.md`.\n")
	write("ARCHITECTURE.md", "# Architecture\n\n```sh\ngo run ./cmd/gone  # fenced: not checked\n```\n")
	if code := run(root); code != 1 {
		t.Fatalf("missing path: exit %d, want 1", code)
	}
	write("examples/demo/input.cnf", "p cnf 1 1\n1 0\n")
	if code := run(root); code != 0 {
		t.Fatalf("path present: exit %d, want 0", code)
	}
}

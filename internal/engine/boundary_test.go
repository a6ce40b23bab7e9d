package engine

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

const module = "iswitch/"

// imports returns the non-test imports of a package of this module.
func imports(t *testing.T, pkg string) []string {
	t.Helper()
	dir := filepath.Join("..", "..", filepath.FromSlash(strings.TrimPrefix(pkg, module)))
	p, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	return p.Imports
}

// The engine, switch and client alike, is sans-I/O at compile time:
// nothing it imports, directly or through another package of the
// module, is the simulator's kernel or network. And its drivers reach
// the accelerator and the codec through it only: the UDP transport
// importing accel is how a second switch would start, and core or the
// transport importing compress is how a second client would.
func TestImportBoundary(t *testing.T) {
	banned := map[string]bool{module + "internal/sim": true, module + "internal/netsim": true}
	seen := map[string]bool{}
	var walk func(pkg string, via []string)
	walk = func(pkg string, via []string) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		via = append(via, pkg)
		if banned[pkg] {
			t.Errorf("the engine imports %s: %s", pkg, strings.Join(via, " -> "))
			return
		}
		for _, imp := range imports(t, pkg) {
			if strings.HasPrefix(imp, module) {
				walk(imp, via)
			}
		}
	}
	walk(module+"internal/engine", nil)
	if !seen[module+"internal/accel"] {
		t.Error("the walk never reached internal/accel: it is not following imports")
	}
	for _, imp := range imports(t, module+"internal/transport") {
		if imp == module+"internal/accel" {
			t.Error("internal/transport imports internal/accel directly; the engine owns the accelerator")
		}
	}
	for _, pkg := range []string{"internal/core", "internal/transport"} {
		for _, imp := range imports(t, module+pkg) {
			if imp == module+"internal/compress" {
				t.Errorf("%s imports internal/compress directly; the client engine owns the codec", pkg)
			}
		}
	}
}

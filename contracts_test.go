package eant

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// randPkgs are the generator packages, which only internal/sim may
// import; seededOnly are the names besides New* constructors that it may
// select from math/rand: the types sim.RNG is built from.
var (
	randPkgs   = map[string]bool{"math/rand": true, "math/rand/v2": true, "crypto/rand": true}
	seededOnly = map[string]bool{"Rand": true, "Source": true}
)

// wallClock are the time functions that read or wait on the wall clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "Sleep": true,
}

// TestSourceContracts checks the two determinism contracts a replay
// cannot see on a path no test runs, over every non-test Go file of the
// module (bench/, cmd/ and examples/ included):
//
//   - every random draw comes from sim.RNG: no file outside internal/sim
//     imports a generator package, and internal/sim selects only New*
//     constructors and the Rand and Source types from math/rand, and
//     nothing from crypto/rand;
//   - no package under internal/ reads or waits on the wall clock: the
//     sim engine owns time.
//
// Import aliases are followed, and dot imports of these packages fail.
func TestSourceContracts(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checkSourceContracts(t, fset, filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkSourceContracts reports each violation in f, a file of the
// package in module-relative directory dir, at its file and line.
func checkSourceContracts(t *testing.T, fset *token.FileSet, dir string, f *ast.File) {
	inSim := dir == "internal/sim"
	clockFree := strings.HasPrefix(dir, "internal/")
	local := map[string]string{} // file-local package name → import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value) // the parser accepted it as a literal
		if !randPkgs[path] && path != "time" {
			continue
		}
		name := strings.TrimSuffix(path, "/v2")
		name = name[strings.LastIndex(name, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch {
		case name == ".":
			t.Errorf("%s: dot import of %s hides its selectors from this check", fset.Position(imp.Pos()), path)
		case randPkgs[path] && (!inSim || path == "crypto/rand"):
			t.Errorf("%s: import of %s in %s: draw from a sim.RNG forked from the run seed", fset.Position(imp.Pos()), path, dir)
		default:
			local[name] = path
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		path, fn := local[x.Name], sel.Sel.Name
		switch {
		case path == "time" && clockFree && wallClock[fn]:
			t.Errorf("%s: time.%s in %s: use the sim engine's virtual clock", fset.Position(sel.Pos()), fn, dir)
		case randPkgs[path] && !strings.HasPrefix(fn, "New") && !seededOnly[fn]:
			t.Errorf("%s: %s.%s is not seeded construction: draw from a sim.RNG", fset.Position(sel.Pos()), path, fn)
		}
		return true
	})
}

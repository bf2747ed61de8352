package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// rngPkg is the one package allowed to import the raw generators: it
// defines sim.RNG, the seeded, forkable stream every subsystem draws from.
const rngPkg = "eant/internal/sim"

// bannedRand are the import paths that introduce randomness outside the
// simulator's seeded streams. crypto/rand is banned outright: it is
// nondeterministic by construction, so a single draw breaks bit-identical
// replay.
var bannedRand = map[string]string{
	"math/rand":    "use sim.RNG (forked from the run seed) instead",
	"math/rand/v2": "use sim.RNG (forked from the run seed) instead",
	"crypto/rand":  "nondeterministic by construction; the simulator must replay bit-identically",
}

// RngOnly enforces the single-RNG contract: outside internal/sim, no
// package may import math/rand, math/rand/v2 or crypto/rand. All
// randomness flows through sim.RNG so that one master seed determines
// every stream and golden outputs replay bit-for-bit.
//
// Inside internal/sim the imports are allowed, but only for seeded
// construction: every crypto/rand reference is flagged, and so is every
// math/rand or math/rand/v2 reference other than a New* constructor or a
// type or constant name (a global draw such as rand.Float64). Any global
// draw another package could reach has to start in sim, so it is flagged
// where it starts.
var RngOnly = &Analyzer{
	Name: "rngonly",
	Doc:  "forbid math/rand and crypto/rand imports outside internal/sim, and any use inside it but seeded construction; randomness must flow through sim.RNG",
	Run:  runRngOnly,
}

func runRngOnly(pass *Pass) error {
	if pass.Path() == rngPkg {
		checkSeededOnly(pass)
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			why, banned := bannedRand[path]
			if !banned {
				continue
			}
			pass.Reportf(imp.Pos(), "import of %s outside internal/sim: %s", path, why)
		}
	}
	return nil
}

// checkSeededOnly flags the generator-package references in internal/sim
// that are not seeded construction.
func checkSeededOnly(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path := pass.importedPkg(sel.X)
			if _, banned := bannedRand[path]; !banned {
				return true
			}
			if path != "crypto/rand" {
				switch pass.ObjectOf(sel.Sel).(type) {
				case *types.TypeName, *types.Const:
					return true
				}
				if strings.HasPrefix(sel.Sel.Name, "New") {
					return true
				}
			}
			pass.Reportf(sel.Pos(), "%s.%s in internal/sim is not seeded construction: draw from a generator built over an explicit seed", path, sel.Sel.Name)
			return true
		})
	}
}

package analysis

import (
	"go/ast"
	"strings"
)

// wallClockFuncs are the time-package calls that observe or schedule on
// the wall clock. Pure constructors like time.Duration arithmetic and
// formatting are fine — the contract is about *reading* real time.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Sleep":     true,
}

// NoClock enforces the virtual-clock contract: packages under internal/
// must not read the wall clock — sim.Engine owns time. A time.Now snuck
// into a scheduler or experiment would make runs irreproducible in a way
// seeded tests cannot reliably catch. Every internal package is checked,
// the worker pool included; cmd/, examples/ and bench/ are process entry
// points (main packages nothing can import) and read wall time freely.
var NoClock = &Analyzer{
	Name: "noclock",
	Doc:  "forbid wall-clock reads (time.Now, time.Since, timers) in internal/ packages; the sim engine owns time",
	Run:  runNoClock,
}

func runNoClock(pass *Pass) error {
	path := pass.Path()
	if !strings.HasPrefix(path, "eant/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name, ok := pass.calleePkgFunc(call)
			if ok && pkg == "time" && wallClockFuncs[name] {
				pass.Reportf(call.Pos(), "wall-clock call time.%s in simulation package %s: use the sim engine's virtual clock (wall time is allowed only in cmd/, examples/ and bench/)", name, path)
			}
			return true
		})
	}
	return nil
}

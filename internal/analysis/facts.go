package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// This file computes per-function facts by fixpoint over the call graph:
//
//   - Taint ("nondeterministic"): the function transitively reaches a
//     nondeterminism source — a wall-clock read (time.Now and friends),
//     the global math/rand generators, an os/net boundary, or map
//     iteration feeding output. Taint propagates callee→caller: calling a
//     tainted function taints you.
//   - Hot: the function is transitively reachable from the engine inner
//     loop — sim.Engine.RunUntil, the typed-kind dispatch table (every
//     function value handed to Engine.RegisterKind), the
//     driver heartbeat/control-tick handlers, and the E-Ant offer/draw
//     path. Hot propagates caller→callee: everything a hot function calls
//     runs on the hot path.
//
// Both lattices are finite (a bit set, a boolean) and propagation is
// monotone, so the worklist fixpoint terminates even on mutual recursion.
// Worklists are processed in node-ID order and every fact records the
// first witness that established it, so repeated loads of the same
// sources produce identical facts and identical diagnostic chains.
//
// Escape hatch: a "//eant:hot-stop <reason>" annotation on a function
// declaration keeps the function (and everything reachable only through
// it) out of the hot set — for one-time lazy construction or diagnostic
// paths that are reachable from the inner loop but never run in steady
// state.

// Taint is a bit set of nondeterminism sources a function transitively
// reaches.
type Taint uint8

const (
	// TaintClock marks wall-clock reads: time.Now, time.Since, timers.
	TaintClock Taint = 1 << iota
	// TaintRand marks draws from the global math/rand or any crypto/rand
	// generators — randomness outside the seeded sim.RNG streams.
	TaintRand
	// TaintOS marks os-package boundaries (environment, files, process
	// state).
	TaintOS
	// TaintNet marks net-package boundaries.
	TaintNet
	// TaintMapOrder marks map iteration whose body writes output — order
	// observable, hash-seed dependent.
	TaintMapOrder
)

// String renders the taint set as a sorted +-joined list.
func (t Taint) String() string {
	var parts []string
	for _, e := range []struct {
		bit  Taint
		name string
	}{
		{TaintClock, "clock"}, {TaintRand, "rand"}, {TaintOS, "os"},
		{TaintNet, "net"}, {TaintMapOrder, "maporder"},
	} {
		if t&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// taintWitness records how one taint bit got onto one node: either a base
// construct in the node's own body (via == nil) or a call edge to the
// callee that carried it in.
type taintWitness struct {
	pos  token.Pos
	desc string // base construct, e.g. "time.Now()"
	via  *Node  // callee the taint came from (nil for base)
}

// nodeFacts is the per-node fact storage, living on the Node itself.
type nodeFacts struct {
	taint     Taint
	witness   map[Taint]taintWitness // one witness per bit
	hot       bool
	hotVia    *Node  // caller that made it hot (nil for roots)
	hotRoot   string // frontier description for roots
	hotStop   bool   // //eant:hot-stop annotation present
	hotStopNR bool   // annotation present but reason missing
}

// Taint reports the node's propagated taint set.
func (n *Node) Taint() Taint { return n.facts.taint }

// Hot reports whether the node is on the engine-loop hot path.
func (n *Node) Hot() bool { return n.facts.hot }

// HotChain renders why the node is hot: the root frontier entry and up to
// limit intermediate callers, e.g.
// "reachable from typed event kind (eant/internal/mapreduce) via
// (eant/internal/mapreduce.Driver).heartbeatTick → ...".
func (n *Node) HotChain(limit int) string {
	if !n.facts.hot {
		return ""
	}
	var hops []string
	cur := n
	for cur.facts.hotVia != nil && len(hops) < limit {
		cur = cur.facts.hotVia
		hops = append(hops, cur.Name)
	}
	root := cur.facts.hotRoot
	if root == "" {
		root = cur.Name
	}
	if len(hops) == 0 {
		return "hot-path root: " + root
	}
	// hops are callee→caller; present caller→callee.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	return fmt.Sprintf("reachable from %s via %s", root, strings.Join(hops, " → "))
}

// TaintChain renders how the node reaches the given taint bit: the call
// chain down to the base construct, e.g.
// "fixture/dep.Stamp → time.Now()".
func (n *Node) TaintChain(bit Taint, limit int) string {
	if n.facts.taint&bit == 0 {
		return ""
	}
	var hops []string
	cur := n
	for len(hops) < limit {
		w, ok := cur.facts.witness[bit]
		if !ok {
			break
		}
		if w.via == nil {
			hops = append(hops, w.desc)
			break
		}
		cur = w.via
		hops = append(hops, cur.Name)
	}
	return strings.Join(hops, " → ")
}

// wallClockFuncs (noclock.go) names the time-package readers; the base
// taint detector reuses it so the two layers can never disagree on what a
// clock read is.

// randPkgs are the import paths whose package-level state makes any use a
// TaintRand base fact.
var randPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// computeFacts seeds base facts and runs both fixpoints.
func (g *CallGraph) computeFacts() {
	for _, n := range g.Nodes {
		n.facts.witness = map[Taint]taintWitness{}
		g.seedNode(n)
	}
	g.propagateTaint()
	g.markHot()
}

// seedNode records the node's base taints and hot-stop annotation.
func (g *CallGraph) seedNode(n *Node) {
	if fd, ok := n.Syntax.(*ast.FuncDecl); ok {
		reason, ok := n.Pkg.annotationAt(g.fset.Position(fd.Pos()), "hot-stop")
		if ok {
			n.facts.hotStop = true
			n.facts.hotStopNR = reason == ""
		}
	}
	if n.Body == nil {
		return
	}
	info := n.Pkg.Info
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false // literal bodies seed their own nodes
		}
		switch x := nd.(type) {
		case *ast.SelectorExpr:
			// Qualified uses of nondeterminism-source packages: function
			// calls and value reads alike (rand.Int, rand.Reader), but not
			// type or constant references (os.File in a signature observes
			// nothing).
			if id, ok := x.X.(*ast.Ident); ok {
				if pn, ok := info.Uses[id].(*types.PkgName); ok {
					switch info.Uses[x.Sel].(type) {
					case *types.TypeName, *types.Const:
						return true
					}
					path := pn.Imported().Path()
					switch {
					case randPkgs[path]:
						// Constructors over explicit sources (rand.New,
						// rand.NewSource, rand.NewPCG) are how the seeded
						// sim.RNG streams are built — deterministic, not
						// tainted. The global draws and crypto/rand are.
						if path == "crypto/rand" || !strings.HasPrefix(x.Sel.Name, "New") {
							n.addBaseTaint(TaintRand, x.Pos(), path+"."+x.Sel.Name)
						}
					case path == "time" && wallClockFuncs[x.Sel.Name]:
						n.addBaseTaint(TaintClock, x.Pos(), "time."+x.Sel.Name)
					case path == "os" || strings.HasPrefix(path, "os/"):
						n.addBaseTaint(TaintOS, x.Pos(), path+"."+x.Sel.Name)
					case path == "net" || strings.HasPrefix(path, "net/"):
						n.addBaseTaint(TaintNet, x.Pos(), path+"."+x.Sel.Name)
					}
				}
			}
		case *ast.RangeStmt:
			if g.mapRangeWritesOutput(n.Pkg, x) {
				n.addBaseTaint(TaintMapOrder, x.Pos(), "map iteration feeding output")
			}
		}
		return true
	})
}

// mapRangeWritesOutput reports whether r ranges over a map and its body
// writes output (the fmt print family or a Write* method) — the
// order-observable subset maporder flags, minus annotations: the fact is
// about what the code does, the diagnostic about whether it is justified.
func (g *CallGraph) mapRangeWritesOutput(p *Package, r *ast.RangeStmt) bool {
	t := p.Info.TypeOf(r.X)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return false
	}
	writes := false
	ast.Inspect(r.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
					switch sel.Sel.Name {
					case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
						writes = true
					}
					return true
				}
			}
			if strings.HasPrefix(sel.Sel.Name, "Write") {
				if _, isMethod := p.Info.Selections[sel]; isMethod {
					writes = true
				}
			}
		}
		return !writes
	})
	return writes
}

func (n *Node) addBaseTaint(bit Taint, pos token.Pos, desc string) {
	if n.facts.taint&bit != 0 {
		return
	}
	n.facts.taint |= bit
	n.facts.witness[bit] = taintWitness{pos: pos, desc: desc}
}

// propagateTaint runs the callee→caller fixpoint. The worklist is seeded
// and processed in node-ID order; since the join is a monotone bit-or the
// final sets are order-independent, and first-writer-wins witnesses are
// deterministic given the ordered processing.
func (g *CallGraph) propagateTaint() {
	work := make([]*Node, 0, len(g.Nodes))
	queued := make([]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.facts.taint != 0 {
			work = append(work, n)
			queued[n.ID] = true
		}
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		queued[n.ID] = false
		for _, e := range n.In {
			caller := e.Caller
			add := n.facts.taint &^ caller.facts.taint
			if add == 0 {
				continue
			}
			caller.facts.taint |= add
			for bit := Taint(1); bit != 0 && bit <= TaintMapOrder; bit <<= 1 {
				if add&bit != 0 {
					caller.facts.witness[bit] = taintWitness{pos: e.Pos, via: n}
				}
			}
			if !queued[caller.ID] {
				work = append(work, caller)
				queued[caller.ID] = true
			}
		}
	}
}

// annotationAt returns the "//eant:<name> <reason>" annotation attached at
// position (same line or the line above), mirroring Pass.Annotation for
// callers outside an analyzer pass.
func (p *Package) annotationAt(position token.Position, name string) (string, bool) {
	for _, line := range []int{position.Line, position.Line - 1} {
		if a, found := p.annotations[annKey{position.Filename, line, name}]; found {
			return a.Reason, true
		}
	}
	return "", false
}

// DumpFacts renders every node's facts one per line — "name hot=… taint=…"
// — for the determinism property test and the -facts debugging flag.
func (g *CallGraph) DumpFacts() string {
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%s hot=%s taint=%s\n", n.Name, strconv.FormatBool(n.facts.hot), n.facts.taint)
	}
	return b.String()
}

// reportTransitiveTaint is the shared frontier reporter behind the
// interprocedural noclock/rngonly rules. For every function of the pass's
// package it reports each call-graph edge whose target transitively
// carries bit AND lives in a package the intra-package rule does not
// check (checked(path) == false): that edge is where the taint crosses
// into checked territory, so exactly one diagnostic fires per entry
// point. Edges into checked packages are skipped — the base construct is
// flagged directly there. ann names the escape annotation consulted at
// the call site.
func reportTransitiveTaint(pass *Pass, bit Taint, checked func(string) bool, ann, contract string) {
	for _, n := range pass.Mod.Graph.Nodes {
		if n.Pkg != pass.pkg {
			continue
		}
		for _, e := range n.Out {
			callee := e.Callee
			if callee.Taint()&bit == 0 || checked(callee.Pkg.Path) {
				continue
			}
			reason, annotated := pass.Annotation(e.Pos, ann)
			if annotated {
				if reason == "" {
					pass.Reportf(e.Pos, "//eant:%s annotation must carry a reason", ann)
				}
				continue
			}
			pass.Reportf(e.Pos, "call to %s transitively reaches %s (%s); %s, or annotate //eant:%s <reason>",
				callee.Name, callee.TaintChain(bit, 5), bit, contract, ann)
		}
	}
}

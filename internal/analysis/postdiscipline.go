package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Postdiscipline enforces the engine's callback contract: all
// simulation state is driven from a single goroutine, and event
// callbacks (sim.Runner values) fire later — so a Runner must not be
// built from a map iteration (its payload would inherit the random map
// order), a RunAt body must not block (channels, sync primitives), and
// sim packages must not start goroutines at all.
var Postdiscipline = &Analyzer{
	Name:     "postdiscipline",
	Contract: "no goroutines in sim packages; scheduled Runners never come from map-range variables, and RunAt never blocks",
	Doc: `postdiscipline reports, inside the deterministic simulation packages:
(1) go statements — the engine is single-goroutine by design; RequestStop is
the one sanctioned cross-goroutine entry point; (2) Runner values passed to
sim.Engine.PostRun/PostRunAfter/Arm/ArmAfter that are built from the key or
value variable of an enclosing range over a map — the scheduled work (and with
equal deadlines, its relative order) would depend on randomized map order;
(3) RunAt method bodies that perform channel operations or take sync locks — an
event callback that blocks deadlocks the whole virtual clock. Suppress with
//lint:postdiscipline <reason> (alias //lint:goroutine for go statements).`,
	Run: runPostdiscipline,
}

func runPostdiscipline(pass *Pass) {
	if !inDeterministicScope(pass.Path()) {
		return
	}
	info := pass.TypesInfo()
	pass.inspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"goroutine started in a deterministic sim package: all simulation state is single-goroutine; move concurrency to the experiment pool or document with //lint:goroutine <reason>")
		case *ast.FuncDecl:
			if n.Name.Name == "RunAt" && n.Recv != nil && n.Body != nil {
				checkNonBlocking(pass, n.Body)
			}
		case *ast.CallExpr:
			fn := methodCallee(info, n)
			if fn == nil || !isEnginePostFamily(fn) {
				return true
			}
			// Every family member takes its Runner as the last argument.
			checkRunnerArg(pass, fn.Name(), n.Args[len(n.Args)-1], stack)
		}
		return true
	})
}

// mapRangeVars collects the key/value objects of enclosing ranges over
// maps from an inspection stack.
func mapRangeVars(info *types.Info, stack []ast.Node) map[types.Object]*ast.RangeStmt {
	vars := map[types.Object]*ast.RangeStmt{}
	for _, anc := range stack {
		rng, ok := anc.(*ast.RangeStmt)
		if !ok {
			continue
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			continue
		}
		for _, e := range []ast.Expr{rng.Key, rng.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := info.Defs[id]; obj != nil {
					vars[obj] = rng
				}
			}
		}
	}
	return vars
}

// checkRunnerArg inspects the Runner payload of a PostRun/Arm-family
// call: a Runner built from a map-range key or value schedules work
// whose content depends on randomized iteration order.
func checkRunnerArg(pass *Pass, method string, arg ast.Expr, stack []ast.Node) {
	info := pass.TypesInfo()
	loopVars := mapRangeVars(info, stack)
	if len(loopVars) == 0 {
		return
	}
	ast.Inspect(arg, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if _, fromMapRange := loopVars[obj]; fromMapRange {
			pass.Reportf(id.Pos(),
				"Runner passed to Engine.%s is built from %q, the key/value of an enclosing range over a map: the scheduled work depends on randomized iteration order", method, id.Name)
			delete(loopVars, obj) // one report per variable
		}
		return true
	})
}

// checkNonBlocking reports channel operations and sync locking in the
// body of a RunAt method, which the engine calls on the sim goroutine.
func checkNonBlocking(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "event callback sends on a channel: callbacks run on the sim goroutine and must never block")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "event callback receives from a channel: callbacks run on the sim goroutine and must never block")
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "event callback uses select: callbacks run on the sim goroutine and must never block")
		case *ast.CallExpr:
			fn := methodCallee(info, n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
				return true
			}
			if named, _ := namedReceiver(fn); named != nil {
				pass.Reportf(n.Pos(),
					"event callback calls sync.%s.%s: sim state is single-goroutine by contract; locking inside a callback hides a cross-goroutine access", named.Obj().Name(), fn.Name())
			}
		}
		return true
	})
}

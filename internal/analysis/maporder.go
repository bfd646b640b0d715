package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Maporder flags `range` over a map whose body has effects that depend
// on iteration order. Go randomizes map order per run, so any such
// loop that posts simulator events, emits observability events, writes
// encoded output, or folds loop-dependent values into outer state
// non-commutatively breaks byte-identical replay.
//
// The analyzer tries to prove order-independence before reporting.
// Allowed effects:
//   - reads, and any state declared inside the loop body (per-iteration),
//   - writes through the loop variables themselves (per-key state),
//   - keyed writes (m2[k] = v, set[k] = true) whose index depends on
//     the loop key, so each iteration touches a distinct slot,
//   - idempotent writes of loop-independent values (found = true),
//   - exact commutative accumulation: +=, -=, |=, &=, ^=, *=, ++, --
//     on integer types (floating-point accumulation rounds
//     differently per order and is reported),
//   - min/max folds (`if v < best { best = v }`),
//   - the collect-then-sort idiom: appending to a slice that a
//     following statement in the same block passes to sort.* /
//     slices.Sort*.
//
// Everything else — calls with unknown effects, channel operations,
// goroutines, appends without a sort, loop-dependent returns — is
// reported. The mechanically fixable shape (range over a map with an
// orderable key) carries a sorted-keys rewrite applied by
// `nestlint -fix`.
var Maporder = &Analyzer{
	Name:     "maporder",
	Contract: "map iteration feeding sim state, events or encoded output must be sorted or provably order-independent",
	Doc: `maporder reports range-over-map loops whose bodies have order-dependent
effects (posting events, emitting obs events, writing output, non-commutative
accumulation, early returns of loop-dependent values). Iterate sorted keys, or
suppress a provably order-independent loop with //lint:maporder <reason>.`,
	Run: runMaporder,
}

func runMaporder(pass *Pass) {
	if !inReplayScope(pass.Path()) {
		return
	}
	pass.inspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo().TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, rng, stack)
		return true
	})
}

// effect is one order-dependent operation found in a range body.
type effect struct {
	pos  token.Pos
	what string
}

func checkMapRange(pass *Pass, rng *ast.RangeStmt, stack []ast.Node) {
	mc := &mapRangeChecker{
		pass:     pass,
		info:     pass.TypesInfo(),
		rng:      rng,
		loopVars: map[types.Object]bool{},
	}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := mc.info.Defs[id]; obj != nil {
				mc.loopVars[obj] = true
			}
		}
	}
	mc.enclosingBlock(stack)
	ast.Inspect(rng.Body, mc.visit)
	if len(mc.effects) == 0 {
		return
	}
	first := mc.effects[0]
	extra := ""
	if len(mc.effects) > 1 {
		extra = fmt.Sprintf(" (and %d more order-dependent effect(s) in this loop)", len(mc.effects)-1)
	}
	detail := first.what
	if fp := pass.Fset().Position(first.pos); fp.Line != pass.Fset().Position(rng.Pos()).Line {
		detail += fmt.Sprintf(" at line %d", fp.Line)
	}
	fix := sortedKeysFix(pass, rng)
	msg := "map iteration order is random per run but this loop %s%s; iterate sorted keys (or document order-independence with //lint:maporder <reason>)"
	if fix != nil {
		pass.ReportWithFix(rng.Pos(), fix, msg, detail, extra)
	} else {
		pass.Reportf(rng.Pos(), msg, detail, extra)
	}
}

type mapRangeChecker struct {
	pass     *Pass
	info     *types.Info
	rng      *ast.RangeStmt
	loopVars map[types.Object]bool
	// followers are the statements after the range in its enclosing
	// block, for the collect-then-sort exemption.
	followers []ast.Stmt
	effects   []effect
}

func (mc *mapRangeChecker) add(pos token.Pos, format string, args ...any) {
	mc.effects = append(mc.effects, effect{pos, fmt.Sprintf(format, args...)})
}

// enclosingBlock records the statements following the range statement
// in its innermost enclosing statement list.
func (mc *mapRangeChecker) enclosingBlock(stack []ast.Node) {
	for i := len(stack) - 1; i >= 0; i-- {
		var list []ast.Stmt
		switch b := stack[i].(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		default:
			continue
		}
		for j, s := range list {
			if s == ast.Stmt(mc.rng) {
				mc.followers = list[j+1:]
				return
			}
		}
		return
	}
}

func (mc *mapRangeChecker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.GoStmt:
		mc.add(n.Pos(), "starts goroutines in map iteration order")
	case *ast.SendStmt:
		mc.add(n.Pos(), "sends on a channel in map iteration order")
	case *ast.SelectStmt:
		mc.add(n.Pos(), "performs channel operations in map iteration order")
	case *ast.DeferStmt:
		mc.add(n.Pos(), "defers calls in map iteration order")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			mc.add(n.Pos(), "receives from a channel inside the loop")
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if mc.dependsOnLoop(r) {
				mc.add(n.Pos(), "returns a value that depends on which key is visited first")
				break
			}
		}
	case *ast.CallExpr:
		mc.checkCall(n)
	case *ast.AssignStmt:
		mc.checkAssign(n)
	case *ast.IncDecStmt:
		mc.checkIncDec(n)
	}
	return true
}

// pureStdPkgs are packages whose exported functions have no effects
// beyond their arguments and results.
var pureStdPkgs = map[string]bool{
	"sort": true, "slices": true, "maps": true, "strings": true,
	"strconv": true, "math": true, "math/bits": true, "unicode": true,
	"unicode/utf8": true, "cmp": true, "errors": true,
}

var pureFmtFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

// allowedBuiltins have no order-dependent effects themselves (delete
// and copy get locality checks at the call site).
var allowedBuiltins = map[string]bool{
	"len": true, "cap": true, "min": true, "max": true, "make": true,
	"new": true, "panic": true, "real": true, "imag": true, "complex": true,
	"append": true, // order-dependence of append is judged at the assignment
}

func (mc *mapRangeChecker) checkCall(call *ast.CallExpr) {
	info := mc.info
	// Type conversions are value operations.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := info.Uses[fun]
		if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
			switch fun.Name {
			case "delete":
				// Keyed write: distinct slot per loop key; a
				// loop-independent key deletes the same slot every
				// iteration, which is idempotent. Either way ordered.
				return
			case "copy":
				if len(call.Args) == 2 && !mc.localTarget(call.Args[0]) {
					mc.add(call.Pos(), "copies into loop-external memory")
				}
				return
			default:
				if !allowedBuiltins[fun.Name] {
					mc.add(call.Pos(), "calls builtin %s with effects outside the loop", fun.Name)
				}
				return
			}
		}
		if fn, isFn := obj.(*types.Func); isFn {
			mc.checkFuncCall(call, fn)
			return
		}
		// A call through a function-typed variable: unknown effects.
		if obj != nil {
			mc.add(call.Pos(), "calls function value %s with unknown effects", fun.Name)
		}
	case *ast.SelectorExpr:
		if fn, isFn := info.Uses[fun.Sel].(*types.Func); isFn {
			mc.checkFuncCall(call, fn)
			return
		}
		mc.add(call.Pos(), "calls %s with unknown effects", renderExpr(mc.pass.Fset(), fun))
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is walked by the
		// enclosing inspection.
	default:
		mc.add(call.Pos(), "calls a computed function with unknown effects")
	}
}

func (mc *mapRangeChecker) checkFuncCall(call *ast.CallExpr, fn *types.Func) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	if sig.Recv() == nil {
		// Package-level function.
		pkg := fn.Pkg()
		if pkg == nil {
			return // builtins like error.Error handled elsewhere
		}
		if pureStdPkgs[pkg.Path()] {
			return
		}
		if pkg.Path() == "fmt" && pureFmtFuncs[fn.Name()] {
			return
		}
		mc.add(call.Pos(), "calls %s.%s, whose effects may depend on iteration order", pkg.Name(), fn.Name())
		return
	}
	// Method call. Effects confined to per-iteration state are fine.
	recv := receiverExpr(call)
	// The simulator engine and the obs hub are never order-safe sinks,
	// even when reached through a loop variable.
	if isEnginePostFamily(fn) {
		mc.add(call.Pos(), "posts simulator events (sim.Engine.%s) in map iteration order", fn.Name())
		return
	}
	if isMethodOn(fn, "repro/internal/obs", "Hub", "Emit") || isMethodOn(fn, "repro/internal/obs", "Hub", "Count") {
		mc.add(call.Pos(), "emits observability events in map iteration order")
		return
	}
	if recv != nil && (mc.localTarget(recv) || mc.rootedAtLoopVar(recv)) {
		return
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	_, isPtr := sig.Recv().Type().(*types.Pointer)
	if !isIface && !isPtr {
		// Value receiver on loop-external state: cannot mutate it.
		return
	}
	what := "calls"
	if strings.HasPrefix(fn.Name(), "Write") || strings.HasPrefix(fn.Name(), "Print") || fn.Name() == "Encode" {
		what = "writes encoded output via"
	}
	mc.add(call.Pos(), "%s %s on loop-external state", what, renderCallee(mc.pass.Fset(), call, fn))
}

func isEnginePostFamily(fn *types.Func) bool {
	for _, m := range []string{"PostRun", "PostRunAfter", "Arm", "ArmAfter"} {
		if isMethodOn(fn, "repro/internal/sim", "Engine", m) {
			return true
		}
	}
	return false
}

func (mc *mapRangeChecker) checkAssign(as *ast.AssignStmt) {
	if as.Tok == token.DEFINE {
		return // new per-iteration names
	}
	for i, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		mc.checkWrite(as, lhs, rhs, as.Tok)
	}
}

func (mc *mapRangeChecker) checkIncDec(st *ast.IncDecStmt) {
	if mc.localTarget(st.X) || mc.rootedAtLoopVar(st.X) {
		return
	}
	if isIntegerType(mc.info.TypeOf(st.X)) {
		return // exact commutative accumulation
	}
	mc.add(st.Pos(), "increments non-integer loop-external state in map iteration order")
}

func (mc *mapRangeChecker) checkWrite(stmt ast.Stmt, lhs, rhs ast.Expr, tok token.Token) {
	if mc.localTarget(lhs) || mc.rootedAtLoopVar(lhs) {
		return
	}
	lhsName := renderExpr(mc.pass.Fset(), lhs)

	// Keyed writes: each loop key touches its own slot.
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		keyed := mc.dependsOnLoop(ix.Index)
		switch {
		case tok == token.ASSIGN && (keyed || rhs == nil || !mc.dependsOnLoop(rhs)):
			return
		case commutativeTok(tok) && isIntegerType(mc.info.TypeOf(lhs)):
			return
		case tok == token.ASSIGN:
			mc.add(stmt.Pos(), "overwrites %s (fixed slot) with a loop-dependent value: last writer depends on iteration order", lhsName)
			return
		}
	}

	// Append to a loop-external slice.
	if call, ok := appendCall(rhs); ok {
		if !mc.appendDependsOnLoop(call) {
			return // appending identical elements each iteration
		}
		if mc.sortedAfterLoop(lhs) {
			return // collect-then-sort idiom
		}
		mc.add(stmt.Pos(), "appends loop-dependent values to %s without sorting afterwards", lhsName)
		return
	}

	switch {
	case tok == token.ASSIGN:
		if rhs != nil && !mc.dependsOnLoop(rhs) {
			return // idempotent (found = true)
		}
		if mc.isMinMaxFold(stmt, lhs, rhs) {
			return
		}
		mc.add(stmt.Pos(), "assigns a loop-dependent value to %s: the surviving value depends on iteration order", lhsName)
	case commutativeTok(tok):
		if isIntegerType(mc.info.TypeOf(lhs)) {
			return
		}
		mc.add(stmt.Pos(), "accumulates into %s with %s on a non-integer type: floating-point/string folds are order-sensitive", lhsName, tok)
	default:
		mc.add(stmt.Pos(), "updates %s with non-commutative %s in map iteration order", lhsName, tok)
	}
}

// commutativeTok reports whether the compound token folds commutatively
// and associatively on integers.
func commutativeTok(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
		token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		return true
	}
	return false
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isMinMaxFold recognizes `if v < best { best = v }` style folds, which
// commute exactly.
func (mc *mapRangeChecker) isMinMaxFold(stmt ast.Stmt, lhs, rhs ast.Expr) bool {
	ifStmt := mc.enclosingIf(stmt)
	if ifStmt == nil || rhs == nil {
		return false
	}
	cmp, ok := ifStmt.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cmp.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	fset := mc.pass.Fset()
	l, r := renderExpr(fset, cmp.X), renderExpr(fset, cmp.Y)
	ls, rs := renderExpr(fset, lhs), renderExpr(fset, rhs)
	return (l == ls && r == rs) || (l == rs && r == ls)
}

// enclosingIf finds an if statement in the range body whose (possibly
// nested single-statement) body contains stmt.
func (mc *mapRangeChecker) enclosingIf(stmt ast.Stmt) *ast.IfStmt {
	var found *ast.IfStmt
	ast.Inspect(mc.rng.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		for _, s := range ifs.Body.List {
			if s == stmt {
				found = ifs
				return false
			}
		}
		return true
	})
	return found
}

func appendCall(rhs ast.Expr) (*ast.CallExpr, bool) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil, false
	}
	return call, true
}

func (mc *mapRangeChecker) appendDependsOnLoop(call *ast.CallExpr) bool {
	for _, a := range call.Args[1:] {
		if mc.dependsOnLoop(a) {
			return true
		}
	}
	return false
}

// sortedAfterLoop reports whether a statement following the range in
// the same block sorts the slice written by lhs.
func (mc *mapRangeChecker) sortedAfterLoop(lhs ast.Expr) bool {
	root := rootIdent(lhs)
	if root == nil {
		return false
	}
	obj := mc.info.Uses[root]
	if obj == nil {
		obj = mc.info.Defs[root]
	}
	if obj == nil {
		return false
	}
	for _, st := range mc.followers {
		sorted := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := pkgFuncCall(mc.info, sel)
			if !ok {
				return true
			}
			isSort := (pkgPath == "sort") || (pkgPath == "slices" && strings.HasPrefix(name, "Sort"))
			if !isSort {
				return true
			}
			for _, a := range call.Args {
				if id := rootIdent(a); id != nil && mc.info.Uses[id] == obj {
					sorted = true
					return false
				}
			}
			return true
		})
		if sorted {
			return true
		}
	}
	return false
}

// localTarget reports whether expr's root is declared inside the range
// body (per-iteration state).
func (mc *mapRangeChecker) localTarget(expr ast.Expr) bool {
	id := rootIdent(expr)
	if id == nil {
		return false
	}
	obj := mc.info.Uses[id]
	if obj == nil {
		obj = mc.info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= mc.rng.Body.Pos() && obj.Pos() <= mc.rng.Body.End()
}

// rootedAtLoopVar reports whether expr dereferences through the loop
// key/value variable: per-key state, one slot per iteration.
func (mc *mapRangeChecker) rootedAtLoopVar(expr ast.Expr) bool {
	id := rootIdent(expr)
	if id == nil {
		return false
	}
	return mc.loopVars[mc.info.Uses[id]]
}

// dependsOnLoop reports whether expr's value can differ across
// iterations: it references a loop variable, or calls anything not
// known pure.
func (mc *mapRangeChecker) dependsOnLoop(expr ast.Expr) bool {
	dep := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if mc.loopVars[mc.info.Uses[n]] {
				dep = true
				return false
			}
		case *ast.CallExpr:
			if tv, ok := mc.info.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion: depends only on operand
			}
			fn := methodCallee(mc.info, n)
			if fn == nil {
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if _, isB := mc.info.Uses[id].(*types.Builtin); isB {
						return true // len/cap/...: depends only on args
					}
				}
				dep = true
				return false
			}
			if fn.Pkg() != nil && (pureStdPkgs[fn.Pkg().Path()] || (fn.Pkg().Path() == "fmt" && pureFmtFuncs[fn.Name()])) {
				return true
			}
			dep = true
			return false
		}
		return true
	})
	return dep
}

// rootIdent strips selectors, indexes, derefs and parens down to the
// base identifier, or nil when the base is not an identifier.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

func receiverExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

func renderExpr(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}

func renderCallee(fset *token.FileSet, call *ast.CallExpr, fn *types.Func) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return renderExpr(fset, sel)
	}
	return fn.Name()
}

// ---- mechanical fix: sorted-keys rewrite ----------------------------

// sortedKeysFix builds the `-fix` rewrite for a flagged map range:
//
//	keys := make([]K, 0, len(m))
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
//	for _, k := range keys { v := m[k]; ... }
//
// Offered only when the shape is simple enough to rewrite reliably:
// identifier/selector map expression and an integer- or string-kind
// key type (ordered with <).
func sortedKeysFix(pass *Pass, rng *ast.RangeStmt) *Fix {
	info := pass.TypesInfo()
	mt, ok := info.TypeOf(rng.X).Underlying().(*types.Map)
	if !ok {
		return nil
	}
	kb, ok := mt.Key().Underlying().(*types.Basic)
	if !ok || kb.Info()&(types.IsInteger|types.IsString) == 0 {
		return nil
	}
	switch ast.Unparen(rng.X).(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return nil
	}
	if rng.Tok != token.DEFINE && rng.Key != nil {
		return nil // assignment form (for k = range m) — rare, skip
	}
	keyName := "k"
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		keyName = id.Name
	}
	valName := ""
	if id, ok := rng.Value.(*ast.Ident); ok && id.Name != "_" {
		valName = id.Name
	}
	if rng.Key == nil {
		return nil
	}

	fset := pass.Fset()
	file := fset.File(rng.Pos())
	if file == nil {
		return nil
	}
	mapExpr := renderExpr(fset, rng.X)
	keysName := freshName(pass, rng.Pos(), "keys")
	keyType := types.TypeString(mt.Key(), func(p *types.Package) string {
		if p == pass.Pkg.Types {
			return ""
		}
		return p.Name()
	})

	var b strings.Builder
	fmt.Fprintf(&b, "%s := make([]%s, 0, len(%s))\n", keysName, keyType, mapExpr)
	fmt.Fprintf(&b, "for %s := range %s {\n%s = append(%s, %s)\n}\n", keyName, mapExpr, keysName, keysName, keyName)
	fmt.Fprintf(&b, "sort.Slice(%s, func(i, j int) bool { return %s[i] < %s[j] })\n", keysName, keysName, keysName)
	fmt.Fprintf(&b, "for _, %s := range %s {\n", keyName, keysName)
	if valName != "" {
		fmt.Fprintf(&b, "%s := %s[%s]\n", valName, mapExpr, keyName)
	}

	edits := []TextEdit{{
		File:  file.Name(),
		Start: file.Offset(rng.Pos()),
		End:   file.Offset(rng.Body.Lbrace) + 1,
		New:   b.String(),
	}}
	if imp := sortImportEdit(pass, rng.Pos()); imp != nil {
		edits = append(edits, *imp)
	} else if !hasImport(pass, rng.Pos(), "sort") {
		return nil // can't add the import reliably
	}
	return &Fix{
		Message: "iterate sorted keys",
		Edits:   edits,
	}
}

// freshName returns base, or base+N, unused at pos.
func freshName(pass *Pass, pos token.Pos, base string) string {
	scope := pass.Pkg.Types.Scope().Innermost(pos)
	if scope == nil {
		return base
	}
	name := base
	for i := 2; ; i++ {
		if _, obj := scope.LookupParent(name, pos); obj == nil {
			return name
		}
		name = fmt.Sprintf("%s%d", base, i)
	}
}

func enclosingFile(pass *Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files() {
		if f.Pos() <= pos && pos <= f.End() {
			return f
		}
	}
	return nil
}

func hasImport(pass *Pass, pos token.Pos, path string) bool {
	f := enclosingFile(pass, pos)
	if f == nil {
		return false
	}
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == path {
			return true
		}
	}
	return false
}

// sortImportEdit inserts `"sort"` into the file's import block when
// missing and the block is parenthesized (go/format re-sorts it).
func sortImportEdit(pass *Pass, pos token.Pos) *TextEdit {
	f := enclosingFile(pass, pos)
	if f == nil || hasImport(pass, pos, "sort") {
		return nil
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT || !gd.Lparen.IsValid() {
			continue
		}
		file := pass.Fset().File(gd.Lparen)
		return &TextEdit{
			File:  file.Name(),
			Start: file.Offset(gd.Lparen) + 1,
			End:   file.Offset(gd.Lparen) + 1,
			New:   "\n\t\"sort\"",
		}
	}
	return nil
}

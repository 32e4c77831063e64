package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file classifies the body of a range-over-map loop: does anything in
// it leak the (randomized) iteration order into observable state?
//
// The classification is deliberately semantic, not a blanket ban. Iteration
// order escapes only through order-*sensitive* operations:
//
//	keys = append(keys, k)            // order leaks — unless keys is sorted after
//	best, arg = v, k                  // argmin/argmax tie-breaks leak (AssignCBIT bug)
//	total += v                        // commutative on ints: safe
//	sum += v                          // floats are not associative: leaks ULPs
//	seen[k] = true                    // set build keyed by the loop: safe
//	srcCluster[e] = oi                // loop-invariant RHS: converges to same map
//	fmt.Fprintf(w, "%v\n", k)         // output written in iteration order: leaks
//	in[k] = rng.Intn(2)               // each key gets whichever draw is next: leaks
//	return k                          // "first" element of a map is arbitrary
//
// A "gray" finding marks calls into unknown code with loop-dependent
// arguments. Everywhere else that is allowed (detmap ignores it); inside a
// deterministic-kernel package seedpurity reports it, because kernels must
// not run unvetted side effects in map order.

// A mapFinding is one order-sensitivity report within a single loop.
type mapFinding struct {
	pos  token.Pos
	msg  string
	gray bool
}

// safeIntOps are compound assignments that commute over integers, so the
// final value is independent of iteration order (wrap-around included).
var safeIntOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.AND_ASSIGN: true,
	token.OR_ASSIGN:  true,
	token.XOR_ASSIGN: true,
}

// classifyMapRange inspects one range-over-map statement. fnBody is the
// body of the innermost enclosing function, used to find post-loop sort
// barriers for appended slices.
func (p *Pass) classifyMapRange(rng *ast.RangeStmt, fnBody *ast.BlockStmt) []mapFinding {
	var findings []mapFinding
	add := func(pos token.Pos, format string, args ...any) {
		findings = append(findings, mapFinding{pos: pos, msg: fmt.Sprintf(format, args...)})
	}

	// `for k, v = range m` with pre-existing variables leaves the last
	// visited element behind — an arbitrary one, for a map.
	if rng.Tok == token.ASSIGN {
		add(rng.Pos(), "range over map assigns an arbitrary final element to outer variables")
	}

	local := func(obj types.Object) bool {
		return obj != nil && rng.Pos() <= obj.Pos() && obj.Pos() < rng.Body.End()
	}

	// loopDependent reports whether the expression can vary across
	// iterations: it mentions a loop-scoped object, or calls anything whose
	// value we cannot prove stable (only len/cap/min/max and conversions of
	// invariant arguments are trusted).
	var loopDependent func(e ast.Expr) bool
	loopDependent = func(e ast.Expr) bool {
		dep := false
		ast.Inspect(e, func(n ast.Node) bool {
			if dep {
				return false
			}
			switch n := n.(type) {
			case *ast.Ident:
				if local(p.TypesInfo.ObjectOf(n)) {
					dep = true
				}
			case *ast.CallExpr:
				if tv, ok := p.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
					return true // conversion: judged by its operand
				}
				switch callee := typeutilCallee(p.TypesInfo, n).(type) {
				case *types.Builtin:
					switch callee.Name() {
					case "len", "cap", "min", "max":
						return true // pure; judged by arguments
					}
					dep = true
				default:
					dep = true // unknown call: not provably invariant
				}
				return false
			}
			return true
		})
		return dep
	}

	// appended slices awaiting a post-loop sort barrier: ExprString of the
	// target -> position of the first append.
	appends := map[string]token.Pos{}
	var grayed bool

	var funcLitDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			funcLitDepth++
			ast.Inspect(n.Body, walk)
			funcLitDepth--
			return false

		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // declares loop-locals; uses are judged at their sites
			}
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				p.classifyWrite(n, lhs, rhs, local, loopDependent, appends, add)
			}
			return true

		case *ast.IncDecStmt:
			if root := rootIdent(n.X); root != nil && local(p.TypesInfo.ObjectOf(root)) {
				return true
			}
			if !isInteger(p.TypesInfo.TypeOf(n.X)) {
				add(n.Pos(), "%s on non-integer %s accumulates in map iteration order", n.Tok, types.ExprString(n.X))
			}
			return true

		case *ast.SendStmt:
			if loopDependent(n.Value) {
				add(n.Pos(), "sends loop-dependent values on a channel in map iteration order")
			}
			return true

		case *ast.ReturnStmt:
			if funcLitDepth > 0 {
				return true // returns from a nested literal; its effects are judged where they land
			}
			for _, res := range n.Results {
				if loopDependent(res) {
					add(n.Pos(), "returns a value that depends on which map element is visited first")
					break
				}
			}
			return true

		case *ast.CallExpr:
			if msg := p.orderedSink(n, loopDependent); msg != "" {
				add(n.Pos(), "%s", msg)
				return true
			}
			if p.isSeededDraw(n) {
				add(n.Pos(), "%s draws from a generator in map iteration order: which element gets which value depends on the order", calleeName(n))
				return true
			}
			if p.isBuiltin(n, "copy") && len(n.Args) == 2 {
				if root := rootIdent(n.Args[0]); root != nil && !local(p.TypesInfo.ObjectOf(root)) && loopDependent(n.Args[1]) {
					add(n.Pos(), "copies loop-dependent data into %s in map iteration order", types.ExprString(n.Args[0]))
				}
				return true
			}
			if !grayed && p.isUnvettedCall(n, local, loopDependent) {
				findings = append(findings, mapFinding{
					pos:  n.Pos(),
					msg:  fmt.Sprintf("calls %s with loop-dependent arguments in map iteration order", calleeName(n)),
					gray: true,
				})
				grayed = true
			}
			return true
		}
		return true
	}
	ast.Inspect(rng.Body, walk)

	// Resolve append targets: sorted after the loop is the sanctioned
	// collect-then-order idiom; unsorted is the raw bug class.
	for target, pos := range appends {
		if !p.hasSortBarrier(fnBody, rng, target) {
			add(pos, "append to %s in range over map without a later sort barrier (sort.* / slices.Sort*)", target)
		}
	}
	return findings
}

// classifyWrite judges a single non-define assignment inside the loop.
func (p *Pass) classifyWrite(stmt *ast.AssignStmt, lhs, rhs ast.Expr, local func(types.Object) bool,
	loopDependent func(ast.Expr) bool, appends map[string]token.Pos, add func(token.Pos, string, ...any)) {

	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	root := rootIdent(lhs)
	if root != nil && local(p.TypesInfo.ObjectOf(root)) {
		return // writing loop-local state never escapes the iteration
	}
	target := types.ExprString(lhs)

	// Element writes: m[k] = v keyed by the loop visits distinct keys, and a
	// loop-invariant value converges to the same map whatever the order.
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		if loopDependent(idx.Index) || !loopDependent(rhs) {
			return
		}
		add(stmt.Pos(), "write to %s with loop-dependent value but order-fixed key depends on map iteration order", target)
		return
	}

	if stmt.Tok != token.ASSIGN {
		if isInteger(p.TypesInfo.TypeOf(lhs)) && safeIntOps[stmt.Tok] {
			return // commutative integer accumulation
		}
		add(stmt.Pos(), "%s %s accumulates a non-commutative value in map iteration order", target, stmt.Tok)
		return
	}

	// Plain assignment.
	if call, ok := rhs.(*ast.CallExpr); ok {
		if p.isBuiltin(call, "append") && len(call.Args) > 0 && types.ExprString(call.Args[0]) == target {
			// Order-insensitive when every appended value is loop-invariant
			// (only the count matters); otherwise wait for a sort barrier.
			variant := false
			for _, a := range call.Args[1:] {
				if loopDependent(a) {
					variant = true
					break
				}
			}
			if variant {
				if _, seen := appends[target]; !seen {
					appends[target] = stmt.Pos()
				}
			}
			return
		}
		if (p.isBuiltin(call, "min") || p.isBuiltin(call, "max")) && exprStringInArgs(call, target) {
			return // x = min(x, v): associative and commutative
		}
	}
	if !loopDependent(rhs) {
		return // idempotent: every iteration writes the same value
	}
	add(stmt.Pos(), "assignment to %s depends on map iteration order (argmin/argmax tie-breaks and last-writer-wins are nondeterministic)", target)
}

// orderedSink recognizes calls that emit output: anything printed during a
// map iteration is published in iteration order.
func (p *Pass) orderedSink(call *ast.CallExpr, loopDependent func(ast.Expr) bool) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	sink := false
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkg, ok := p.TypesInfo.ObjectOf(id).(*types.PkgName); ok && pkg.Imported().Path() == "fmt" {
			sink = strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")
		}
	}
	if !sink {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			sink = true
		default:
			return ""
		}
	}
	for _, a := range call.Args {
		if loopDependent(a) {
			return fmt.Sprintf("%s writes loop-dependent output in map iteration order", calleeName(call))
		}
	}
	return ""
}

// isUnvettedCall reports whether the call runs unknown code with
// loop-dependent input: receiver or any argument varies per iteration and
// the callee is not a vetted builtin.
func (p *Pass) isUnvettedCall(call *ast.CallExpr, local func(types.Object) bool, loopDependent func(ast.Expr) bool) bool {
	if tv, ok := p.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return false // conversion
	}
	if _, ok := typeutilCallee(p.TypesInfo, call).(*types.Builtin); ok {
		return false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && loopDependent(sel.X) {
		return true
	}
	for _, a := range call.Args {
		if loopDependent(a) {
			return true
		}
	}
	return false
}

// isSeededDraw reports whether the call is a method of a math/rand or
// math/rand/v2 Rand: each call advances the generator's one stream, so
// the values a loop body draws follow the order it runs in.
func (p *Pass) isSeededDraw(call *ast.CallExpr) bool {
	fn, ok := typeutilCallee(p.TypesInfo, call).(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Name() != "Rand" {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "math/rand" || path == "math/rand/v2"
}

// hasSortBarrier looks for a sort.*/slices.Sort* call, a target.Sort()
// method call, or a package-local Sort*/sort* helper over the appended
// slice anywhere after the loop in the enclosing function body.
func (p *Pass) hasSortBarrier(fnBody *ast.BlockStmt, rng *ast.RangeStmt, target string) bool {
	if fnBody == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= rng.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Sort" && types.ExprString(fun.X) == target {
				found = true
				return false
			}
			if id, ok := fun.X.(*ast.Ident); ok {
				if pkg, ok := p.TypesInfo.ObjectOf(id).(*types.PkgName); ok {
					path := pkg.Imported().Path()
					if (path == "sort" || path == "slices") && argsMention(call, target) {
						found = true
						return false
					}
				}
			}
		case *ast.Ident:
			// A package-local sorting helper (lint.Sort, sortDiags, ...):
			// trust the name when the slice is handed to it.
			name := fun.Name
			if (strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "sort")) && argsMention(call, target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func argsMention(call *ast.CallExpr, target string) bool {
	for _, a := range call.Args {
		if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
			a = u.X
		}
		if types.ExprString(a) == target {
			return true
		}
	}
	return false
}

func exprStringInArgs(call *ast.CallExpr, target string) bool {
	for _, a := range call.Args {
		if types.ExprString(a) == target {
			return true
		}
	}
	return false
}

// rootIdent strips selectors, indexes, derefs, and parens down to the base
// identifier of an assignable expression, or nil if there is none.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func (p *Pass) isBuiltin(call *ast.CallExpr, name string) bool {
	b, ok := typeutilCallee(p.TypesInfo, call).(*types.Builtin)
	return ok && b.Name() == name
}

// typeutilCallee resolves the object a call dispatches to (stdlib-only
// stand-in for go/types/typeutil.Callee).
func typeutilCallee(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		return info.ObjectOf(f)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			return sel.Obj()
		}
		return info.ObjectOf(f.Sel)
	}
	return nil
}

// calleeName renders the callee for diagnostics.
func calleeName(call *ast.CallExpr) string {
	return types.ExprString(ast.Unparen(call.Fun))
}

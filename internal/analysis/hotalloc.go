package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Rule hotalloc: the simplex pivot loop, the SSP augmentation loop and
// the relaxation loop of the feasibility check every virtual-library
// probe runs are the repo's hottest code — ROADMAP's solver-speed
// campaign lives or dies on their per-iteration allocation count, and
// the AllocsPerRun gates in internal/flow/alloc_test.go hold the
// measured baseline. This rule is the static half of that gate: it keeps
// allocation sources from creeping back in between benchmark runs.
//
// Mechanics: the functions named in hotFuncs must each contain at
// least one loop annotated
//
//	//relint:hot
//
// (on the line directly above the for/range statement). Inside an
// annotated loop — nested loops included — the rule flags:
//
//   - composite literals (struct/slice/map construction per iteration);
//   - function literals (closure allocation; hoist before the loop);
//   - append calls (growth re-allocation; hoist a reused buffer and
//     reset with [:0]);
//   - fmt.* calls (interface boxing plus formatting state);
//   - concrete-to-interface argument conversions (boxing — the
//     container/heap trap: heap.Push(pq, item) boxes every item).
//
// Anything inside a return statement is exempt (one-shot error exits
// don't run per iteration). An audited site that must stay carries
//
//	//relint:ignore hotalloc -- <reason>
//
// on or above its line, like any other suppressed finding.
var hotFuncs = []string{"SolveSimplexCtx", "SolveSSPCtx", "Feasible"}

const hotMarker = "//relint:hot"

func checkHotAlloc(p *Pass) []Diagnostic {
	if !inScope(p.Path, "hotalloc", "internal/flow") {
		return nil
	}
	required := make(map[string]bool, len(hotFuncs))
	for _, n := range hotFuncs {
		required[n] = true
	}
	var out []Diagnostic
	for _, f := range p.Files {
		marks := hotMarkLines(p, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			hotLoops := annotatedLoops(p, fn.Body, marks)
			if required[fn.Name.Name] && len(hotLoops) == 0 {
				out = append(out, p.diag("hotalloc", fn.Pos(),
					"%s is a declared hot function but contains no %s-annotated loop; annotate its inner loop so allocation hygiene is checked", fn.Name.Name, hotMarker))
			}
			for _, loop := range hotLoops {
				out = append(out, p.checkHotLoop(loop)...)
			}
		}
	}
	return out
}

// hotMarkLines collects the line numbers of //relint:hot comments.
func hotMarkLines(p *Pass, f *ast.File) map[int]bool {
	marks := make(map[int]bool)
	for _, grp := range f.Comments {
		for _, c := range grp.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), hotMarker) {
				_, line, _ := p.position(c.Pos())
				marks[line] = true
			}
		}
	}
	return marks
}

// annotatedLoops returns the outermost loops annotated with a hot
// marker on their own or the preceding line. Loops nested inside an
// annotated loop are covered by their ancestor and not returned
// separately.
func annotatedLoops(p *Pass, body *ast.BlockStmt, marks map[int]bool) []ast.Stmt {
	var loops []ast.Stmt
	inside := func(n ast.Node) bool {
		for _, l := range loops {
			if n.Pos() >= l.Pos() && n.End() <= l.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if inside(n) {
				return true
			}
			_, line, _ := p.position(n.Pos())
			if marks[line] || marks[line-1] {
				loops = append(loops, n.(ast.Stmt))
			}
		}
		return true
	})
	return loops
}

// checkHotLoop flags allocation sources inside one annotated loop.
func (p *Pass) checkHotLoop(loop ast.Stmt) []Diagnostic {
	var out []Diagnostic
	returns := returnRanges(loop)
	flag := func(pos token.Pos, format string, args ...any) {
		out = append(out, p.diag("hotalloc", pos, format, args...))
	}
	ast.Inspect(loop, func(n ast.Node) bool {
		if n == nil || n == loop {
			return true
		}
		if insideRanges(n.Pos(), returns) {
			return true
		}
		switch t := n.(type) {
		case *ast.CompositeLit:
			flag(t.Pos(), "composite literal allocates every iteration of a hot loop; hoist it before the loop and reuse")
		case *ast.FuncLit:
			flag(t.Pos(), "closure allocates every iteration of a hot loop; hoist it before the loop")
			return false // the allocation is the literal itself, not its body
		case *ast.CallExpr:
			if id, ok := t.Fun.(*ast.Ident); ok && id.Name == "append" && len(t.Args) > 0 {
				flag(t.Pos(), "append inside a hot loop can reallocate; preallocate capacity or reuse a hoisted buffer with [:0] (target %s)", describeExpr(t.Args[0]))
				return true
			}
			if sel, ok := t.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" {
					flag(t.Pos(), "fmt.%s inside a hot loop boxes its arguments and allocates formatting state; move it out of the loop", sel.Sel.Name)
					return true
				}
			}
			p.ifaceBoxing(t, flag)
		}
		return true
	})
	return out
}

// ifaceBoxing flags concrete arguments passed to interface parameters
// (type-information permitting; silent when types are unavailable).
func (p *Pass) ifaceBoxing(call *ast.CallExpr, flag func(token.Pos, string, ...any)) {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, ok := p.Info.Types[arg]
		if !ok || atv.Type == nil {
			continue
		}
		if _, argIface := atv.Type.Underlying().(*types.Interface); argIface {
			continue
		}
		if isUntypedNil(atv.Type) {
			continue
		}
		flag(arg.Pos(), "passing a concrete value to an interface parameter of %s boxes it (heap allocation) every iteration; use a concrete-typed variant", calleeName(call))
	}
}

// isUntypedNil reports the untyped nil type (no boxing happens).
func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// returnRanges collects the source ranges of return statements (exempt
// one-shot exits).
func returnRanges(root ast.Node) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(root, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			out = append(out, [2]token.Pos{r.Pos(), r.End()})
		}
		return true
	})
	return out
}

func insideRanges(pos token.Pos, ranges [][2]token.Pos) bool {
	for _, r := range ranges {
		if pos >= r[0] && pos <= r[1] {
			return true
		}
	}
	return false
}

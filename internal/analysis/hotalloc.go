package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
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
//     reset with [:0], or allowlist the audited amortized ones);
//   - fmt.* calls (interface boxing plus formatting state);
//   - concrete-to-interface argument conversions (boxing — the
//     container/heap trap: heap.Push(pq, item) boxes every item).
//
// Anything inside a return statement is exempt (one-shot error exits
// don't run per iteration). Surviving audited sites live in the
// allowlist file (cmd/relint -allow, default
// internal/analysis/hotalloc.allow), keyed "file:func:kind:detail" —
// e.g. "simplex.go:SolveSimplexCtx:append:buf". Unused allowlist
// keys are findings too, so the file can't rot.
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
	used := make(map[string]bool, len(p.Config.HotAllow))
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
				out = append(out, p.checkHotLoop(fn, loop, used)...)
			}
		}
	}
	stale := make([]string, 0, len(p.Config.HotAllow))
	for key := range p.Config.HotAllow {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		out = append(out, Diagnostic{File: filepath.Join(p.Path, "hotalloc.allow"), Line: 1, Col: 1, Rule: "hotalloc",
			Message: fmt.Sprintf("allowlist entry %q matches no finding; remove it (stale audited sites hide future regressions)", key)})
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
func (p *Pass) checkHotLoop(fn *ast.FuncDecl, loop ast.Stmt, used map[string]bool) []Diagnostic {
	var out []Diagnostic
	returns := returnRanges(loop)
	flag := func(pos token.Pos, kind, detail, format string, args ...any) {
		key := p.allowKey(fn, kind, detail)
		if p.Config.HotAllow[key] {
			used[key] = true
			return
		}
		d := p.diag("hotalloc", pos, format, args...)
		d.Message += fmt.Sprintf(" (allowlist key %q)", key)
		out = append(out, d)
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
			flag(t.Pos(), "lit", typeName(t.Type),
				"composite literal allocates every iteration of a hot loop; hoist it before the loop and reuse")
		case *ast.FuncLit:
			flag(t.Pos(), "closure", "func",
				"closure allocates every iteration of a hot loop; hoist it before the loop")
			return false // the allocation is the literal itself, not its body
		case *ast.CallExpr:
			if id, ok := t.Fun.(*ast.Ident); ok && id.Name == "append" && len(t.Args) > 0 {
				flag(t.Pos(), "append", rootName(t.Args[0]),
					"append inside a hot loop can reallocate; preallocate capacity or reuse a hoisted buffer with [:0] (target %s)", describeExpr(t.Args[0]))
				return true
			}
			if sel, ok := t.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" {
					flag(t.Pos(), "call", "fmt."+sel.Sel.Name,
						"fmt.%s inside a hot loop boxes its arguments and allocates formatting state; move it out of the loop", sel.Sel.Name)
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
func (p *Pass) ifaceBoxing(call *ast.CallExpr, flag func(token.Pos, string, string, string, ...any)) {
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
		flag(arg.Pos(), "iface", calleeName(call),
			"passing a concrete value to an interface parameter of %s boxes it (heap allocation) every iteration; use a concrete-typed variant", calleeName(call))
	}
}

// isUntypedNil reports the untyped nil type (no boxing happens).
func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// allowKey renders the allowlist key for a finding site.
func (p *Pass) allowKey(fn *ast.FuncDecl, kind, detail string) string {
	file, _, _ := p.position(fn.Pos())
	return fmt.Sprintf("%s:%s:%s:%s", filepath.Base(file), fn.Name.Name, kind, detail)
}

// rootName extracts the root identifier of an expression for allowlist
// keys.
func rootName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t.Name
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return "expr"
		}
	}
}

// typeName renders a composite literal's type for allowlist keys.
func typeName(e ast.Expr) string {
	if e == nil {
		return "untyped"
	}
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return describeExpr(t)
	case *ast.ArrayType:
		return "[]" + typeName(t.Elt)
	case *ast.MapType:
		return "map"
	}
	return "composite"
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

// LoadHotAllow parses the hotalloc allowlist file: one
// "file:func:kind:detail" key per line, '#' comments and blank lines
// ignored. A missing file yields an empty allowlist (not an error) so
// fixture runs need no file.
func LoadHotAllow(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]bool{}, nil
		}
		return nil, fmt.Errorf("analysis: %w", err)
	}
	defer f.Close()
	allow := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			allow[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	return allow, nil
}

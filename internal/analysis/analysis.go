// Package analysis is the repo's source-code analogue of internal/cert:
// a stdlib-only static-analysis driver (go/ast + go/types) with a
// catalogue of rules that machine-enforce the coding invariants past PRs
// established the hard way. Where internal/lint checks the netlists the
// pipeline consumes and internal/cert checks the results it produces,
// this package checks the Go sources that implement the guarantee chain
// — because Leiserson–Saxe legality, EDL-set correctness and certified
// flow solutions only mean something if the implementation stays
// deterministic and disciplined while the hot paths get rewritten.
//
// The catalogue (see Catalogue) encodes one invariant per rule:
//
//   - maporder: no ordered work inside `for range` over a map — the
//     PR 5 bug class, where randomized iteration over buildLP's
//     mirror/pseudo maps changed the dual network's arc order and hence
//     the simplex pivot path, breaking -j N ≡ -j 1 row identity.
//   - ctxthread: exported entry points thread context.Context to *Ctx
//     APIs and to blocking I/O in the guarantee-chain packages.
//   - sentinel: errors returned from guarantee-chain packages wrap a
//     declared sentinel (or an upstream error) with %w — never a bare
//     fmt.Errorf / errors.New at a return site.
//   - journalfirst: in internal/queue, no in-memory state mutation
//     precedes the corresponding journal append on the same path (the
//     "202 means the job is owed" durability contract).
//   - hotalloc: no composite literals, closures, appends or
//     interface-converting calls inside the annotated pivot/augmentation
//     loops of internal/flow; an audited site carries a reasoned
//     //relint:ignore like any other finding.
//   - obsspan: a started obs span has a deferred End on every path.
//   - barepanic, stderr: the original build/analyzers conventions,
//     migrated (library code returns errors; stderr belongs to cmd/).
//   - guardedby: struct fields annotated `// guarded by mu` are only
//     accessed while the named mutex is held on the same receiver
//     (Lock/Unlock/defer tracked; *Locked helpers exempt).
//   - lockorder: the repo-wide mutex acquisition graph is acyclic, so
//     the canonical lock order recorded in DESIGN.md §5.12 stays the
//     only one.
//   - golifecycle: every `go` statement outside cmd/ is tied to a
//     join — WaitGroup Done, a channel send/close the spawner waits
//     on, or a ctx-bound loop. No fire-and-forget goroutines.
//   - chandisc: channel ownership discipline — only the owner closes,
//     no send after a close in the same body, and goroutine-fed
//     channels whose select reader can return early are buffered.
//   - atomicmix: a field accessed through sync/atomic is never also
//     accessed plainly.
//
// Diagnostics carry file:line:col positions and render in the
// internal/lint format. Findings can be suppressed per line or per
// function with
//
//	//relint:ignore <rule>[,<rule>] -- <reason>
//
// where the reason is mandatory: a suppression without one is itself a
// finding. Placed on (or directly above) the offending line it covers
// that line; placed in a function's doc comment it covers the whole
// function.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// Diagnostic is one finding of one rule at one source position.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the diagnostic in the internal/lint format:
// file:line:col: error: message [rule]. Every analysis finding is an
// error — the catalogue gates CI, so there is no warning tier.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: error: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Rule)
}

// Rule is one registered invariant check.
type Rule struct {
	// ID identifies the rule in diagnostics, -rules filters and
	// suppression comments.
	ID string
	// Doc is a one-line description for usage text and DESIGN.md.
	Doc string
	// Check inspects one package and returns its findings. Suppression
	// filtering happens in the driver, not in rules. Nil for tree-level
	// rules.
	Check func(*Pass) []Diagnostic
	// CheckTree inspects the whole load at once and runs exactly once
	// per Run. Rules whose invariant spans packages (lockorder's
	// acquisition graph crosses engine → obs and queue → obs) use this
	// instead of Check.
	CheckTree func(*Tree) []Diagnostic
}

// Pass is one package as a rule sees it: parsed files, positions, and
// (best-effort) type information.
type Pass struct {
	// Fset resolves token positions for every file of the load.
	Fset *token.FileSet
	// Path is the slash-form directory of the package relative to the
	// analysis root (e.g. "internal/queue"). Rules scope themselves on
	// it; fixture packages under testdata/src/<rule> are always in scope
	// for their rule.
	Path string
	// Files are the package's non-test files, parsed with comments.
	Files []*ast.File
	// Info carries type information. Expressions the checker could not
	// resolve are simply absent, so rules must treat lookups as
	// best-effort.
	Info *types.Info
}

// position converts a token.Pos into the Diagnostic fields.
func (p *Pass) position(pos token.Pos) (string, int, int) {
	pp := p.Fset.Position(pos)
	return pp.Filename, pp.Line, pp.Column
}

// diag builds a Diagnostic for a rule at a position.
func (p *Pass) diag(rule string, pos token.Pos, format string, args ...any) Diagnostic {
	file, line, col := p.position(pos)
	return Diagnostic{File: file, Line: line, Col: col, Rule: rule, Message: fmt.Sprintf(format, args...)}
}

// Catalogue returns the full rule set in documentation order.
func Catalogue() []Rule {
	return []Rule{
		{ID: "maporder", Doc: "no ordered work (appends, writes, solver/LP input) inside `for range` over a map unless keys are sorted first", Check: checkMapOrder},
		{ID: "ctxthread", Doc: "exported functions thread context.Context to *Ctx APIs, and to blocking I/O in the guarantee-chain packages", Check: checkCtxThread},
		{ID: "sentinel", Doc: "errors returned from guarantee-chain packages wrap a declared sentinel or upstream error with %w", Check: checkSentinel},
		{ID: "journalfirst", Doc: "in internal/queue, journal appends precede the in-memory state mutations they record", Check: checkJournalFirst},
		{ID: "hotalloc", Doc: "no composite literals, closures, appends or interface conversions inside //relint:hot solver loops", Check: checkHotAlloc},
		{ID: "obsspan", Doc: "a started obs span has a deferred End on every path", Check: checkObsSpan},
		{ID: "barepanic", Doc: "no bare panic outside tests, Must* constructors and the fault harness", Check: checkBarePanic},
		{ID: "stderr", Doc: "no direct fmt.Fprint*(os.Stderr, ...) outside cmd/ and build/ — library progress goes through obs logging", Check: checkStderr},
		{ID: "guardedby", Doc: "fields annotated `// guarded by mu` are accessed only while the named mutex is held on the same receiver (*Locked helpers exempt)", Check: checkGuardedBy},
		{ID: "lockorder", Doc: "the repo-wide mutex acquisition graph stays acyclic — one canonical lock order, no cycles, no same-class re-acquisition under lock", CheckTree: checkLockOrder},
		{ID: "golifecycle", Doc: "every `go` statement outside cmd/ joins somewhere: WaitGroup Done, channel send/close, or a ctx-bound receive loop", Check: checkGoLifecycle},
		{ID: "chandisc", Doc: "channel discipline: no closing channels you don't own, no send after close, buffered channels under early-returning select readers", Check: checkChanDisc},
		{ID: "atomicmix", Doc: "a variable accessed via sync/atomic is never also read or written plainly", Check: checkAtomicMix},
	}
}

// Select filters the catalogue to the named rules (comma-separated IDs);
// an empty selection returns the full catalogue.
func Select(ids string) ([]Rule, error) {
	all := Catalogue()
	if strings.TrimSpace(ids) == "" {
		return all, nil
	}
	byID := make(map[string]Rule, len(all))
	for _, r := range all {
		byID[r.ID] = r
	}
	var out []Rule
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		r, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown rule %q", id)
		}
		out = append(out, r)
	}
	return out, nil
}

// Run applies the rules to every package of the tree, filters
// suppressed findings, and returns the survivors sorted by position.
// Package-level rules (Check) run per package; tree-level rules
// (CheckTree) run once over the whole load with every package's
// suppressions in effect. Suppression directives missing their
// mandatory reason surface as findings of the pseudo-rule
// "suppression".
func (t *Tree) Run(rules []Rule) []Diagnostic {
	var out []Diagnostic
	var sups []*suppressions
	for _, p := range t.Pkgs {
		sup := collectSuppressions(p)
		sups = append(sups, sup)
		out = append(out, sup.malformed...)
		for _, r := range rules {
			if r.Check == nil {
				continue
			}
			for _, d := range r.Check(p) {
				if sup.covers(d) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	for _, r := range rules {
		if r.CheckTree == nil {
			continue
		}
	tree:
		for _, d := range r.CheckTree(t) {
			for _, sup := range sups {
				if sup.covers(d) {
					continue tree
				}
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// WriteJSON renders diagnostics as a JSON array (never null).
func WriteJSON(w io.Writer, ds []Diagnostic) error {
	if ds == nil {
		ds = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ds)
}

// inScope reports whether a package path is covered by a rule that
// applies to the given package prefixes. Matching is on path-segment
// boundaries anywhere in the path, so scoping survives running relint
// from a subdirectory or with an absolute root. Fixture packages under
// testdata/src/<rule> are always in scope for their own rule, which is
// how the golden tests exercise rules whose real scope is a specific
// internal package.
func inScope(path, rule string, prefixes ...string) bool {
	slashed := "/" + path + "/"
	if strings.Contains(slashed, "/testdata/src/"+rule+"/") {
		return true
	}
	for _, pre := range prefixes {
		if strings.Contains(slashed, "/"+pre+"/") {
			return true
		}
	}
	return false
}

// chainPackages are the guarantee-chain packages: the code between a
// parsed netlist and a certified result. ctxthread's I/O clause and
// sentinel scope themselves to these.
var chainPackages = []string{
	"internal/flow",
	"internal/sta",
	"internal/rgraph",
	"internal/core",
	"internal/engine",
	"internal/queue",
	"internal/vlib",
	"internal/cluster",
}

// funcName renders a FuncDecl name for messages (with receiver type).
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// selectorOn reports whether the call is pkg.Name(...) for a plain
// package-qualified selector (syntactic: the identifier text, which is
// the import name every repo package uses unaliased).
func selectorOn(call *ast.CallExpr, pkg, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

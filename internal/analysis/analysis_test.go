package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture tests: every rule has a golden package under
// testdata/src/<rule>/ whose violations are annotated with trailing
//
//	// want "message substring"
//
// comments. Matching is bidirectional — every want must be produced,
// and every finding must be wanted — so fixtures pin both the hits and
// the deliberate non-hits (exemptions, sanctioned idioms).

var wantRe = regexp.MustCompile(`want "([^"]*)"`)

type wantAnnot struct {
	file   string
	line   int
	substr string
}

func collectWants(t *testing.T, tree *Tree) []wantAnnot {
	t.Helper()
	var out []wantAnnot
	for _, p := range tree.Pkgs {
		for _, f := range p.Files {
			for _, grp := range f.Comments {
				for _, c := range grp.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					file, line, _ := p.position(c.Pos())
					out = append(out, wantAnnot{file: file, line: line, substr: m[1]})
				}
			}
		}
	}
	return out
}

func loadFixture(t *testing.T, name string) *Tree {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	tree, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(tree.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors (rules would degrade to syntactic coverage): %v", dir, tree.TypeErrors)
	}
	return tree
}

func TestRuleFixtures(t *testing.T) {
	for _, rule := range Catalogue() {
		rule := rule
		t.Run(rule.ID, func(t *testing.T) {
			t.Parallel()
			tree := loadFixture(t, rule.ID)
			diags := tree.Run([]Rule{rule})
			wants := collectWants(t, tree)
			if len(wants) == 0 {
				t.Fatalf("fixture for %s has no want annotations; every rule must fire on its fixture", rule.ID)
			}
			matches := func(d Diagnostic, w wantAnnot) bool {
				return d.File == w.file && d.Line == w.line && strings.Contains(d.Message, w.substr)
			}
			for _, w := range wants {
				found := false
				for _, d := range diags {
					if matches(d, w) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s:%d: rule %s produced no finding containing %q; findings: %v",
						w.file, w.line, rule.ID, w.substr, diags)
				}
			}
			for _, d := range diags {
				found := false
				for _, w := range wants {
					if matches(d, w) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected finding: %s", d)
				}
			}
		})
	}
}

// TestPR5BugClassCaught is the acceptance check from the issue:
// re-introducing the PR 5 bug (LP bound insertion ordered by map
// iteration, `for _, m := range g.mirrorOf { lp.Bound(m, -1, 0) }`)
// must be flagged by maporder. The fixture replays the snippet
// verbatim.
func TestPR5BugClassCaught(t *testing.T) {
	tree := loadFixture(t, "maporder")
	rules, err := Select("maporder")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tree.Run(rules) {
		if strings.Contains(d.Message, "PR 5: buildLP bound insertion") {
			return
		}
	}
	t.Fatal("maporder did not flag the PR 5 bound-insertion pattern")
}

func TestSuppressions(t *testing.T) {
	tree := loadFixture(t, "suppress")
	rules, err := Select("barepanic")
	if err != nil {
		t.Fatal(err)
	}
	diags := tree.Run(rules)
	var supp, bare int
	for _, d := range diags {
		switch d.Rule {
		case "suppression":
			supp++
			if !strings.Contains(d.Message, "without a reason") {
				t.Errorf("unexpected suppression finding: %s", d)
			}
		case "barepanic":
			bare++
			if !strings.Contains(d.Message, "Loud") {
				t.Errorf("barepanic should only survive in Loud: %s", d)
			}
		default:
			t.Errorf("unexpected rule in suppression fixture: %s", d)
		}
	}
	if supp != 1 || bare != 1 {
		t.Errorf("got %d suppression + %d barepanic findings, want 1 + 1: %v", supp, bare, diags)
	}
}

// TestSuppressionInterplay pins the scoping of suppression directives
// across rules: in the mixed fixture, one line carries both a
// guardedby violation and a lockorder cycle edge, and the directive
// above it names only guardedby. The guardedby finding must vanish,
// the lockorder finding on the very same line must survive.
func TestSuppressionInterplay(t *testing.T) {
	tree := loadFixture(t, "mixed")
	rules, err := Select("guardedby,lockorder")
	if err != nil {
		t.Fatal(err)
	}
	// Locate the directive so the assertion is anchored to its line,
	// not to a hard-coded line number.
	directiveLine := 0
	var file string
	for _, p := range tree.Pkgs {
		for _, f := range p.Files {
			for _, grp := range f.Comments {
				for _, c := range grp.List {
					if strings.HasPrefix(c.Text, "//relint:ignore guardedby") &&
						strings.Contains(c.Text, "must not silence") {
						file, directiveLine, _ = p.position(c.Pos())
					}
				}
			}
		}
	}
	if directiveLine == 0 {
		t.Fatal("mixed fixture lost its //relint:ignore guardedby directive")
	}
	targetLine := directiveLine + 1
	var lockorderOnTarget bool
	for _, d := range tree.Run(rules) {
		switch d.Rule {
		case "guardedby":
			t.Errorf("guardedby finding survived its suppression: %s", d)
		case "lockorder":
			if d.File == file && d.Line == targetLine {
				lockorderOnTarget = true
			}
		default:
			t.Errorf("unexpected finding in mixed fixture: %s", d)
		}
	}
	if !lockorderOnTarget {
		t.Errorf("the guardedby suppression silenced the lockorder finding on %s:%d too", file, targetLine)
	}
}

// TestRepoClean is the make analyze gate as a test: the full catalogue
// over the whole repo must be finding-free, and the seed tree must
// type-check cleanly so no rule silently degrades.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide source type-check is slow")
	}
	tree, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range tree.TypeErrors {
		t.Errorf("type error: %v", terr)
	}
	for _, d := range tree.Run(Catalogue()) {
		t.Errorf("finding on seed tree: %s", d)
	}
}

func TestSelect(t *testing.T) {
	rules, err := Select("maporder, hotalloc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].ID != "maporder" || rules[1].ID != "hotalloc" {
		t.Errorf("Select returned %v", rules)
	}
	if _, err := Select("nope"); err == nil {
		t.Error("Select accepted an unknown rule")
	}
	all, err := Select(" ")
	if err != nil || len(all) != len(Catalogue()) {
		t.Errorf("empty selection should return the full catalogue, got %d rules (err %v)", len(all), err)
	}
}

func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 3, Col: 7, Rule: "maporder", Message: "boom"}
	if got, want := d.String(), "a/b.go:3:7: error: boom [maporder]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestWriteJSONNeverNull(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(sb.String()); got != "[]" {
		t.Errorf("WriteJSON(nil) = %q, want []", got)
	}
}

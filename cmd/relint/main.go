// Command relint runs the internal/analysis rule catalogue over the
// repo's Go sources: the determinism and convention invariants that
// past PRs established the hard way (map-iteration determinism from
// PR 5, journal-first durability, sentinel error discipline, hot-loop
// allocation hygiene, span/context plumbing) plus the concurrency
// suite from PR 8 (guarded-by fields, lock ordering, goroutine
// lifecycle, channel ownership, atomic/plain mixing). It is the
// source-code member of the repo's checker family — internal/lint
// gates the netlists the pipeline consumes, internal/cert gates the
// results it produces, relint gates the implementation in between.
//
// Usage:
//
//	relint [flags] [root ...]
//
// Roots default to "."; the go tool spelling "./..." is accepted and
// equivalent. Flags:
//
//	-rules r1,r2  run only the named rules (default: full catalogue)
//	-json         emit findings as a JSON array instead of text
//	-list         print the rule catalogue and exit
//
// Findings print one per line in the internal/lint diagnostic format
// (file:line:col: error: message [rule]). Suppress a finding with
//
//	//relint:ignore <rule> -- <reason>
//
// on or above the offending line, or in the function's doc comment to
// cover the whole function. Exit codes: 0 clean, 1 findings, 2
// usage/load errors — the same contract as the build/analyzers tool
// this command replaces. On failure the summary breaks the total down
// per rule, so a CI log shows at a glance which invariant regressed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"relatch/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("relint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rulesFlag = fs.String("rules", "", "comma-separated rule IDs to run (default: all)")
		jsonFlag  = fs.Bool("json", false, "emit findings as JSON")
		listFlag  = fs.Bool("list", false, "print the rule catalogue and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: relint [flags] [root ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *listFlag {
		for _, r := range analysis.Catalogue() {
			fmt.Fprintf(stdout, "%-12s %s\n", r.ID, r.Doc)
		}
		return 0
	}
	rules, err := analysis.Select(*rulesFlag)
	if err != nil {
		fmt.Fprintf(stderr, "relint: %v\n", err)
		return 2
	}
	roots := fs.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var findings []analysis.Diagnostic
	for _, root := range roots {
		tree, err := analysis.Load(root)
		if err != nil {
			fmt.Fprintf(stderr, "relint: %v\n", err)
			return 2
		}
		// Type errors degrade rules to syntactic coverage; surface them
		// without failing, so a stale importer cache can't block CI on a
		// false positive.
		for _, terr := range tree.TypeErrors {
			fmt.Fprintf(stderr, "relint: type info incomplete: %v\n", terr)
		}
		findings = append(findings, tree.Run(rules)...)
	}

	if *jsonFlag {
		if err := analysis.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "relint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range findings {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "relint: %d finding(s)%s\n", len(findings), perRuleSummary(findings))
		return 1
	}
	return 0
}

// perRuleSummary renders " (rule: n, rule: n, ...)" sorted by rule ID,
// so a failing CI run shows which invariants regressed without
// scrolling the finding list.
func perRuleSummary(findings []analysis.Diagnostic) string {
	counts := map[string]int{}
	for _, d := range findings {
		counts[d.Rule]++
	}
	ids := make([]string, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s := " ("
	for i, id := range ids {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s: %d", id, counts[id])
	}
	return s + ")"
}

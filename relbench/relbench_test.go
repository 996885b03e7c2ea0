package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// rarBin is the rar binary the serve workload launches, built once for
// the package's tests.
var rarBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "relbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rarBin = filepath.Join(dir, "rar")
	build := exec.Command("go", "build", "-o", rarBin, "relatch/cmd/rar")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building rar:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var workloads = []string{"grar-sweep", "vl-relax", "serve-restart"}

// measured lists, per workload, the per-layer metrics a traced tiny run
// must report as non-zero. A program span, counter or /metrics series
// that is renamed or dropped would otherwise read 0 and still print.
// Left out: the layers a workload bypasses, and flow.fallbacks, whose
// healthy count is 0.
var measured = map[string][]string{
	"grar-sweep": {
		"bench.build_ms", "engine.key_ms", "engine.do_overhead_ms",
		"lint.run_ms", "sta.analyze_ms", "core.evaluate_ms", "cert.run_ms",
		"rgraph.build_ms", "flow.difflp_ms", "flow.simplex_ms", "flow.certify_ms",
		"placement.apply_ms", "core.unattributed_ms", "obs.traced_overhead_pct",
		"flow.pivots", "flow.degenerate_pivots",
	},
	"vl-relax": {
		"bench.build_ms", "engine.key_ms", "engine.do_overhead_ms", "cert.run_ms",
		"flow.difflp_ms", "flow.simplex_ms", "flow.certify_ms", "placement.apply_ms",
		"vlib.solve_ms", "vlib.unattributed_ms", "obs.traced_overhead_pct",
		"flow.pivots", "flow.degenerate_pivots", "vlib.attempts", "vlib.relaxed",
	},
	"serve-restart": {
		"bench.build_ms", "engine.key_ms",
		"flow.pivots", "flow.degenerate_pivots", "vlib.attempts", "vlib.relaxed",
		"serve.latency_p50_ms", "serve.latency_p90_ms", "serve.read_p50_ms",
		"serve.submits", "serve.reads",
		"http.submit_ms", "http.events_wait_ms", "http.result_ms",
		"engine.queue_wait_ms", "engine.solve_ms", "engine.certify_ms", "engine.total_ms",
		"queue.lease_hold_ms", "serve.outside_engine_ms",
		"engine.cache_hit_ratio", "engine.cache_disk_hits", "engine.cache_ms",
		"queue.recover_s", "queue.dir_mb", "cache.dir_mb", "obs.spans_retained",
		"loadgen.late_ms_max", "loadgen.max_inflight",
	},
}

// tinySeconds is the time budget of a tiny run. A traced serve run
// needs 10 s (100 submits, 40 reads) before every percentile has 10
// samples beyond it.
func tinySeconds(workload string, trace int) int {
	if workload == "serve-restart" && trace == 1 {
		return 10
	}
	return 1
}

// checkoutRoot lays out a checkout root as run.sh leaves it: the rar
// binary in .bench_build and the given reference table in relbench.
func checkoutRoot(t *testing.T, table []byte) string {
	t.Helper()
	root := t.TempDir()
	for _, dir := range []string{".bench_build", "relbench"} {
		if err := os.Mkdir(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Symlink(rarBin, filepath.Join(root, ".bench_build", "rar")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "relbench", "reference.json"), table, 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// runTiny runs one tiny-mode invocation against the given reference
// table and returns its exit code and decoded result line (zero when
// none printed).
func runTiny(t *testing.T, workload string, seed int64, trace int, table []byte) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{
		"--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(tinySeconds(workload, trace)),
		"--trace", fmt.Sprint(trace), "--tiny", "--root", checkoutRoot(t, table),
	}
	code := run(context.Background(), args, &stdout, &stderr)
	var res resultLine
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if last := lines[len(lines)-1]; last != "" {
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatalf("%s: last stdout line is not a result: %v\n%s", workload, err, last)
		}
	}
	return code, res, stderr.String()
}

// referenceTable reads the committed reference table.
func referenceTable(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// contract reads the metric catalogue of BENCHMARK.json.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func units(defs []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.name] = d.unit
	}
	return out
}

func TestCatalogueMatchesContract(t *testing.T) {
	e2e, layers := contract(t)
	if got := units(endToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", got, e2e)
	}
	if got := units(perLayer); !reflect.DeepEqual(got, layers) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json has %v", got, layers)
	}
}

// TestTinyWorkloadsPrintEveryMetric runs each workload small, untraced
// and traced, under two seeds: every run must be correct and print
// exactly the contract's metrics with their units, and a traced run
// must measure every per-layer metric that applies to its workload.
func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	e2e, layers := contract(t)
	table := referenceTable(t)
	for _, w := range workloads {
		for _, name := range measured[w] {
			if _, ok := layers[name]; !ok {
				t.Fatalf("%s: %s is not a per-layer metric of BENCHMARK.json", w, name)
			}
		}
		for _, trace := range []int{0, 1} {
			want := e2e
			if trace == 1 {
				want = layers
			}
			for _, seed := range []int64{1, 2} {
				code, res, log := runTiny(t, w, seed, trace, table)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%s seed %d trace %d: exit %d, result %+v\n%s", w, seed, trace, code, res, log)
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d trace %d: metrics %v, want %v", w, seed, trace, got, want)
				}
				if trace == 0 {
					for _, d := range endToEnd {
						if v := res.Metrics[d.name].Value; v <= 0 {
							t.Errorf("%s seed %d: %s = %v, want > 0", w, seed, d.name, v)
						}
					}
					if res.Metrics["success_ratio"].Value != 1 {
						t.Errorf("%s seed %d: success_ratio %v", w, seed, res.Metrics["success_ratio"].Value)
					}
					continue
				}
				for _, name := range measured[w] {
					if res.Metrics[name].Value == 0 {
						t.Errorf("%s seed %d: traced run reads %s = 0; its span, counter or series was not found\n%s", w, seed, name, log)
					}
				}
			}
		}
	}
}

// TestTamperedReferenceFails alters one reference row each workload
// draws: the run must report a failed operation and exit non-zero.
func TestTamperedReferenceFails(t *testing.T) {
	const seed = 3
	_, submits, _, err := servePlan(rand.New(rand.NewSource(seed)), 1)
	if err != nil {
		t.Fatal(err)
	}
	var cold spec
	for _, op := range submits {
		if op.kind == "cold" {
			cold = op.spec
			break
		}
	}
	if cold.Bench == "" {
		t.Fatal("serve plan has no cold submit")
	}
	for _, tc := range []struct {
		workload string
		row      spec
	}{
		{"grar-sweep", spec{"s1238", "grar", 2}},
		{"vl-relax", spec{"s1488", "nvl", 1}},
		{"serve-restart", cold},
	} {
		code, res, log := runTiny(t, tc.workload, seed, 0, tamperedReference(t, tc.row))
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with %s tampered: exit %d, result %+v\n%s", tc.workload, tc.row, code, res, log)
		}
	}
}

// tamperedReference returns the reference table with one row's slave
// count off by one.
func tamperedReference(t *testing.T, s spec) []byte {
	t.Helper()
	var doc struct {
		Rows []row `json:"rows"`
	}
	if err := json.Unmarshal(referenceTable(t), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range doc.Rows {
		if doc.Rows[i].spec == s {
			doc.Rows[i].Slaves++
			found = true
		}
	}
	if !found {
		t.Fatalf("reference has no row %s", s)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSeedsChangeOperationOrder checks that two seeds draw different
// operation sequences from the same spec sets.
func TestSeedsChangeOperationOrder(t *testing.T) {
	a, b := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	if reflect.DeepEqual(grarSweepOrder(grarSweepSpecs(false), a), grarSweepOrder(grarSweepSpecs(false), b)) {
		t.Error("grar-sweep order does not depend on the seed")
	}
	if reflect.DeepEqual(shuffled(vlRelaxSpecs(false), a), shuffled(vlRelaxSpecs(false), b)) {
		t.Error("vl-relax order does not depend on the seed")
	}
	pa, sa, ra, err := servePlan(a, 30)
	if err != nil {
		t.Fatal(err)
	}
	pb, sb, rb, err := servePlan(b, 30)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(pa, pb) || reflect.DeepEqual(sa, sb) || reflect.DeepEqual(ra, rb) {
		t.Error("serve plan does not depend on the seed")
	}
	if !reflect.DeepEqual(sortedSpecs(pa), sortedSpecs(pb)) {
		t.Error("the pre-warm set depends on the seed; only its order should")
	}
	seen := map[spec]bool{}
	for _, s := range pa {
		seen[s] = true
	}
	for _, op := range sa {
		if op.kind == "cold" {
			if seen[op.spec] {
				t.Fatalf("cold key %s repeats or was pre-warmed", op.spec)
			}
			seen[op.spec] = true
		}
	}
	// The grid must hold an 80-second run's cold keys.
	if _, _, _, err := servePlan(rand.New(rand.NewSource(9)), 80); err != nil {
		t.Error(err)
	}
}

func sortedSpecs(specs []spec) []spec {
	out := append([]spec(nil), specs...)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func TestPercentileNeedsTail(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50.5}, {0.9, 90.1}} {
		if v, ok := percentile(s, tc.q); !ok || math.Abs(v-tc.want) > 1e-9 {
			t.Errorf("p%v of 1..100 = %v, %v; want %v", tc.q*100, v, ok, tc.want)
		}
	}
	if _, ok := percentile(s[:90], 0.9); ok {
		t.Error("p90 of 90 samples has 9 beyond it and must be omitted")
	}
}

// Command relbench is the repository benchmark. One invocation runs one
// workload for a fixed time budget, checks every output against the
// committed reference table, and prints one JSON result line:
//
//	relbench --workload grar-sweep|vl-relax|serve-restart --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs with tracing on and the result
// carries the per-layer metrics, derived from the span tree the program
// already emits (batch workloads) or from the server's /metrics deltas
// and client-side spans (serve-restart). The trace itself is written
// to .bench_build/traces/ under the checkout root.
//
// The batch workloads drive the engine in-process through
// engine.BuildJob → engine.New → Engine.Do; serve-restart launches the
// rar binary built from the same tree and talks to it over HTTP only.
// run.sh builds both and is the entry point; README.md records the
// workloads and metrics.
//
// Exit status: 0 on a correct run, 1 when any operation failed or an
// accounting check did not hold (the result line still prints), 2 on
// usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"relatch/internal/obs"
)

// metricDef names one reported metric and its unit. The lists below
// are the benchmark's contract and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run, whatever the workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
	{"pass_s", "s"},
	{"job_geomean_ms", "ms"},
}

// perLayer is printed by every traced run. A metric a workload does not
// exercise reads 0 there (README.md lists which apply where).
var perLayer = []metricDef{
	{"bench.build_ms", "ms"},
	{"engine.key_ms", "ms"},
	{"engine.do_overhead_ms", "ms"},
	{"lint.run_ms", "ms"},
	{"sta.analyze_ms", "ms"},
	{"core.evaluate_ms", "ms"},
	{"cert.run_ms", "ms"},
	{"rgraph.build_ms", "ms"},
	{"flow.difflp_ms", "ms"},
	{"flow.simplex_ms", "ms"},
	{"flow.certify_ms", "ms"},
	{"placement.apply_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"vlib.solve_ms", "ms"},
	{"vlib.unattributed_ms", "ms"},
	{"obs.traced_overhead_pct", "%"},
	{"flow.pivots", "count"},
	{"flow.degenerate_pivots", "count"},
	{"flow.fallbacks", "count"},
	{"vlib.attempts", "count"},
	{"vlib.relaxed", "count"},
	{"serve.latency_p50_ms", "ms"},
	{"serve.latency_p90_ms", "ms"},
	{"serve.read_p50_ms", "ms"},
	{"serve.submits", "count"},
	{"serve.reads", "count"},
	{"http.submit_ms", "ms"},
	{"http.events_wait_ms", "ms"},
	{"http.result_ms", "ms"},
	{"engine.queue_wait_ms", "ms"},
	{"engine.solve_ms", "ms"},
	{"engine.certify_ms", "ms"},
	{"engine.total_ms", "ms"},
	{"queue.lease_hold_ms", "ms"},
	{"serve.outside_engine_ms", "ms"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.cache_disk_hits", "count"},
	{"engine.cache_ms", "ms"},
	{"queue.recover_s", "s"},
	{"queue.dir_mb", "MB"},
	{"cache.dir_mb", "MB"},
	{"obs.spans_retained", "count"},
	{"loadgen.late_ms_max", "ms"},
	{"loadgen.max_inflight", "count"},
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root; outputs go under root/.bench_build
	tiny     bool   // self-test sizes: small circuits in the batch workloads
}

func (o options) buildDir() string { return filepath.Join(o.root, ".bench_build") }

// rarPath is the rar binary run.sh builds for serve-restart.
func (o options) rarPath() string { return filepath.Join(o.buildDir(), "rar") }

// report collects one run's metrics and operation accounting.
type report struct {
	values       map[string]float64
	attempted    int
	failed       int
	failures     []string
	inconsistent []string
	notes        []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// attempt counts one operation; a non-nil err makes it a failure.
func (r *report) attempt(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

// brokenInvariant records a broken accounting invariant: the run's layer
// figures cannot be trusted, so the run is not correct.
func (r *report) brokenInvariant(err error) { r.inconsistent = append(r.inconsistent, err.Error()) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the report as the final JSON line: exactly the
// catalogue's metrics for the mode, success_ratio derived here.
func (r *report) result(trace bool) resultLine {
	if r.attempted > 0 {
		r.values["success_ratio"] = float64(r.attempted-r.failed) / float64(r.attempted)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultLine{
		Correct:   r.attempted > 0 && r.failed == 0 && len(r.inconsistent) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("relbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: grar-sweep, vl-relax or serve-restart")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the workload's input order and operation mix")
	fs.IntVar(&o.seconds, "seconds", 40, "time budget of the measured phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root; outputs go under ROOT/.bench_build")
	fs.BoolVar(&o.tiny, "tiny", false, "self-test sizes: small circuits in the batch workloads")
	genRef := fs.String("gen-reference", "", "solve and cross-check every spec, write the reference table to this file, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *genRef != "" {
		err := generateReference(ctx, *genRef, filepath.Join(o.root, "BENCH_pipeline.json"), runtime.GOMAXPROCS(0), stderr)
		if err != nil {
			fmt.Fprintln(stderr, "relbench:", err)
			return 1
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 || o.seconds < 1 {
		fmt.Fprintln(stderr, "relbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	o.trace = traceFlag == 1
	ref, err := loadReference(filepath.Join(o.root, "relbench", "reference.json"))
	if err != nil {
		fmt.Fprintln(stderr, "relbench:", err)
		return 1
	}
	rng := rand.New(rand.NewSource(o.seed))
	var rep *report
	switch o.workload {
	case "grar-sweep":
		rep, err = runBatch(ctx, o, ref, grarSweepOrder(grarSweepSpecs(o.tiny), rng))
	case "vl-relax":
		rep, err = runBatch(ctx, o, ref, shuffled(vlRelaxSpecs(o.tiny), rng))
	case "serve-restart":
		rep, err = runServe(ctx, o, ref, rng)
	default:
		fmt.Fprintf(stderr, "relbench: unknown --workload %q (grar-sweep, vl-relax, serve-restart)\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "relbench:", err)
		return 1
	}
	res := rep.result(o.trace)
	printSummary(stderr, o, rep, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "relbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// printSummary writes the human-readable side of a run to stderr: host,
// notes (sample counts, flags), failures and every metric.
func printSummary(w io.Writer, o options, rep *report, res resultLine) {
	fmt.Fprintf(w, "relbench: %s seed=%d seconds=%d trace=%t host: nproc=%d GOMAXPROCS=%d %s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range rep.notes {
		fmt.Fprintf(w, "relbench:   %s\n", n)
	}
	for i, f := range rep.failures {
		if i == 10 {
			fmt.Fprintf(w, "relbench:   ... %d more failures\n", len(rep.failures)-i)
			break
		}
		fmt.Fprintf(w, "relbench:   FAILED %s\n", f)
	}
	for _, f := range rep.inconsistent {
		fmt.Fprintf(w, "relbench:   INCONSISTENT %s\n", f)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "relbench:   %-26s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// peakRSSMB reads VmHWM (peak resident set) of a process ("self" or a
// pid) from /proc, in MB.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// writeTrace writes a traced run's span tree (Chrome trace-event format,
// loadable in Perfetto) under the build directory.
func writeTrace(o options, tr *obs.Tracer, rep *report) {
	dir := filepath.Join(o.buildDir(), "traces")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	err := os.MkdirAll(dir, 0o755)
	var f *os.File
	if err == nil {
		f, err = os.Create(path)
	}
	if err == nil {
		err = tr.Report().WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		rep.note("trace not written: %v", err)
		return
	}
	rep.note("trace written to %s", path)
}

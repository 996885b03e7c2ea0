// Command rar retimes one circuit with a chosen approach and prints the
// resulting sequential cost, error-detecting masters and latch placement
// summary. Circuits come either from the built-in benchmark suite or
// from a structural Verilog netlist (ISCAS89 subset).
//
// Usage:
//
//	rar -bench s1423 -approach grar -c 1.0
//	rar -verilog s27.v -approach rvl -c 2.0 -dump
//	rar -verilog s27.v -lint
//	rar -bench s1196 -lint -lint-json
//	rar -bench s5378 -approach grar -trace -metrics
//	rar -bench s5378 -trace-chrome trace.json
//	rar -bench-json -bench all -approach grar,base,nvl,evl,rvl
//
// With -lint the circuit is statically analyzed instead of retimed: every
// lint rule runs (see -lint-disable) and diagnostics print with source
// positions, as JSON under -lint-json. -timeout applies to lint-only mode
// the same as to retiming runs.
//
// With -certify the run prints the independent output certificate —
// structural equivalence, retiming-label legality, EDL soundness and cost
// accounting re-derived from the result — as text, or as JSON under
// -certify-json. Every approach runs the certifier as a post-solve gate;
// the flag renders the certificate.
//
// The trace flags observe the pipeline: -trace prints the span tree
// (per-stage durations, simplex pivots, SSP augmenting paths, LP sizes)
// to stderr, -trace-json the same as JSON, -metrics a Prometheus-style
// dump, and -trace-chrome writes a chrome://tracing-loadable file; stdout
// stays machine-pure throughout. -bench-json runs benchmark×approach
// cells and prints one JSON row each on stdout (see make bench).
//
// Exit codes: 0 success, 1 runtime error, 2 usage error, 3 timeout or
// interrupt, 4 lint findings (error-severity diagnostics; warnings alone
// exit 0), 5 certification findings.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/cert"
	"relatch/internal/clocking"
	"relatch/internal/core"
	"relatch/internal/edl"
	"relatch/internal/flow"
	"relatch/internal/lint"
	"relatch/internal/netlist"
	"relatch/internal/obs"
	"relatch/internal/sta"
	"relatch/internal/verilog"
	"relatch/internal/vlib"
)

// usageError marks errors caused by bad invocation rather than a failed
// run; main maps them to exit code 2.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usagef(format string, args ...interface{}) error {
	return usageError{msg: fmt.Sprintf(format, args...)}
}

func main() {
	benchName := flag.String("bench", "", "built-in benchmark name (see -list)")
	verilogPath := flag.String("verilog", "", "structural Verilog netlist to retime instead")
	list := flag.Bool("list", false, "list built-in benchmarks and exit")
	approach := flag.String("approach", "grar", "retiming approach: grar, base, nvl, evl or rvl")
	overhead := flag.Float64("c", 1.0, "EDL overhead factor c")
	method := flag.String("method", "auto", "flow solver: auto (simplex with certified ssp fallback), simplex or ssp")
	gateModel := flag.Bool("gate-model", false, "optimize with the conservative gate-delay model")
	dump := flag.Bool("dump", false, "dump the slave-latch placement")
	instrument := flag.String("instrument", "", "write the error-detection-instrumented netlist (Verilog) to this file")
	clusterSize := flag.Int("cluster", 8, "error-detecting latch cluster size for -instrument")
	lintOnly := flag.Bool("lint", false, "lint the circuit instead of retiming it (exit 4 on findings)")
	lintJSON := flag.Bool("lint-json", false, "with -lint, print diagnostics as JSON (implies -lint)")
	lintDisable := flag.String("lint-disable", "", "comma-separated lint rule IDs to skip")
	certify := flag.Bool("certify", false, "print the independent output certificate (exit 5 on findings)")
	certifyJSON := flag.Bool("certify-json", false, "with -certify, print the certificate as JSON (implies -certify)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	trace := flag.Bool("trace", false, "print the pipeline span tree (stages, durations, solver counters) to stderr")
	traceJSON := flag.Bool("trace-json", false, "print the span tree as JSON to stderr")
	traceChrome := flag.String("trace-chrome", "", "write the trace in Chrome trace-event format to this file (load via chrome://tracing or Perfetto)")
	metrics := flag.Bool("metrics", false, "print Prometheus-style metrics for the run to stderr")
	benchJSON := flag.Bool("bench-json", false, "benchmark mode: run -bench (comma-separated list) × -approach (comma-separated list) and print one JSON record per row to stdout")
	jobs := flag.Int("j", 1, "parallel retiming jobs for -bench-json and -serve (0 = all cores); results are identical at any setting")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory (validated on load; empty = in-memory only)")
	serveAddr := flag.String("serve", "", "serve the retiming job API over HTTP on this address (e.g. :8080) instead of running locally")
	serveTimeout := flag.Duration("serve-timeout", 2*time.Minute, "per-request HTTP timeout in -serve mode (jobs keep running; 0 = none)")
	queueDir := flag.String("queue-dir", "", "write-ahead job journal directory for -serve; restarting on the same dir recovers queued and in-flight jobs (empty = in-memory queue)")
	queueCap := flag.Int("queue-cap", 0, "bound on queued+running jobs in -serve mode; submissions beyond it get 429 (0 = default 1024)")
	leaseTTL := flag.Duration("lease-ttl", 0, "worker lease duration in -serve mode; an expired lease requeues the job (0 = default 2m)")
	jobRetries := flag.Int("job-retries", 0, "per-job attempt budget in -serve mode before the dead-letter state (0 = default 5)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this private address in -serve mode (e.g. 127.0.0.1:6060; empty = off)")
	peers := flag.String("peers", "", "static cluster membership for -serve as comma-separated id=url pairs (self's URL may be empty); enables sharded routing and the peer cache tier")
	nodeID := flag.String("node-id", "", "this node's ID within -peers (required when -peers is set)")
	authFile := flag.String("auth-file", "", "JSON client-policy file gating the -serve API: bearer tokens with rate limits and quotas (empty = open API)")
	flag.Parse()

	if *list {
		for _, p := range bench.ISCAS89 {
			fmt.Printf("%-8s flops=%-5d gates≈%-6d NCE=%d\n", p.Name, p.Flops, p.Gates, p.NCE)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// In serve mode the process runs until SIGINT; -timeout becomes the
	// per-job solve deadline instead of a whole-process one.
	if *timeout > 0 && *serveAddr == "" {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	o := options{
		benchName:    *benchName,
		verilogPath:  *verilogPath,
		approach:     *approach,
		overhead:     *overhead,
		method:       *method,
		gateModel:    *gateModel,
		dump:         *dump,
		instrument:   *instrument,
		clusterSize:  *clusterSize,
		lint:         *lintOnly || *lintJSON,
		lintJSON:     *lintJSON,
		lintDisable:  *lintDisable,
		certify:      *certify || *certifyJSON,
		certifyJSON:  *certifyJSON,
		trace:        *trace,
		traceJSON:    *traceJSON,
		traceChrome:  *traceChrome,
		metrics:      *metrics,
		jobs:         *jobs,
		cacheDir:     *cacheDir,
		serveAddr:    *serveAddr,
		serveTimeout: *serveTimeout,
		queueDir:     *queueDir,
		queueCap:     *queueCap,
		leaseTTL:     *leaseTTL,
		jobRetries:   *jobRetries,
		debugAddr:    *debugAddr,
		peers:        *peers,
		nodeID:       *nodeID,
		authFile:     *authFile,
		timeout:      *timeout,
	}

	var err error
	switch {
	case *serveAddr != "":
		err = runServe(ctx, o)
	case *benchJSON:
		err = runBenchJSON(ctx, o)
	default:
		var tr *obs.Tracer
		if o.traced() {
			tr = obs.New("rar")
			ctx = obs.WithTracer(ctx, tr)
		}
		err = run(ctx, o)
		if tr != nil {
			tr.Finish()
			if xerr := exportTrace(tr.Report(), o); err == nil {
				err = xerr
			}
		}
	}
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "rar: %v\n", err)
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		os.Exit(3)
	case errors.As(err, &usageError{}):
		os.Exit(2)
	case errors.Is(err, lint.ErrFindings):
		os.Exit(4)
	case errors.Is(err, cert.ErrNotCertified):
		os.Exit(5)
	default:
		os.Exit(1)
	}
}

type options struct {
	benchName, verilogPath string
	approach               string
	overhead               float64
	method                 string
	gateModel              bool
	dump                   bool
	instrument             string
	clusterSize            int
	lint                   bool
	lintJSON               bool
	lintDisable            string
	certify                bool
	certifyJSON            bool
	trace                  bool
	traceJSON              bool
	traceChrome            string
	metrics                bool
	jobs                   int
	cacheDir               string
	serveAddr              string
	serveTimeout           time.Duration
	queueDir               string
	queueCap               int
	leaseTTL               time.Duration
	jobRetries             int
	debugAddr              string
	peers                  string
	nodeID                 string
	authFile               string
	timeout                time.Duration
}

// traced reports whether any trace/metrics export was requested.
func (o options) traced() bool {
	return o.trace || o.traceJSON || o.traceChrome != "" || o.metrics
}

// exportTrace renders the finished report per the output flags. Trace
// output goes to stderr (or the named Chrome-trace file) so stdout keeps
// its machine-purity contracts (-lint-json, -certify-json, -bench-json).
func exportTrace(rep *obs.Report, o options) error {
	if o.trace {
		rep.WriteText(os.Stderr)
	}
	if o.traceJSON {
		if err := rep.WriteJSON(os.Stderr); err != nil {
			return err
		}
	}
	if o.metrics {
		rep.WriteMetrics(os.Stderr)
	}
	if o.traceChrome != "" {
		f, err := os.Create(o.traceChrome)
		if err != nil {
			return err
		}
		if err := rep.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func run(ctx context.Context, o options) error {
	lib := cell.Default(o.overhead)
	var c *netlist.Circuit
	var seq *netlist.SeqCircuit
	var scheme clocking.Scheme
	switch {
	case o.benchName != "":
		prof, ok := bench.ProfileByName(o.benchName)
		if !ok {
			return usagef("unknown benchmark %q (try -list)", o.benchName)
		}
		var err error
		if seq, err = prof.BuildSeq(lib); err != nil {
			return err
		}
		if c, scheme, err = prof.CutAndCalibrate(seq); err != nil {
			return err
		}
	case o.verilogPath != "":
		f, err := os.Open(o.verilogPath)
		if err != nil {
			return err
		}
		seq, err = verilog.ParseNamedCtx(ctx, f, lib, o.verilogPath)
		f.Close()
		if err != nil {
			return err
		}
		if c, err = seq.Cut(); err != nil {
			return err
		}
		scheme = bench.SchemeFor(c, sta.DefaultOptions(lib))
	default:
		return usagef("need -bench or -verilog (try -list)")
	}

	if o.lint {
		return runLint(ctx, c, scheme, o)
	}

	m, err := flow.ParseMethod(o.method)
	if err != nil {
		return usagef("%v", err)
	}

	// With -certify-json the machine-readable certificate owns stdout,
	// the same purity contract -lint-json keeps for diagnostics; the
	// human progress lines move to stderr.
	info := io.Writer(os.Stdout)
	if o.certifyJSON {
		info = os.Stderr
	}

	fmt.Fprintf(info, "circuit %s: %d gates, %d boundary registers, %s\n",
		c.Name, c.GateCount(), c.FlopCount(), scheme)

	var res *core.Result
	vl := false
	switch o.approach {
	case "grar", "base":
		opt := core.Options{Scheme: scheme, EDLCost: o.overhead, Method: m}
		if o.gateModel {
			opt.TimingModel = sta.ModelGate
		}
		ap := core.ApproachGRAR
		if o.approach == "base" {
			ap = core.ApproachBase
		}
		res, err = core.RetimeCtx(ctx, c, opt, ap)
	case "nvl", "evl", "rvl":
		vl = true
		variant := map[string]vlib.Variant{"nvl": vlib.NVL, "evl": vlib.EVL, "rvl": vlib.RVL}[o.approach]
		res, err = vlib.RetimeCtx(ctx, c, vlib.Options{Scheme: scheme, EDLCost: o.overhead, Method: m, PostSwap: true}, variant)
	default:
		return usagef("unknown approach %q", o.approach)
	}
	if err != nil {
		// The post-solve gate attaches the certificate even when it
		// fails; render the findings before surfacing exit code 5.
		if res != nil && res.Certificate != nil && o.certify {
			if cerr := emitCertificate(res.Certificate, o); cerr != nil {
				return cerr
			}
		}
		return err
	}
	repairs := ""
	if vl {
		repairs = fmt.Sprintf(" (%d swaps, %d upsized)", res.Swaps, res.Upsized)
	}
	fmt.Fprintf(info, "%s: %d slave latches, %d masters, %d error-detecting%s\n",
		res.Approach, res.SlaveCount, res.MasterCount, res.EDCount, repairs)
	fmt.Fprintf(info, "sequential area %.2f, total area %.2f, runtime %v (solver %v%s)\n",
		res.SeqArea, res.TotalArea, res.Runtime, res.Solver, fallbackNote(res.SolverFallback, res.FallbackReason))
	if len(res.Violations) > 0 {
		fmt.Fprintf(info, "WARNING: %d residual timing violations\n", len(res.Violations))
	}
	if o.certify {
		if err := emitCertificate(res.Certificate, o); err != nil {
			return err
		}
	}

	if o.instrument != "" {
		names := edFlopNames(c, res.EDMasters)
		if len(names) == 0 {
			fmt.Println("no error-detecting masters; writing the design uninstrumented")
		}
		inst, err := edl.Instrument(seq, names, o.clusterSize)
		if err != nil {
			return fmt.Errorf("instrument: %w", err)
		}
		f, err := os.Create(o.instrument)
		if err != nil {
			return err
		}
		if err := verilog.Write(f, inst); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote instrumented netlist with %d detectors to %s\n", len(names), o.instrument)
	}

	if o.dump {
		fmt.Println("slave latches at the outputs of:")
		drivers := res.Placement.LatchedDrivers()
		names := make([]string, 0, len(drivers))
		for _, id := range drivers {
			names = append(names, c.Nodes[id].Name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %s\n", n)
		}
	}
	return nil
}

// runLint is the -lint mode: run every enabled rule, print the
// diagnostics, and surface lint.ErrFindings (exit 4) when any
// error-severity diagnostic fired.
func runLint(ctx context.Context, c *netlist.Circuit, scheme clocking.Scheme, o options) error {
	cfg := lint.Config{}
	if o.lintDisable != "" {
		cfg.Disabled = make(map[string]bool)
		for _, id := range strings.Split(o.lintDisable, ",") {
			if id = strings.TrimSpace(id); id != "" {
				cfg.Disabled[id] = true
			}
		}
	}
	if err := cfg.Validate(); err != nil {
		return usagef("%v", err)
	}
	rep, err := lint.Run(ctx, lint.Input{
		Circuit: c,
		Scheme:  &scheme,
		EDLCost: o.overhead,
		File:    o.verilogPath,
	}, cfg)
	if err != nil {
		return err
	}
	if o.lintJSON {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		rep.WriteText(os.Stdout)
	}
	return rep.Err()
}

// emitCertificate renders a certificate per the output flags.
func emitCertificate(crt *cert.Certificate, o options) error {
	if o.certifyJSON {
		return crt.WriteJSON(os.Stdout)
	}
	return crt.WriteText(os.Stdout)
}

func fallbackNote(fellBack bool, reason string) string {
	if !fellBack {
		return ""
	}
	return fmt.Sprintf(", fell back from simplex: %s", reason)
}

// edFlopNames maps error-detecting cut endpoints back to the sequential
// design's register names ("<ff>/D" endpoints; registered primary
// outputs have no state register to protect and are skipped).
func edFlopNames(c *netlist.Circuit, ed map[int]bool) []string {
	var names []string
	for id := range ed {
		name := c.Nodes[id].Name
		if n := strings.TrimSuffix(name, "/D"); n != name {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

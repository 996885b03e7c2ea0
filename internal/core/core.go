// Package core ties the retiming system together: it runs static timing,
// builds the resiliency-aware retiming graph, solves it through the
// min-cost-flow layer, applies the resulting slave-latch placement, and
// settles each master latch's error-detecting status against ground-truth
// latch-aware timing. It exposes the two algorithmic approaches the paper
// compares throughout Section VI:
//
//   - G-RAR (ApproachGRAR): the paper's graph-based resilient-aware
//     retiming, minimizing slave-latch count plus c per error-detecting
//     master in one exact solve;
//   - Base (ApproachBase): traditional resiliency-unaware min-area
//     retiming, with error detection assigned afterwards by timing — the
//     commercial-flow baseline.
package core

import (
	"context"
	"fmt"
	"time"

	"relatch/internal/cell"
	"relatch/internal/cert"
	"relatch/internal/clocking"
	"relatch/internal/flow"
	"relatch/internal/lint"
	"relatch/internal/netlist"
	"relatch/internal/obs"
	"relatch/internal/rgraph"
	"relatch/internal/sta"
)

// Approach selects the retiming algorithm.
type Approach int

const (
	// ApproachGRAR is the paper's graph-based resilient-aware retiming.
	ApproachGRAR Approach = iota
	// ApproachBase is traditional min-area retiming, resiliency-unaware.
	ApproachBase
)

func (a Approach) String() string {
	if a == ApproachBase {
		return "base"
	}
	return "g-rar"
}

// Options configures a retiming run.
type Options struct {
	// Scheme is the two-phase clocking; zero value is rejected.
	Scheme clocking.Scheme
	// EDLCost is the error-detecting overhead factor c (0.5–2 in the
	// paper's sweeps).
	EDLCost float64
	// TimingModel drives the *optimization* timing (Table II compares
	// sta.ModelGate against sta.ModelPath). Evaluation of the final
	// design always uses the path-based model.
	TimingModel sta.Model
	// FixedDelays supplies per-node delays when TimingModel is
	// sta.ModelFixed (used by the worked example and tests).
	FixedDelays map[int]float64
	// Method selects the flow solver (network simplex by default).
	Method flow.Method
	// PivotLimit overrides the simplex pivot budget of the backing flow
	// solve (0 = automatic); exceeded budgets trigger the certified SSP
	// fallback under flow.MethodAuto.
	PivotLimit int
}

// Result is a completed retiming with its ground-truth evaluation. It is
// the one result type of every retiming family: G-RAR and Base fill it
// here, the virtual-library flows in package vlib.
type Result struct {
	Circuit *netlist.Circuit
	// Approach names the approach the way the paper's tables do
	// ("g-rar", "base", "nvl-rar", "evl-rar", "rvl-rar").
	Approach  string
	Options   Options
	Placement *netlist.Placement

	// EDMasters holds the output node IDs whose masters must be
	// error-detecting, settled by latch-aware path timing.
	EDMasters map[int]bool

	SlaveCount  int
	MasterCount int
	EDCount     int

	// SeqArea = latch area · (slaves + masters) + c · latch area · ED.
	SeqArea float64
	// TotalArea adds the combinational gate area.
	TotalArea float64

	// Objective is the solver's internal objective (latch units,
	// relative); areas above are the authoritative measurements.
	Objective float64
	// Classes counts endpoints per rgraph classification.
	Classes map[rgraph.TargetClass]int
	// Reclaimed maps target output IDs the solver claimed the −c reward
	// for (rgraph.Solution.PseudoFired). The certifier's reclaim audit
	// re-derives its judgement from this claim set, so results restored
	// from a cache can be re-certified with the same inputs.
	Reclaimed map[int]bool
	// Violations lists any residual latch timing violations under the
	// evaluation model (empty when the optimization model is at least
	// as pessimistic as the evaluation model).
	Violations []sta.Violation

	// Relaxed, Swaps and Upsized count the virtual-library flow's repairs
	// (zero for G-RAR and Base): endpoints flipped to error-detecting to
	// make the latch-type assignment feasible, post-retiming latch-type
	// changes, and gates the incremental compile strengthened.
	Relaxed int
	Swaps   int
	Upsized int

	// Solver reports the flow solver that produced the accepted retiming;
	// SolverFallback / FallbackReason / SolverCertified mirror the
	// hardened solve's flow.Report.
	Solver          flow.Method
	SolverFallback  bool
	FallbackReason  string
	SolverCertified bool

	// Certificate is the independent output certification (structural
	// equivalence, retiming-label legality, EDL soundness, cost
	// accounting) attached by Certify. It is attached even when
	// certification fails, so callers can inspect the findings behind
	// the returned error.
	Certificate *cert.Certificate
	// CertConfig is the certifier configuration the producing flow is
	// judged under: zero for G-RAR and Base, the resizing and ED-superset
	// tolerances for the virtual-library flows.
	CertConfig cert.Config

	// Trace is the observability report of the run — the span tree with
	// per-stage durations and solver counters — when the context carried
	// an obs.Tracer; nil otherwise. The report wraps the caller's live
	// tracer, so exporting it after the pipeline finishes reflects every
	// stage, including ones outside this call.
	Trace *obs.Report

	Runtime time.Duration

	// CertifyTime is the portion of Runtime spent in the post-solve
	// certification gate; Runtime - CertifyTime is the solve proper. The
	// serving engine splits its per-stage latency histograms on it.
	CertifyTime time.Duration
}

// RecordSolve copies the accepted flow solve onto the result: the
// reclaim claims and objective the certifier audits, and the solver,
// fallback and duality-certification provenance of the hardened solve.
func (r *Result) RecordSolve(sol *rgraph.Solution) {
	r.Reclaimed = sol.PseudoFired
	r.Objective = sol.Objective
	r.Solver = sol.Method
	r.SolverFallback = sol.Fallback
	r.FallbackReason = sol.FallbackReason
	r.SolverCertified = sol.Certified
}

// Certify is the certification gate of every retiming result: the
// post-solve gate of RetimeCtx and vlib.RetimeCtx, and the engine's
// cache restore. It builds the certifier's subject from the result's own
// claims, judges it against original (the structural snapshot of the
// input circuit taken before the flow ran) under res.CertConfig, and
// attaches the certificate and its duration to res. The error reports a
// run that could not complete, or a certificate with findings; the
// latter wraps cert.ErrNotCertified and lists the first five.
func Certify(ctx context.Context, res *Result, original *cert.Shape) error {
	start := time.Now()
	evalOpt := evalOptions(res.Circuit, res.Options)
	crt, err := cert.Run(ctx, cert.Subject{
		Original:    original,
		Retimed:     res.Circuit,
		Placement:   res.Placement,
		Scheme:      res.Options.Scheme,
		Latch:       slaveLatch(res.Circuit, res.Options),
		StaOptions:  &evalOpt,
		EDMasters:   res.EDMasters,
		Reclaimed:   res.Reclaimed,
		SlaveCount:  res.SlaveCount,
		MasterCount: res.MasterCount,
		EDCount:     res.EDCount,
		SeqArea:     res.SeqArea,
		EDLCost:     res.Options.EDLCost,
		Objective:   res.Objective,
		Approach:    res.Approach,
	}, res.CertConfig)
	if err != nil {
		return err
	}
	res.Certificate = crt
	res.CertifyTime = time.Since(start)
	if ferr := crt.Err(); ferr != nil {
		return listFirst(ferr, crt.Findings)
	}
	return nil
}

// listFirst appends the first five findings behind a gate error to it.
func listFirst[T any](ferr error, findings []T) error {
	for i, f := range findings {
		if i == 5 {
			return fmt.Errorf("%w\n  ... and %d more", ferr, len(findings)-i)
		}
		ferr = fmt.Errorf("%w\n  %v", ferr, f)
	}
	return ferr
}

// staOptions derives the optimization timing options.
func staOptions(c *netlist.Circuit, opt Options) sta.Options {
	switch opt.TimingModel {
	case sta.ModelGate:
		return sta.GateOptions(c.Lib)
	case sta.ModelFixed:
		o := sta.DefaultOptions(c.Lib)
		o.Model = sta.ModelFixed
		o.FixedDelays = opt.FixedDelays
		o.LaunchDelay = 0
		return o
	default:
		return sta.DefaultOptions(c.Lib)
	}
}

// evalOptions derives the evaluation (sign-off) timing options: the
// path-based model, or the fixed model when the caller supplied explicit
// delays (there is no truer model for those circuits).
func evalOptions(c *netlist.Circuit, opt Options) sta.Options {
	if opt.TimingModel == sta.ModelFixed {
		return staOptions(c, opt)
	}
	return sta.DefaultOptions(c.Lib)
}

// slaveLatch returns the latch cell used for slave timing in Eq. (5).
func slaveLatch(c *netlist.Circuit, opt Options) cell.Latch {
	if opt.TimingModel == sta.ModelFixed {
		// The worked example idealizes latch delays to zero.
		return cell.Latch{Name: "IDEAL", Area: c.Lib.BaseLatch.Area}
	}
	return c.Lib.BaseLatch
}

// Retime runs the selected approach on the circuit.
func Retime(c *netlist.Circuit, opt Options, approach Approach) (*Result, error) {
	return RetimeCtx(context.Background(), c, opt, approach)
}

// RetimeCtx is Retime under a context: the flow solve — the long pole of
// a retiming run — observes cancellation and deadline expiry, surfacing
// them as errors wrapping ctx.Err().
func RetimeCtx(ctx context.Context, c *netlist.Circuit, opt Options, approach Approach) (res *Result, err error) {
	start := time.Now()
	if c == nil {
		return nil, fmt.Errorf("core: %w: nil circuit", ErrBadInput)
	}
	if err := opt.Scheme.Validate(); err != nil {
		return nil, err
	}
	sp, ctx := obs.StartSpan(ctx, "core.retime")
	defer func() {
		sp.Fail(err)
		sp.End()
	}()
	sp.Attr("approach", approach.String())
	sp.Attr("circuit", c.Name)
	staOpt := staOptions(c, opt)
	if err := staOpt.Validate(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", approach, err)
	}
	// Pre-flight gate: run the error-severity structural lint rules and
	// fail fast — with positioned diagnostics — instead of burning a flow
	// solve on a doomed netlist. The flow-conservation rule is excluded
	// because it rebuilds the retiming graph this function is about to
	// build anyway; its admission checks run on the real graph below.
	lintRep, err := lint.Run(ctx, lint.Input{Circuit: c},
		lint.Config{ErrorsOnly: true, Disabled: map[string]bool{"flow-conservation": true}})
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", approach, err)
	}
	if ferr := lintRep.Err(); ferr != nil {
		return nil, fmt.Errorf("core: %s: pre-flight %w", approach, listFirst(ferr, lintRep.Findings()))
	}
	optTiming := sta.AnalyzeCtx(ctx, c, staOpt)
	latch := slaveLatch(c, opt)
	cfg := rgraph.Config{
		Scheme:         opt.Scheme,
		Latch:          latch,
		EDLCost:        opt.EDLCost,
		ResilientAware: approach == ApproachGRAR,
		// Base models the commercial tool's minimum-perturbation
		// behavior (see rgraph.Config.MovementPrimary).
		MovementPrimary: approach == ApproachBase,
		PivotLimit:      opt.PivotLimit,
	}
	// Snapshot the cloud before the solver sees it: the post-solve
	// certifier compares the circuit that comes back against this
	// fingerprint, so any in-place corruption is caught.
	shape := cert.Snapshot(c)
	g, err := rgraph.BuildCtx(ctx, c, optTiming, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", approach, err)
	}
	sol, err := g.SolveCtx(ctx, opt.Method)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", approach, err)
	}
	res = evaluate(ctx, c, opt, approach.String(), sol.Placement, latch)
	res.Trace = obs.FromContext(ctx).Report()
	res.RecordSolve(sol)
	res.Classes = make(map[rgraph.TargetClass]int)
	for _, cls := range g.Class {
		res.Classes[cls]++
	}
	// Post-solve gate: independently certify the output. The result is
	// returned alongside the error so callers can render the findings.
	err = Certify(ctx, res, shape)
	res.Runtime = time.Since(start)
	if err != nil {
		return res, fmt.Errorf("core: %s: post-solve %w", approach, err)
	}
	return res, nil
}

// evaluate settles ED status and areas for a placement under the
// evaluation timing model.
func evaluate(ctx context.Context, c *netlist.Circuit, opt Options, approach string, p *netlist.Placement, latch cell.Latch) *Result {
	sp, ctx := obs.StartSpan(ctx, "core.evaluate")
	defer sp.End()
	evalTiming := sta.AnalyzeCtx(ctx, c, evalOptions(c, opt))
	la := sta.AnalyzeLatched(evalTiming, p, opt.Scheme, latch)
	ed := la.EDMasters()

	res := &Result{
		Circuit:     c,
		Approach:    approach,
		Options:     opt,
		Placement:   p,
		EDMasters:   ed,
		SlaveCount:  p.SlaveCount(),
		MasterCount: c.FlopCount(),
		EDCount:     len(ed),
		Violations:  la.Violations(),
	}
	res.SeqArea = cell.SeqAreaOf(c.Lib, opt.EDLCost, res.SlaveCount, res.MasterCount, res.EDCount)
	res.TotalArea = res.SeqArea + c.CombArea()
	sp.Gauge("slaves", int64(res.SlaveCount))
	sp.Gauge("masters", int64(res.MasterCount))
	sp.Gauge("ed_masters", int64(res.EDCount))
	sp.Gauge("violations", int64(len(res.Violations)))
	return res
}

// Evaluate scores an externally produced placement (used by the virtual
// library flows and by tests) with the same accounting as Retime.
func Evaluate(c *netlist.Circuit, opt Options, p *netlist.Placement) (*Result, error) {
	return EvaluateCtx(context.Background(), c, opt, Approach(-1), p)
}

// EvaluateCtx validates and scores an externally produced placement under
// an explicit approach tag. It is the restore path of the content-
// addressed result cache: a cached placement is re-settled against
// ground-truth timing from scratch, so a poisoned cache entry can never
// smuggle in wrong ED assignments or areas.
func EvaluateCtx(ctx context.Context, c *netlist.Circuit, opt Options, approach Approach, p *netlist.Placement) (*Result, error) {
	if c == nil {
		return nil, fmt.Errorf("core: %w: nil circuit", ErrBadInput)
	}
	if err := opt.Scheme.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(c); err != nil {
		return nil, fmt.Errorf("core: placement: %w", err)
	}
	return evaluate(ctx, c, opt, approach.String(), p, slaveLatch(c, opt)), nil
}

// SeqAreaOf recomputes the sequential-area formula for explicit counts;
// it delegates to cell.SeqAreaOf, the shared definition the certifier
// re-derives claims against.
func SeqAreaOf(lib *cell.Library, edlCost float64, slaves, masters, ed int) float64 {
	return cell.SeqAreaOf(lib, edlCost, slaves, masters, ed)
}

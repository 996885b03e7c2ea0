// Package vlib implements the virtual-library retiming flows of
// Section V: the base cell library is augmented with an error-detecting
// latch (area scaled by 1+c) and a non-error-detecting latch whose setup
// is extended by the resiliency window, and a conventional synthesis flow
// retimes under those types. The three variants differ in how master
// latches are typed before retiming:
//
//   - NVL-RAR: every master starts non-error-detecting,
//   - EVL-RAR: every master starts error-detecting,
//   - RVL-RAR: near-critical endpoints start error-detecting, the rest
//     normal (the variant the paper finds best).
//
// Because the tool decides latch types separately from retiming — the
// decoupling the paper identifies as the VL approach's weakness — the
// type assignment only reaches the retimer as per-endpoint max-delay
// constraints, and the retimer itself minimizes latch count alone. An
// optional post-retiming step (Section VI-C) swaps latch types by
// measured timing, and a size-only incremental compile fixes residual
// violations.
package vlib

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"time"

	"relatch/internal/cert"
	"relatch/internal/clocking"
	"relatch/internal/core"
	"relatch/internal/flow"
	"relatch/internal/netlist"
	"relatch/internal/obs"
	"relatch/internal/rgraph"
	"relatch/internal/sta"
	"relatch/internal/synth"
)

// Variant selects the initial latch-type assignment.
type Variant int

const (
	// NVL types every master non-error-detecting initially.
	NVL Variant = iota
	// EVL types every master error-detecting initially.
	EVL
	// RVL types near-critical endpoints error-detecting, others normal.
	RVL
)

func (v Variant) String() string {
	switch v {
	case NVL:
		return "nvl-rar"
	case EVL:
		return "evl-rar"
	case RVL:
		return "rvl-rar"
	}
	return fmt.Sprintf("vl(%d)", int(v))
}

// Options configures a virtual-library retiming run.
type Options struct {
	Scheme  clocking.Scheme
	EDLCost float64
	Method  flow.Method
	// PostSwap enables the post-retiming latch-type swap; the paper
	// adds it to every VL variant after finding it lifts RVL-RAR's high
	// overhead average improvement from −0.36% to 9.6%.
	PostSwap bool
}

// initialTypes assigns master types per the variant (Section VI-C).
func initialTypes(c *netlist.Circuit, tm *sta.Timing, s clocking.Scheme, v Variant) map[int]bool {
	ed := make(map[int]bool)
	switch v {
	case EVL:
		for _, o := range c.Outputs {
			ed[o.ID] = true
		}
	case NVL:
		// all false
	case RVL:
		for _, o := range tm.NearCritical(s) {
			ed[o.ID] = true
		}
	}
	return ed
}

// Retime runs the virtual-library flow. The input circuit is cloned; the
// clone (possibly resized by the incremental compile) is returned in the
// result.
func Retime(cin *netlist.Circuit, opt Options, variant Variant) (*core.Result, error) {
	return RetimeCtx(context.Background(), cin, opt, variant)
}

// RetimeCtx is Retime under a context: the feasibility probes and the
// flow solve of the relax search observe cancellation and deadline
// expiry. Like core.RetimeCtx it ends in the post-solve certification
// gate, and returns the result alongside a gate error so callers can
// render the findings.
func RetimeCtx(ctx context.Context, cin *netlist.Circuit, opt Options, variant Variant) (res *core.Result, err error) {
	start := time.Now()
	var attempts int64
	if cin == nil {
		return nil, fmt.Errorf("vlib: %w: nil circuit", ErrBadInput)
	}
	if err := opt.Scheme.Validate(); err != nil {
		return nil, err
	}
	sp, ctx := obs.StartSpan(ctx, "vlib.retime")
	sp.Attr("variant", variant.String())
	sp.Attr("circuit", cin.Name)
	defer func() {
		sp.Add("attempts", attempts)
		if res != nil {
			sp.Add("relaxed", int64(res.Relaxed))
			sp.Add("swaps", int64(res.Swaps))
			sp.Add("upsized", int64(res.Upsized))
		}
		sp.Fail(err)
		sp.End()
	}()
	c := cin.Clone()
	// Snapshot the cloud before the flow sizes it: the post-solve gate
	// compares the circuit that comes back against this fingerprint.
	shape := cert.Snapshot(c)
	lib := c.Lib
	staOpt := sta.DefaultOptions(lib)
	tool := synth.New(c, staOpt)
	latch := lib.BaseLatch

	// The tool retimes for minimum latch count under the type-derived
	// max-delay constraints; infeasible type assignments are repaired by
	// flipping the most violating endpoints to error-detecting, the way
	// the commercial flow "fixes timing violations by switching some
	// non-error-detecting latches" (Section V). The search probes flip
	// counts with the feasibility check and solves once, on the graph of
	// the smallest feasible count.
	relax := newRelaxation(c, tool.Timing(), opt, variant)
	var (
		g       *rgraph.Graph
		witness []string // the last infeasible probe's negative cycle
	)
	relaxed, found, err := searchFlips(len(relax.order), func(k int) (bool, error) {
		attempts++
		pg, err := relax.graph(ctx, k)
		if err != nil {
			return false, err
		}
		ok, cycle, err := pg.Feasible(ctx)
		if ok {
			g = pg
		} else if err == nil {
			witness = cycle
		}
		return ok, err
	})
	if len(witness) > 0 {
		sp.Gauge("witness_length", int64(len(witness)))
		sp.Attr("witness", strings.Join(witness, " → "))
	}
	if err != nil {
		return nil, fmt.Errorf("vlib: %v: %w", variant, err)
	}
	if !found {
		return nil, fmt.Errorf("vlib: %v: %w: retiming infeasible even fully error-detecting", variant, flow.ErrInfeasible)
	}
	ed := relax.types(relaxed)
	sol, err := g.SolveCtx(ctx, opt.Method)
	if errors.Is(err, flow.ErrInfeasible) || errors.Is(err, flow.ErrUnbounded) {
		return nil, fmt.Errorf("vlib: %v: %w: the solver rejected a graph the feasibility check accepted: %v", variant, flow.ErrInternal, err)
	}
	if err != nil {
		return nil, fmt.Errorf("vlib: %v: %w", variant, err)
	}
	p := sol.Placement

	// Post-retiming swap: align types with measured latch-aware timing.
	swaps := 0
	if opt.PostSwap {
		ed, swaps = synth.LatchTypeSwap(tool.Timing(), p, opt.Scheme, latch, ed)
	} else {
		// Without the swap the decoupled flow keeps its pre-retiming
		// types, but genuine violations must still be repaired upward
		// (non-ED masters that miss Π become ED — the tool cannot ship
		// a timing violation).
		la := sta.AnalyzeLatched(tool.Timing(), p, opt.Scheme, latch)
		for _, o := range c.Outputs {
			if !ed[o.ID] && la.MustBeED(o) {
				ed[o.ID] = true
				relaxed++
			}
		}
	}

	// Size-only incremental compile against the final required times.
	comp := tool.FixViolations(p, opt.Scheme, latch, ed)

	// After sizing, re-settle types against ground truth once more when
	// swapping is enabled (sizing can only have improved arrivals).
	if opt.PostSwap {
		newED, more := synth.LatchTypeSwap(tool.Timing(), p, opt.Scheme, latch, ed)
		swaps += more
		ed = newED
	}

	res = NewResult(c, opt, variant, p, ed)
	res.RecordSolve(sol)
	res.Relaxed, res.Swaps, res.Upsized = relaxed, swaps, comp.Upsized
	res.Trace = obs.FromContext(ctx).Report()
	err = core.Certify(ctx, res, shape)
	res.Runtime = time.Since(start)
	if err != nil {
		return res, fmt.Errorf("vlib: %v: post-solve %w", variant, err)
	}
	return res, nil
}

// NewResult assembles the result of a virtual-library run from the
// circuit the flow finished on, its slave placement and its
// error-detecting set: the latch counts, the areas, and the terms the
// family is certified under. The incremental compile resizes gates but
// never changes logic functions, hence AllowResizing; without the
// post-swap the flow may deliberately leave extra ED latches, hence
// EDSuperset. RetimeCtx and the engine's cache restore both build their
// results here.
func NewResult(c *netlist.Circuit, opt Options, variant Variant, p *netlist.Placement, ed map[int]bool) *core.Result {
	res := &core.Result{
		Circuit:     c,
		Approach:    variant.String(),
		Options:     core.Options{Scheme: opt.Scheme, EDLCost: opt.EDLCost, Method: opt.Method},
		Placement:   p,
		EDMasters:   ed,
		SlaveCount:  p.SlaveCount(),
		MasterCount: c.FlopCount(),
		EDCount:     len(filterTrue(ed)),
		CertConfig:  cert.Config{AllowResizing: true, EDSuperset: !opt.PostSwap},
	}
	res.SeqArea = core.SeqAreaOf(c.Lib, opt.EDLCost, res.SlaveCount, res.MasterCount, res.EDCount)
	res.TotalArea = res.SeqArea + c.CombArea()
	return res
}

// relaxation is the flip-count search space of one run: the initial
// latch types, the graph configuration every probe shares, and the
// order in which endpoints flip to error-detecting.
type relaxation struct {
	c     *netlist.Circuit
	tm    *sta.Timing
	cfg   rgraph.Config
	ed    map[int]bool
	order []*netlist.Node
}

func newRelaxation(c *netlist.Circuit, tm *sta.Timing, opt Options, variant Variant) *relaxation {
	ed := initialTypes(c, tm, opt.Scheme, variant)
	return &relaxation{
		c:  c,
		tm: tm,
		cfg: rgraph.Config{
			Scheme:         opt.Scheme,
			Latch:          c.Lib.BaseLatch,
			EDLCost:        opt.EDLCost,
			ResilientAware: false,
			// The virtual library rides the commercial tool's own
			// retiming command, which shares the baseline's minimum-
			// perturbation behavior; only the latch-type-derived
			// required times differ.
			MovementPrimary: true,
		},
		ed:    ed,
		order: flipOrder(c, tm, ed),
	}
}

// flipOrder lists the endpoints the repair flips, first flip first:
// non-error-detecting endpoints by unlatched arrival, worst first, ties
// in c.Outputs order; an endpoint arriving at or before 0 never flips.
// Timing does not change while the flow retimes, so this is the order
// of flipping the worst remaining endpoint one at a time.
func flipOrder(c *netlist.Circuit, tm *sta.Timing, ed map[int]bool) []*netlist.Node {
	var order []*netlist.Node
	for _, o := range c.Outputs {
		if !ed[o.ID] && tm.Arrival(o) > 0 {
			order = append(order, o)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return tm.Arrival(order[i]) > tm.Arrival(order[j]) })
	return order
}

// types returns the latch types after the first k flips.
func (r *relaxation) types(k int) map[int]bool {
	ed := maps.Clone(r.ed)
	for _, o := range r.order[:k] {
		ed[o.ID] = true
	}
	return ed
}

// graph builds the retiming graph after the first k flips.
func (r *relaxation) graph(ctx context.Context, k int) (*rgraph.Graph, error) {
	cfg := r.cfg
	cfg.Required = synth.RequiredTimes(r.c, cfg.Scheme, r.types(k))
	return rgraph.BuildCtx(ctx, r.c, r.tm, cfg)
}

// searchFlips returns the smallest k in 0..n with feasible(k), or
// found == false when not even n is feasible. A flip only raises one
// required time from Π to Π+φ1, which can only drop edge pins and
// loosen bounds, so feasibility is monotone in k: the search probes
// k = 0, 1, 2, 4, … (capped at n) until one is feasible, then bisects
// the last gap, using at most 2⌈log₂(k+1)⌉+2 probes. An oracle error
// ends the search with that error.
func searchFlips(n int, feasible func(k int) (bool, error)) (k int, found bool, err error) {
	lo, hi := -1, 0 // lo: largest known infeasible; hi: next probe
	for {
		ok, err := feasible(hi)
		if err != nil {
			return 0, false, err
		}
		if ok {
			break
		}
		if hi == n {
			return 0, false, nil
		}
		lo, hi = hi, min(max(2*hi, 1), n)
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := feasible(mid)
		if err != nil {
			return 0, false, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}

func filterTrue(m map[int]bool) []int {
	var out []int
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

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
	"fmt"
	"sort"
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
	// MaxSizingIter caps the incremental compile (0 = automatic).
	MaxSizingIter int
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

// RetimeCtx is Retime under a context: the repeated flow solves of the
// relax-and-retry loop observe cancellation and deadline expiry. Like
// core.RetimeCtx it ends in the post-solve certification gate, and
// returns the result alongside a gate error so callers can render the
// findings.
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
		if res != nil {
			sp.Add("attempts", attempts)
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

	ed := initialTypes(c, tool.Timing(), opt.Scheme, variant)
	relaxed := 0

	// The tool retimes for minimum latch count under the type-derived
	// max-delay constraints; infeasible type assignments are repaired by
	// flipping the most violating endpoints to error-detecting, the way
	// the commercial flow "fixes timing violations by switching some
	// non-error-detecting latches" (Section V).
	var sol *rgraph.Solution
	for attempt := 0; ; attempt++ {
		attempts++
		g, err := rgraph.Build(c, tool.Timing(), rgraph.Config{
			Scheme:         opt.Scheme,
			Latch:          latch,
			EDLCost:        opt.EDLCost,
			ResilientAware: false,
			// The virtual library rides the commercial tool's own
			// retiming command, which shares the baseline's minimum-
			// perturbation behavior; only the latch-type-derived
			// required times differ.
			MovementPrimary: true,
			Required:        synth.RequiredTimes(c, opt.Scheme, ed),
		})
		if err != nil {
			return nil, fmt.Errorf("vlib: %v: %w", variant, err)
		}
		sol, err = g.SolveCtx(ctx, opt.Method)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("vlib: %v: %w", variant, err)
		}
		flipped := relaxWorst(c, tool.Timing(), opt.Scheme, ed)
		if flipped == 0 || attempt > len(c.Outputs) {
			return nil, fmt.Errorf("vlib: %v: retiming infeasible even fully error-detecting: %w", variant, err)
		}
		relaxed += flipped
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

// relaxWorst flips the non-ED endpoint with the worst unlatched arrival
// to error-detecting; returns the number of flips (0 or 1).
func relaxWorst(c *netlist.Circuit, tm *sta.Timing, s clocking.Scheme, ed map[int]bool) int {
	var worst *netlist.Node
	worstArr := 0.0
	for _, o := range c.Outputs {
		if ed[o.ID] {
			continue
		}
		if a := tm.Arrival(o); a > worstArr {
			worstArr = a
			worst = o
		}
	}
	if worst == nil {
		return 0
	}
	ed[worst.ID] = true
	return 1
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

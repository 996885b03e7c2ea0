// Package synth is the mini logic-synthesis substrate standing in for the
// commercial tool of the paper's flows: a netlist database with cached
// timing, a size-only incremental compile (the step both G-RAR and the
// virtual-library flows run after retiming to fix residual violations,
// Section VI-B/C), and timing-driven latch-type swapping used by the
// virtual-library post-retiming step.
package synth

import (
	"fmt"
	"sort"

	"relatch/internal/cell"
	"relatch/internal/clocking"
	"relatch/internal/netlist"
	"relatch/internal/sta"
)

// Tool wraps one circuit with cached timing, invalidated on edits.
type Tool struct {
	C   *netlist.Circuit
	Opt sta.Options

	timing *sta.Timing
}

// New creates a tool over the circuit. The circuit is edited in place by
// compile steps; clone it first if the original must survive.
func New(c *netlist.Circuit, opt sta.Options) *Tool {
	return &Tool{C: c, Opt: opt}
}

// Timing returns the current timing view, re-analyzing after edits.
func (t *Tool) Timing() *sta.Timing {
	if t.timing == nil {
		t.timing = sta.Analyze(t.C, t.Opt)
	}
	return t.timing
}

// Invalidate drops the cached timing after an external circuit edit.
func (t *Tool) Invalidate() { t.timing = nil }

// CompileResult summarizes a size-only incremental compile.
type CompileResult struct {
	Upsized    int
	Iterations int
	AreaDelta  float64
	// Met reports whether all required times were satisfied.
	Met bool
}

// SizeOnlyCompile upsizes gates along violating critical paths until the
// per-endpoint required times are met or no further upsize helps. It
// mirrors the "incremental compile step in which we allow only sizing of
// gates" of Section VI-B. Latches in the placement (if non-nil) gate the
// timing through the scheme, reproducing the post-retiming fixup.
func (t *Tool) SizeOnlyCompile(required map[int]float64, p *netlist.Placement, scheme clocking.Scheme, latch cell.Latch, maxIter int) CompileResult {
	res := CompileResult{}
	if maxIter <= 0 {
		maxIter = 5 * t.C.GateCount()
	}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		worstSlack := 0.0
		var worst *netlist.Node
		arr := t.endpointArrivals(p, scheme, latch)
		for _, o := range t.C.Outputs {
			req, ok := required[o.ID]
			if !ok {
				continue
			}
			if slack := req - arr[o.ID]; slack < worstSlack-1e-12 {
				worstSlack = slack
				worst = o
			}
		}
		if worst == nil {
			res.Met = true
			return res
		}
		if !t.upsizeOnPath(worst, &res) {
			// No further sizing available on the failing path.
			return res
		}
	}
	// Budget exhausted; report current state.
	arr := t.endpointArrivals(p, scheme, latch)
	res.Met = true
	for id, req := range required {
		if arr[id] > req+1e-12 {
			res.Met = false
			break
		}
	}
	return res
}

// endpointArrivals computes arrivals, optionally latch-aware.
func (t *Tool) endpointArrivals(p *netlist.Placement, scheme clocking.Scheme, latch cell.Latch) map[int]float64 {
	tm := t.Timing()
	out := make(map[int]float64, len(t.C.Outputs))
	if p == nil {
		for _, o := range t.C.Outputs {
			out[o.ID] = tm.Arrival(o)
		}
		return out
	}
	la := sta.AnalyzeLatched(tm, p, scheme, latch)
	for _, o := range t.C.Outputs {
		out[o.ID] = la.EndpointArrival(o)
	}
	return out
}

// upsizeOnPath picks the most effective upsizable gate on the endpoint's
// critical path and upsizes it. Returns false when nothing can improve.
func (t *Tool) upsizeOnPath(endpoint *netlist.Node, res *CompileResult) bool {
	tm := t.Timing()
	path, err := tm.CriticalPathTo(endpoint)
	if err != nil {
		// A broken path query means no safe upsizing target exists.
		return false
	}
	type candidate struct {
		n    *netlist.Node
		gain float64
	}
	var cands []candidate
	for _, n := range path {
		if n.Kind != netlist.KindGate {
			continue
		}
		up := t.C.Lib.Upsize(n.Cell)
		if up == nil {
			continue
		}
		// First-order gain: drive resistance drop times load.
		gain := (n.Cell.Resistance - up.Resistance) * tm.Load(n)
		cands = append(cands, candidate{n: n, gain: gain})
	}
	if len(cands) == 0 {
		return false
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })
	pick := cands[0].n
	up := t.C.Lib.Upsize(pick.Cell)
	res.AreaDelta += up.Area - pick.Cell.Area
	res.Upsized++
	pick.Cell = up
	t.Invalidate()
	return true
}

// LatchTypeSwap flips master latch types by measured timing: endpoints
// arriving within the period become non-error-detecting, later arrivals
// become error-detecting. It returns the ED set and the number of swaps
// relative to the provided current assignment — the virtual-library
// post-retiming step of Section V/VI-C.
func LatchTypeSwap(tm *sta.Timing, p *netlist.Placement, scheme clocking.Scheme, latch cell.Latch, current map[int]bool) (ed map[int]bool, swaps int) {
	la := sta.AnalyzeLatched(tm, p, scheme, latch)
	ed = la.EDMasters()
	for _, o := range tm.C.Outputs {
		if ed[o.ID] != current[o.ID] {
			swaps++
		}
	}
	return ed, swaps
}

// RequiredTimes builds the per-endpoint required-time map from an ED
// assignment: Π for normal masters, Π+φ1 for error-detecting ones.
func RequiredTimes(c *netlist.Circuit, scheme clocking.Scheme, ed map[int]bool) map[int]float64 {
	req := make(map[int]float64, len(c.Outputs))
	for _, o := range c.Outputs {
		if ed[o.ID] {
			req[o.ID] = scheme.MaxStageDelay()
		} else {
			req[o.ID] = scheme.Period()
		}
	}
	return req
}

// FixViolations is the convenience loop the retiming flows share: create
// max-delay constraints for paths ending at non-error-detecting masters
// (required = Π) and error-detecting ones (required = Π+φ1), then run the
// size-only compile against them.
func (t *Tool) FixViolations(p *netlist.Placement, scheme clocking.Scheme, latch cell.Latch, ed map[int]bool) CompileResult {
	req := RequiredTimes(t.C, scheme, ed)
	// Slave latches also need their own setup met; the latched analysis
	// inside SizeOnlyCompile covers endpoints, and slave-side violations
	// surface as endpoint lateness through the D-to-Q propagation, so a
	// single constraint set suffices for the fixup loop.
	return t.SizeOnlyCompile(req, p, scheme, latch, 0)
}

// String describes the tool state briefly.
func (t *Tool) String() string {
	return fmt.Sprintf("synth.Tool{%s: %d gates, model %v}", t.C.Name, t.C.GateCount(), t.Opt.Model)
}

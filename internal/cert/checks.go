package cert

import (
	"fmt"
	"math"
	"sort"

	"relatch/internal/cell"
	"relatch/internal/netlist"
	"relatch/internal/sta"
)

// checkLabels reconstructs retiming labels from the placement and
// verifies Leiserson-Saxe legality, independently of Placement.Validate
// and rgraph (own topological pass, own fanout derivation).
//
// Let L(v) be the number of slave latches crossed on an input→v path.
// In the cut-cloud formulation the initial weights are w=1 on the
// host→input edges and 0 elsewhere, with r(host)=0, so the retimed
// weights are w_r(host→in) = 1 + r(in) = L(in) and w_r(u→v) = r(v) −
// r(u) = lat(u,v), i.e. L(v) = L(u) + lat(u,v) is forced on *every*
// edge and r(v) = L(v) − 1. Labels therefore exist iff L is
// path-independent (code label-inference); they are legal iff L(v) ∈
// {0, 1}, i.e. r(v) ∈ {−1, 0}, and every placement entry names a real
// input/edge (label-legality); and the boundary is pinned iff every
// output has L = 1 — equivalently r(output) = 0 and the weight of every
// host cycle is preserved (label-pinning). Non-negativity w_r(e) ≥ 0
// holds by construction once L is consistent, since w_r(e) is a latch
// count.
func checkLabels(c *netlist.Circuit, p *netlist.Placement) ([]Finding, error) {
	var fs []Finding
	add := func(code string, n *netlist.Node, format string, args ...any) {
		f := Finding{Check: "labels", Code: code, Message: fmt.Sprintf(format, args...)}
		if n != nil {
			f.Node = n.Name
			f.Pos = n.Pos
		}
		fs = append(fs, f)
	}

	// Placement domain: entries must name real inputs and real edges.
	inputSet := make(map[int]bool, len(c.Inputs))
	for _, in := range c.Inputs {
		inputSet[in.ID] = true
	}
	edgeSet := make(map[netlist.Edge]bool)
	fanout := make([][]int, len(c.Nodes))
	indeg := make([]int, len(c.Nodes))
	for _, n := range c.Nodes {
		indeg[n.ID] = len(n.Fanin)
		for _, f := range n.Fanin {
			if f == nil {
				return nil, fmt.Errorf("node %q has a nil fanin", n.Name)
			}
			edgeSet[netlist.Edge{From: f.ID, To: n.ID}] = true
			fanout[f.ID] = append(fanout[f.ID], n.ID)
		}
	}
	for _, id := range sortedTrueKeys(p.AtInput) {
		if id < 0 || id >= len(c.Nodes) || !inputSet[id] {
			add(CodeLabelLegality, nodeAt(c, id), "slave latch recorded at node %d, which is not a cloud input", id)
		}
	}
	onEdges := make([]netlist.Edge, 0, len(p.OnEdge))
	for e, v := range p.OnEdge {
		if v {
			onEdges = append(onEdges, e)
		}
	}
	sort.Slice(onEdges, func(i, j int) bool {
		if onEdges[i].From != onEdges[j].From {
			return onEdges[i].From < onEdges[j].From
		}
		return onEdges[i].To < onEdges[j].To
	})
	for _, e := range onEdges {
		if !edgeSet[e] {
			add(CodeLabelLegality, nodeAt(c, e.To), "slave latch recorded on edge %v, which does not exist in the circuit", e)
		}
	}

	// Own Kahn pass (the circuit's cached topo may be stale after
	// in-place edits; a certifier must not inherit that trust).
	order := make([]int, 0, len(c.Nodes))
	queue := make([]int, 0, len(c.Nodes))
	deg := make([]int, len(c.Nodes))
	copy(deg, indeg)
	for _, n := range c.Nodes {
		if deg[n.ID] == 0 {
			queue = append(queue, n.ID)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range fanout[id] {
			deg[s]--
			if deg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(c.Nodes) {
		return nil, fmt.Errorf("combinational cycle in the retimed circuit")
	}

	const unset = -1
	L := make([]int, len(c.Nodes))
	for i := range L {
		L[i] = unset
	}
	lat := func(u, v int) int {
		if p.OnEdge[netlist.Edge{From: u, To: v}] {
			return 1
		}
		return 0
	}
	for _, id := range order {
		n := c.Nodes[id]
		if n.Kind == netlist.KindInput {
			L[id] = 0
			if p.AtInput[id] {
				L[id] = 1
			}
			continue
		}
		lo, hi := math.MaxInt, math.MinInt
		for _, f := range n.Fanin {
			if L[f.ID] == unset {
				continue
			}
			cand := L[f.ID] + lat(f.ID, id)
			lo = min(lo, cand)
			hi = max(hi, cand)
		}
		if hi == math.MinInt {
			continue // unreachable from any input; outputs flagged below
		}
		if lo != hi {
			add(CodeLabelInference, n,
				"input paths cross between %d and %d slave latches; no retiming labels satisfy w_r(e) = w(e) + r(v) - r(u) on all edges", lo, hi)
		}
		L[id] = lo
	}
	for _, id := range order {
		n := c.Nodes[id]
		if L[id] != unset && (L[id] < 0 || L[id] > 1) {
			add(CodeLabelLegality, n, "inferred label r = %d outside the legal range {-1, 0}", L[id]-1)
		}
	}
	for _, o := range c.Outputs {
		switch {
		case L[o.ID] == unset:
			add(CodeLabelPinning, o, "output unreachable from any cloud input; its label cannot be pinned")
		case L[o.ID] != 1:
			add(CodeLabelPinning, o,
				"paths to this output cross %d slave latches, want exactly 1 (r pinned to 0 on the boundary; host cycle weight must be preserved)", L[o.ID])
		}
	}
	return fs, nil
}

// checkEDL re-derives error-detecting status from scratch: a fresh
// static-timing pass over the retimed circuit, latch-aware arrivals
// under the certified placement, and a comparison of the claimed ED set
// against the recompute and against the resiliency window.
func checkEDL(s Subject, cfg Config) ([]Finding, error) {
	var fs []Finding
	add := func(code string, n *netlist.Node, format string, args ...any) {
		f := Finding{Check: "edl", Code: code, Message: fmt.Sprintf(format, args...)}
		if n != nil {
			f.Node = n.Name
			f.Pos = n.Pos
		}
		fs = append(fs, f)
	}

	opts := sta.DefaultOptions(s.Retimed.Lib)
	if s.StaOptions != nil {
		opts = *s.StaOptions
	}
	t, err := sta.AnalyzeChecked(s.Retimed, opts)
	if err != nil {
		return nil, err
	}
	la := sta.AnalyzeLatched(t, s.Placement, s.Scheme, s.Latch)
	recomputed := la.EDMasters()
	claimed := trueSet(s.EDMasters)
	period := s.Scheme.Period()

	isOutput := make(map[int]bool, len(s.Retimed.Outputs))
	for _, o := range s.Retimed.Outputs {
		isOutput[o.ID] = true
	}
	for _, id := range sortedTrueKeys(claimed) {
		if !isOutput[id] {
			add(CodeEDLMismatch, nodeAt(s.Retimed, id),
				"claimed error-detecting node %d is not a master endpoint", id)
			continue
		}
		o := s.Retimed.Nodes[id]
		if !recomputed[id] && !cfg.EDSuperset {
			add(CodeEDLMismatch, o,
				"claimed error-detecting, but recomputed arrival %.4g does not exceed the period %.4g", la.EndpointArrival(o), period)
		}
	}
	for _, id := range sortedTrueKeys(recomputed) {
		if !claimed[id] {
			o := s.Retimed.Nodes[id]
			add(CodeEDLMismatch, o,
				"recomputed arrival %.4g exceeds the period %.4g, but the master is not claimed error-detecting", la.EndpointArrival(o), period)
		}
	}
	for _, o := range la.WindowMasters() {
		if !claimed[o.ID] {
			add(CodeEDLWindow, o,
				"arrival %.4g falls inside the resiliency window (%.4g, %.4g] without error detection", la.EndpointArrival(o), period, s.Scheme.MaxStageDelay())
		}
	}
	for _, id := range sortedTrueKeys(s.Reclaimed) {
		if !cfg.StrictReclaim {
			break
		}
		if recomputed[id] && isOutput[id] {
			o := s.Retimed.Nodes[id]
			add(CodeEDLReclaim, o,
				"solver claimed the -c reclaim reward for this master, but ground-truth arrival %.4g makes it error-detecting", la.EndpointArrival(o))
		}
	}
	return fs, nil
}

// checkCost recounts the claimed accounting figures. Counts are
// recounted from the placement and circuit; the claimed sequential area
// is re-derived from the *claimed* counts through cell.SeqAreaOf, so an
// arithmetic error surfaces as cost even when the counts themselves are
// consistent (and vice versa).
func checkCost(s Subject) []Finding {
	var fs []Finding
	add := func(code, format string, args ...any) {
		fs = append(fs, Finding{Check: "cost", Code: code, Message: fmt.Sprintf(format, args...)})
	}

	if got := s.Placement.SlaveCount(); s.SlaveCount != got {
		add(CodeCount, "claimed %d slave latches, placement recount says %d", s.SlaveCount, got)
	}
	if got := s.Retimed.FlopCount(); s.MasterCount != got {
		add(CodeCount, "claimed %d master latches, circuit recount says %d", s.MasterCount, got)
	}
	if got := len(trueSet(s.EDMasters)); s.EDCount != got {
		add(CodeCount, "claimed %d error-detecting masters, claimed set holds %d", s.EDCount, got)
	}

	if math.IsNaN(s.Objective) || math.IsInf(s.Objective, 0) {
		add(CodeCost, "claimed objective %g is not finite", s.Objective)
	}
	want := cell.SeqAreaOf(s.Retimed.Lib, s.EDLCost, s.SlaveCount, s.MasterCount, s.EDCount)
	if math.IsNaN(s.SeqArea) || math.IsInf(s.SeqArea, 0) ||
		math.Abs(s.SeqArea-want) > costEpsilon*math.Max(1, math.Abs(want)) {
		add(CodeCost, "claimed sequential area %.6g differs from re-derived %.6g (c=%g, slaves=%d, masters=%d, ed=%d)",
			s.SeqArea, want, s.EDLCost, s.SlaveCount, s.MasterCount, s.EDCount)
	}
	return fs
}

// sortedTrueKeys returns the keys mapped to true, ascending, for
// deterministic finding order.
func sortedTrueKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for id, v := range m {
		if v {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// nodeAt returns the node with the given ID when it exists, else nil
// (findings about out-of-range IDs carry no node).
func nodeAt(c *netlist.Circuit, id int) *netlist.Node {
	if id >= 0 && id < len(c.Nodes) {
		return c.Nodes[id]
	}
	return nil
}

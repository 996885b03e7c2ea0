// Package exact is a brute-force retiming oracle for small circuits: it
// enumerates every legal retiming assignment r ∈ {−1,0}^V and returns the
// one minimizing the paper's objective (slave latches plus c per
// error-detecting master, under the graph model's target classification).
// It exists purely to validate the flow-based solver — property tests
// compare the two on hundreds of random circuits.
package exact

import (
	"fmt"
	"math"

	"relatch/internal/netlist"
	"relatch/internal/rgraph"
)

// Best is the result of an exhaustive search.
type Best struct {
	R    map[int]int
	Cost float64 // slaves + c·(model-ED masters), in latch units
	N    int     // legal assignments examined
}

// maxFreeNodes bounds the enumeration to keep the oracle tractable.
const maxFreeNodes = 22

// Enumerate visits every legal retiming assignment (respecting the
// graph's regions, per-edge legality and w_r ≥ 0) exactly once.
func Enumerate(g *rgraph.Graph, visit func(r map[int]int)) error {
	var free []*netlist.Node
	r := make(map[int]int)
	for _, n := range g.C.Nodes {
		switch {
		case g.Vm[n.ID]:
			r[n.ID] = -1
		case g.Vn[n.ID] || n.Kind == netlist.KindOutput:
			r[n.ID] = 0
		default:
			free = append(free, n)
		}
	}
	if len(free) > maxFreeNodes {
		return fmt.Errorf("exact: %d free nodes exceeds the oracle limit %d", len(free), maxFreeNodes)
	}
	total := 1 << len(free)
	for bits := 0; bits < total; bits++ {
		for i, n := range free {
			if bits>>i&1 == 1 {
				r[n.ID] = -1
			} else {
				r[n.ID] = 0
			}
		}
		if !legal(g, r) {
			continue
		}
		visit(r)
	}
	return nil
}

// Search enumerates legal retimings of the graph's circuit and keeps the
// model-cost optimum: c for every AlwaysED endpoint and for every Target
// endpoint whose cut set g(t) is not fully retimed — the same model the
// LP of Eq. (10) optimizes, so the two must agree exactly.
func Search(g *rgraph.Graph) (*Best, error) {
	best := &Best{Cost: math.Inf(1)}
	err := Enumerate(g, func(r map[int]int) {
		cost := modelCost(g, r)
		best.N++
		if cost < best.Cost {
			best.Cost = cost
			best.R = copyR(r)
		}
	})
	if err != nil {
		return nil, err
	}
	if best.R == nil {
		return nil, fmt.Errorf("exact: no legal retiming exists")
	}
	return best, nil
}

// SearchSlaves returns the minimum physical slave-latch count over all
// legal retimings — the objective of base (resiliency-unaware) min-area
// retiming.
func SearchSlaves(g *rgraph.Graph) (*Best, error) {
	best := &Best{Cost: math.Inf(1)}
	err := Enumerate(g, func(r map[int]int) {
		p := netlist.FromRetiming(g.C, r)
		cost := float64(p.SlaveCount())
		best.N++
		if cost < best.Cost {
			best.Cost = cost
			best.R = copyR(r)
		}
	})
	if err != nil {
		return nil, err
	}
	if best.R == nil {
		return nil, fmt.Errorf("exact: no legal retiming exists")
	}
	return best, nil
}

// legal checks w_r(e) ≥ 0 on every edge (no internal edge may run from a
// stay-put node into a retimed node) and rejects latches on edges the
// timing constraints (6)/(7) forbid.
func legal(g *rgraph.Graph, r map[int]int) bool {
	for _, e := range g.C.Edges() {
		// All in-cloud edges have initial weight 0; the host→input
		// edges (weight 1) satisfy 1 + r(i) ≥ 0 for any r(i) ≥ −1.
		w := -int64(r[e.From]) + int64(r[e.To])
		if w < 0 {
			return false
		}
		if w == 1 && !g.EdgeAllowed(g.C.Nodes[e.From], g.C.Nodes[e.To]) {
			return false
		}
	}
	for _, in := range g.C.Inputs {
		if r[in.ID] == 0 && !g.InputAllowed(in) {
			return false
		}
	}
	return true
}

// ModelCost scores an assignment under the graph model: physical slave
// latches (with fanout sharing) plus c per error-detecting master.
func modelCost(g *rgraph.Graph, r map[int]int) float64 {
	p := netlist.FromRetiming(g.C, r)
	cost := float64(p.SlaveCount())
	for _, o := range g.C.Outputs {
		switch g.Class[o.ID] {
		case rgraph.AlwaysED:
			cost += g.Cfg.EDLCost
		case rgraph.Target:
			if !reclaimed(g, o.ID, r) {
				cost += g.Cfg.EDLCost
			}
		}
	}
	return cost
}

// ModelCost exposes the model scoring for tests.
func ModelCost(g *rgraph.Graph, r map[int]int) float64 { return modelCost(g, r) }

// reclaimed reports whether every gate of g(t) has been retimed through,
// freeing master t from error detection in the model.
func reclaimed(g *rgraph.Graph, target int, r map[int]int) bool {
	cut := g.CutSet(target)
	for _, gid := range cut {
		if r[gid] != -1 {
			return false
		}
	}
	return len(cut) > 0
}

func copyR(r map[int]int) map[int]int {
	out := make(map[int]int, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

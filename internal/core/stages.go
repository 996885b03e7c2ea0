package core

import (
	"context"
	"fmt"
	"sort"

	"relatch/internal/netlist"
)

// Components partitions the cut cloud into connected components (over
// the undirected connectivity of its edges). Section III observes that
// "each pipeline stage can be retimed independently without any loss of
// optimality"; since stages that share logic must be solved together,
// the connected component is exactly the independent unit. Each returned
// slice holds original node IDs, sorted.
func Components(c *netlist.Circuit) [][]int {
	parent := make([]int, len(c.Nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, n := range c.Nodes {
		for _, f := range n.Fanin {
			union(n.ID, f.ID)
		}
	}
	groups := make(map[int][]int)
	for _, n := range c.Nodes {
		r := find(n.ID)
		groups[r] = append(groups[r], n.ID)
	}
	var roots []int
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		ids := groups[r]
		sort.Ints(ids)
		out = append(out, ids)
	}
	return out
}

// extractComponent builds a standalone circuit from the component's node
// IDs, returning it plus the mapping from new node IDs back to original.
func extractComponent(c *netlist.Circuit, ids []int) (*netlist.Circuit, []int, error) {
	inComp := make(map[int]bool, len(ids))
	for _, id := range ids {
		inComp[id] = true
	}
	b := netlist.NewBuilder(fmt.Sprintf("%s.comp%d", c.Name, ids[0]), c.Lib)
	newOf := make(map[int]*netlist.Node, len(ids))
	var backMap []int
	for _, n := range c.Topo() {
		if !inComp[n.ID] {
			continue
		}
		var nn *netlist.Node
		switch n.Kind {
		case netlist.KindInput:
			nn = b.Input(n.Name, n.Flop)
		case netlist.KindGate:
			fanin := make([]*netlist.Node, len(n.Fanin))
			for i, f := range n.Fanin {
				fanin[i] = newOf[f.ID]
			}
			nn = b.Gate(n.Name, n.Cell, fanin...)
		case netlist.KindOutput:
			nn = b.Output(n.Name, n.Flop, newOf[n.Fanin[0].ID])
		}
		newOf[n.ID] = nn
		backMap = append(backMap, n.ID)
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, backMap, nil
}

// RetimeByComponents solves each connected component separately and
// merges the placements — identical results to the whole-circuit solve
// (the LP decomposes over components) at lower peak cost, the practical
// consequence of the paper's per-stage independence argument.
func RetimeByComponents(c *netlist.Circuit, opt Options, approach Approach) (*Result, error) {
	if err := opt.Scheme.Validate(); err != nil {
		return nil, err
	}
	if opt.FixedDelays != nil {
		return nil, fmt.Errorf("core: %w: RetimeByComponents does not support fixed delays (node IDs are remapped)", ErrBadInput)
	}
	comps := Components(c)
	merged := netlist.NewPlacement()
	for _, ids := range comps {
		sub, backMap, err := extractComponent(c, ids)
		if err != nil {
			return nil, err
		}
		res, err := Retime(sub, opt, approach)
		if err != nil {
			return nil, fmt.Errorf("core: component of %s: %w", c.Nodes[ids[0]].Name, err)
		}
		for id, latched := range res.Placement.AtInput {
			if latched {
				merged.AtInput[backMap[id]] = true
			}
		}
		for e, latched := range res.Placement.OnEdge {
			if latched {
				merged.OnEdge[netlist.Edge{From: backMap[e.From], To: backMap[e.To]}] = true
			}
		}
	}
	if err := merged.Validate(c); err != nil {
		return nil, fmt.Errorf("core: merged component placement: %w", err)
	}
	return evaluate(context.Background(), c, opt, approach.String(), merged, slaveLatch(c, opt)), nil
}

package rgraph

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteDOT renders the modified retiming graph in Graphviz DOT form, in
// the visual language of the paper's Fig. 5: the original retiming nodes
// and edges (V1/E1) in blue — host node, gate nodes, fanout-sharing
// mirror nodes m_u — and the resiliency extension (V2/E2) in red — one
// pseudo node P(t) per target master with its g(t) edges and the −c
// reward edge back to the host. Edge labels carry the initial weights
// w(e); region membership is encoded in the node shapes.
func (g *Graph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph retiming {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [fontsize=10];\n")
	b.WriteString("  host [shape=doublecircle, color=blue];\n")

	quote := func(s string) string { return fmt.Sprintf("%q", s) }
	for _, n := range g.C.Nodes {
		shape := "ellipse"
		switch {
		case g.Vm[n.ID]:
			shape = "invtriangle" // must retime through
		case g.Vn[n.ID]:
			shape = "box" // must not pass
		}
		fmt.Fprintf(&b, "  %s [shape=%s, color=blue];\n", quote(n.Name), shape)
	}
	var mirrors []int
	for id := range g.mirrorOf {
		mirrors = append(mirrors, id)
	}
	sort.Ints(mirrors)
	for _, id := range mirrors {
		fmt.Fprintf(&b, "  %s [shape=diamond, color=blue, label=%s];\n",
			quote("m_"+g.C.Nodes[id].Name), quote("m_"+g.C.Nodes[id].Name))
	}
	var pseudos []int
	for id := range g.pseudoOf {
		pseudos = append(pseudos, id)
	}
	sort.Ints(pseudos)
	for _, id := range pseudos {
		fmt.Fprintf(&b, "  %s [shape=octagon, color=red, label=%s];\n",
			quote("P_"+g.C.Nodes[id].Name), quote("P("+g.C.Nodes[id].Name+")"))
	}

	// E1: host→inputs (w=1), internal edges (w=0), outputs→host.
	for _, in := range g.C.Inputs {
		fmt.Fprintf(&b, "  host -> %s [color=blue, label=\"w=1\"];\n", quote(in.Name))
	}
	for _, e := range g.C.Edges() {
		fmt.Fprintf(&b, "  %s -> %s [color=blue];\n",
			quote(g.C.Nodes[e.From].Name), quote(g.C.Nodes[e.To].Name))
	}
	for _, o := range g.C.Outputs {
		fmt.Fprintf(&b, "  %s -> host [color=blue, style=dashed];\n", quote(o.Name))
	}
	// Mirror edges.
	for _, id := range mirrors {
		n := g.C.Nodes[id]
		seen := map[int]bool{}
		for _, f := range n.Fanout {
			if seen[f.ID] {
				continue
			}
			seen[f.ID] = true
			fmt.Fprintf(&b, "  %s -> %s [color=blue, style=dotted];\n",
				quote(f.Name), quote("m_"+n.Name))
		}
	}
	// E2: g(t) → P(t) → host with the −c reward.
	for _, id := range pseudos {
		for _, gid := range g.CutSet(id) {
			fmt.Fprintf(&b, "  %s -> %s [color=red];\n",
				quote(g.C.Nodes[gid].Name), quote("P_"+g.C.Nodes[id].Name))
		}
		fmt.Fprintf(&b, "  %s -> host [color=red, label=\"-c=%g\"];\n",
			quote("P_"+g.C.Nodes[id].Name), g.Cfg.EDLCost)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

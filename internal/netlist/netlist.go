// Package netlist holds the gate-level circuit model used throughout the
// repository. Following Section III of the paper, a sequential circuit is
// *cut at its flip-flops*: every flip-flop is converted into a fixed master
// latch and a retimable slave latch, and the resulting combinational cloud
// is represented as a DAG whose sources are master-latch outputs and whose
// sinks are master-latch inputs. Slave latches live on edges of this cloud
// (initially at the cloud inputs) and are repositioned by retiming.
package netlist

import (
	"fmt"
	"sort"

	"relatch/internal/cell"
)

// Pos is a source position (file:line:col) attached to circuit elements
// parsed from a netlist file, so diagnostics can point back at the
// declaration that introduced a net or instance. The zero value means
// "no source position" (programmatically built circuits).
type Pos struct {
	File string
	Line int // 1-based; 0 means unknown
	Col  int // 1-based; 0 means unknown
}

// IsZero reports whether the position carries no source information.
func (p Pos) IsZero() bool { return p.File == "" && p.Line == 0 && p.Col == 0 }

// String renders "file:line:col", omitting unknown parts.
func (p Pos) String() string {
	switch {
	case p.IsZero():
		return ""
	case p.File == "":
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	case p.Line == 0:
		return p.File
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// NodeKind classifies nodes of the cut combinational cloud.
type NodeKind int

const (
	// KindInput is a cloud source: the Q output of a fixed master latch.
	KindInput NodeKind = iota
	// KindGate is a combinational gate.
	KindGate
	// KindOutput is a cloud sink: the D input of a fixed master latch.
	KindOutput
)

func (k NodeKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindGate:
		return "gate"
	case KindOutput:
		return "output"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is one vertex of the cut cloud. Inputs have no fanin; outputs have
// exactly one fanin and no fanout; gates have Cell.Func.Arity() fanins.
type Node struct {
	ID   int
	Name string
	Kind NodeKind

	// Pos is the source position of the declaration this node came from,
	// when the circuit was parsed from a netlist file; zero otherwise.
	Pos Pos

	// Cell is the bound library cell; nil for inputs and outputs.
	Cell *cell.Cell

	// Fanin lists driver nodes in pin order; Fanout is derived by Build.
	Fanin  []*Node
	Fanout []*Node

	// Flop is the index of the master latch this input or output node
	// belongs to, or -1 for gates. An input and an output node with the
	// same Flop index are the Q and D sides of the same pipeline
	// register boundary only when the circuit was built from a
	// flip-flop design in which that flop's Q feeds logic and its D is
	// driven by logic; the two sides are otherwise independent.
	Flop int
}

// Edge identifies a directed connection between two nodes by ID. A pair of
// nodes is treated as a single edge even if it spans several pins, because
// a slave latch placed on the connection is shared by all of them.
type Edge struct {
	From, To int
}

func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.From, e.To) }

// Circuit is a cut combinational cloud plus its master-latch boundary.
type Circuit struct {
	Name string
	Lib  *cell.Library

	// Nodes is indexed by Node.ID. Inputs and Outputs alias into it.
	Nodes   []*Node
	Inputs  []*Node
	Outputs []*Node

	topo []*Node // cached topological order over all nodes
}

// Builder incrementally constructs a Circuit and validates it on Build.
type Builder struct {
	c      *Circuit
	byName map[string]*Node
	err    error
}

// NewBuilder starts a circuit with the given name and library.
func NewBuilder(name string, lib *cell.Library) *Builder {
	return &Builder{
		c:      &Circuit{Name: name, Lib: lib},
		byName: make(map[string]*Node),
	}
}

func (b *Builder) add(n *Node) *Node {
	if b.err == nil {
		if _, dup := b.byName[n.Name]; dup {
			b.err = fmt.Errorf("netlist: duplicate node name %q", n.Name)
			return n
		}
		b.byName[n.Name] = n
	}
	n.ID = len(b.c.Nodes)
	b.c.Nodes = append(b.c.Nodes, n)
	return n
}

// Input adds a cloud source (a master latch Q pin). flop associates the
// node with a master latch index; pass a fresh index per master.
func (b *Builder) Input(name string, flop int) *Node {
	n := b.add(&Node{Name: name, Kind: KindInput, Flop: flop})
	b.c.Inputs = append(b.c.Inputs, n)
	return n
}

// Gate adds a combinational gate bound to the given cell, with fanins in
// pin order.
func (b *Builder) Gate(name string, c *cell.Cell, fanin ...*Node) *Node {
	if b.err == nil && c == nil {
		b.err = fmt.Errorf("netlist: gate %q has no cell", name)
	}
	if b.err == nil && c != nil && len(fanin) != c.Func.Arity() {
		b.err = fmt.Errorf("netlist: gate %q: cell %s wants %d fanins, got %d",
			name, c.Name, c.Func.Arity(), len(fanin))
	}
	return b.add(&Node{Name: name, Kind: KindGate, Cell: c, Fanin: fanin, Flop: -1})
}

// Output adds a cloud sink (a master latch D pin) driven by from.
func (b *Builder) Output(name string, flop int, from *Node) *Node {
	n := b.add(&Node{Name: name, Kind: KindOutput, Flop: flop, Fanin: []*Node{from}})
	b.c.Outputs = append(b.c.Outputs, n)
	return n
}

// Build finalizes the circuit: derives fanouts, checks the graph is a DAG
// with well-formed boundary nodes, and caches a topological order.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	c := b.c
	for _, n := range c.Nodes {
		for _, f := range n.Fanin {
			if f == nil {
				return nil, fmt.Errorf("netlist: %s %q has a nil fanin", n.Kind, n.Name)
			}
			if f.Kind == KindOutput {
				return nil, fmt.Errorf("netlist: output %q fans out to %q", f.Name, n.Name)
			}
			f.Fanout = append(f.Fanout, n)
		}
		if n.Kind == KindInput && len(n.Fanin) != 0 {
			return nil, fmt.Errorf("netlist: input %q has fanin", n.Name)
		}
	}
	topo, err := c.computeTopo()
	if err != nil {
		return nil, err
	}
	c.topo = topo
	return c, nil
}

// computeTopo returns a topological order or an error naming a cycle node.
func (c *Circuit) computeTopo() ([]*Node, error) {
	indeg := make([]int, len(c.Nodes))
	for _, n := range c.Nodes {
		indeg[n.ID] = len(n.Fanin)
	}
	queue := make([]*Node, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		if indeg[n.ID] == 0 {
			queue = append(queue, n)
		}
	}
	order := make([]*Node, 0, len(c.Nodes))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, f := range n.Fanout {
			indeg[f.ID]--
			if indeg[f.ID] == 0 {
				queue = append(queue, f)
			}
		}
	}
	if len(order) != len(c.Nodes) {
		for _, n := range c.Nodes {
			if indeg[n.ID] > 0 {
				return nil, fmt.Errorf("netlist: combinational cycle through %q", n.Name)
			}
		}
	}
	return order, nil
}

// Topo returns the cached topological order (inputs first).
func (c *Circuit) Topo() []*Node { return c.topo }

// Node looks a node up by name; the second result reports existence.
func (c *Circuit) Node(name string) (*Node, bool) {
	for _, n := range c.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return nil, false
}

// GateCount returns the number of combinational gates.
func (c *Circuit) GateCount() int {
	count := 0
	for _, n := range c.Nodes {
		if n.Kind == KindGate {
			count++
		}
	}
	return count
}

// FlopCount returns the number of distinct master latch indices on the
// circuit boundary. For a flip-flop design cut at its flops, this is the
// original flop count.
func (c *Circuit) FlopCount() int {
	seen := make(map[int]bool)
	for _, n := range c.Inputs {
		seen[n.Flop] = true
	}
	for _, n := range c.Outputs {
		seen[n.Flop] = true
	}
	return len(seen)
}

// CombArea returns the total area of the combinational gates.
func (c *Circuit) CombArea() float64 {
	area := 0.0
	for _, n := range c.Nodes {
		if n.Kind == KindGate {
			area += n.Cell.Area
		}
	}
	return area
}

// FaninCone returns the fan-in cone of t, t included (FIC(t) in the
// paper), in topological order: every node follows its fanins, and t
// comes last. It is a post-order walk over fanins, so it visits the cone
// and nothing else.
func (c *Circuit) FaninCone(t *Node) []*Node {
	seen := make([]bool, len(c.Nodes))
	var cone []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		seen[n.ID] = true
		for _, f := range n.Fanin {
			if !seen[f.ID] {
				walk(f)
			}
		}
		cone = append(cone, n)
	}
	walk(t)
	return cone
}

// Edges returns every distinct edge of the cloud in a stable order.
func (c *Circuit) Edges() []Edge {
	seen := make(map[Edge]bool)
	var out []Edge
	for _, n := range c.topo {
		for _, f := range n.Fanin {
			e := Edge{From: f.ID, To: n.ID}
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// LogicDepth returns the maximum number of gates on any input→output path.
func (c *Circuit) LogicDepth() int {
	depth := make([]int, len(c.Nodes))
	maxDepth := 0
	for _, n := range c.topo {
		d := 0
		for _, f := range n.Fanin {
			if depth[f.ID] > d {
				d = depth[f.ID]
			}
		}
		if n.Kind == KindGate {
			d++
		}
		depth[n.ID] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	return maxDepth
}

// Clone deep-copies the circuit structure. Cell bindings are shared (the
// library is immutable) but may be swapped per-gate afterwards, which is
// what the size-only incremental compile does.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{Name: c.Name, Lib: c.Lib}
	out.Nodes = make([]*Node, len(c.Nodes))
	for i, n := range c.Nodes {
		out.Nodes[i] = &Node{
			ID: n.ID, Name: n.Name, Kind: n.Kind, Cell: n.Cell, Flop: n.Flop,
			Pos: n.Pos,
		}
	}
	for i, n := range c.Nodes {
		cn := out.Nodes[i]
		cn.Fanin = make([]*Node, len(n.Fanin))
		for p, f := range n.Fanin {
			cn.Fanin[p] = out.Nodes[f.ID]
		}
		cn.Fanout = make([]*Node, len(n.Fanout))
		for p, f := range n.Fanout {
			cn.Fanout[p] = out.Nodes[f.ID]
		}
	}
	out.Inputs = make([]*Node, len(c.Inputs))
	for i, n := range c.Inputs {
		out.Inputs[i] = out.Nodes[n.ID]
	}
	out.Outputs = make([]*Node, len(c.Outputs))
	for i, n := range c.Outputs {
		out.Outputs[i] = out.Nodes[n.ID]
	}
	out.topo = make([]*Node, len(c.topo))
	for i, n := range c.topo {
		out.topo[i] = out.Nodes[n.ID]
	}
	return out
}

// Validate re-checks structural invariants; it is cheap and intended for
// use in tests and after in-place edits such as gate resizing.
func (c *Circuit) Validate() error {
	for _, n := range c.Nodes {
		switch n.Kind {
		case KindInput:
			if len(n.Fanin) != 0 {
				return fmt.Errorf("netlist: input %q has fanin", n.Name)
			}
		case KindOutput:
			if len(n.Fanin) != 1 {
				return fmt.Errorf("netlist: output %q has %d fanins", n.Name, len(n.Fanin))
			}
			if len(n.Fanout) != 0 {
				return fmt.Errorf("netlist: output %q has fanout", n.Name)
			}
		case KindGate:
			if n.Cell == nil {
				return fmt.Errorf("netlist: gate %q has no cell", n.Name)
			}
			if len(n.Fanin) != n.Cell.Func.Arity() {
				return fmt.Errorf("netlist: gate %q fanin/arity mismatch", n.Name)
			}
		}
	}
	_, err := c.computeTopo()
	return err
}

// Package sta is the static timing engine. It provides the quantities the
// retiming formulation of the paper is built on:
//
//   - D^f(u): the maximum delay from any master launch to the output of
//     gate u (forward arrival),
//   - D^b(v,t): the maximum delay from a slave latch at the output of
//     gate v to the target master t (backward delay),
//   - A(u,v,t): Eq. (5), the arrival at t with a slave latch on edge (u,v),
//
// under three delay models: a path-based model with pin-to-pin delays,
// load and slew dependence (the journal paper's model, Section VI-B); a
// conservative gate-based model using fixed worst-case cell delays (the
// original DAC paper's model, used as the Table II baseline); and a fixed
// per-node model used for the worked example of Fig. 4 and in tests.
package sta

import (
	"context"
	"fmt"
	"math"

	"relatch/internal/cell"
	"relatch/internal/clocking"
	"relatch/internal/netlist"
	"relatch/internal/obs"
)

// Model selects how edge delays are computed.
type Model int

const (
	// ModelPath computes pin-to-pin delays with load and slew dependence.
	ModelPath Model = iota
	// ModelGate uses a fixed conservative worst-case delay per cell.
	ModelGate
	// ModelFixed uses explicit per-node delays from Options.FixedDelays.
	ModelFixed
)

func (m Model) String() string {
	switch m {
	case ModelPath:
		return "path"
	case ModelGate:
		return "gate"
	case ModelFixed:
		return "fixed"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Options configures an analysis.
type Options struct {
	Model Model

	// FixedDelays maps node ID to d(v) for ModelFixed. Nodes without an
	// entry have zero delay.
	FixedDelays map[int]float64

	// InputSlew is the transition time presented at cloud inputs.
	InputSlew float64
	// WireCapPerFanout adds load per fanout connection.
	WireCapPerFanout float64
	// LaunchDelay is the master latch clock-to-Q added at every input.
	LaunchDelay float64
	// EndpointCap is the load an output node (a master latch D pin)
	// presents to its driver.
	EndpointCap float64
}

// Validate rejects option sets that would poison an analysis: unknown
// models, and negative or non-finite delays, slews, and capacitances
// (which would propagate NaN/−∞ arrivals through every downstream
// constraint).
func (o Options) Validate() error {
	switch o.Model {
	case ModelPath, ModelGate, ModelFixed:
	default:
		return fmt.Errorf("sta: %w: unknown timing model %d", ErrBadInput, int(o.Model))
	}
	check := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("sta: %w: %s = %g, want finite and non-negative", ErrBadInput, name, v)
		}
		return nil
	}
	for name, v := range map[string]float64{
		"InputSlew":        o.InputSlew,
		"WireCapPerFanout": o.WireCapPerFanout,
		"LaunchDelay":      o.LaunchDelay,
		"EndpointCap":      o.EndpointCap,
	} {
		if err := check(name, v); err != nil {
			return err
		}
	}
	for id, d := range o.FixedDelays {
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return fmt.Errorf("sta: %w: fixed delay %g on node %d, want finite and non-negative", ErrBadInput, d, id)
		}
	}
	return nil
}

// DefaultOptions returns path-based options calibrated to the library.
func DefaultOptions(lib *cell.Library) Options {
	return Options{
		Model:            ModelPath,
		InputSlew:        0.010,
		WireCapPerFanout: 0.25,
		LaunchDelay:      lib.BaseLatch.ClkToQ,
		EndpointCap:      lib.BaseLatch.InputCap,
	}
}

// GateOptions returns the conservative gate-delay options used to
// reproduce the "Gate" columns of Table II.
func GateOptions(lib *cell.Library) Options {
	o := DefaultOptions(lib)
	o.Model = ModelGate
	return o
}

// Timing holds the analysis result for one circuit under one option set.
type Timing struct {
	C   *netlist.Circuit
	Opt Options

	arrival []float64 // D^f at every node output
	slew    []float64
	load    []float64
}

// AnalyzeChecked validates the circuit and options before running the
// forward pass — the hardened entry point for externally supplied inputs.
func AnalyzeChecked(c *netlist.Circuit, opt Options) (*Timing, error) {
	if c == nil {
		return nil, fmt.Errorf("sta: %w: nil circuit", ErrBadInput)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return Analyze(c, opt), nil
}

// AnalyzeCtx is Analyze under a context: the pass itself never blocks,
// but when the context carries a tracer the analysis is recorded as an
// "sta.analyze" span with its node count and relaxation count (one
// relaxation per fanin edge of the single topological sweep — the
// quantity retiming literature reports as STA cost).
func AnalyzeCtx(ctx context.Context, c *netlist.Circuit, opt Options) *Timing {
	sp, _ := obs.StartSpan(ctx, "sta.analyze")
	defer sp.End()
	t := Analyze(c, opt)
	if sp.Enabled() {
		sp.Attr("model", opt.Model.String())
		sp.Gauge("nodes", int64(len(c.Nodes)))
		var relaxations int64
		for _, n := range c.Nodes {
			if n.Kind != netlist.KindInput {
				relaxations += int64(len(n.Fanin))
			}
		}
		sp.Add("relaxations", relaxations)
	}
	return t
}

// Analyze runs a full forward timing pass.
func Analyze(c *netlist.Circuit, opt Options) *Timing {
	t := &Timing{
		C:       c,
		Opt:     opt,
		arrival: make([]float64, len(c.Nodes)),
		slew:    make([]float64, len(c.Nodes)),
		load:    make([]float64, len(c.Nodes)),
	}
	// Loads first (purely structural).
	for _, n := range c.Nodes {
		t.load[n.ID] = t.outputLoad(n)
	}
	for _, n := range c.Topo() {
		switch n.Kind {
		case netlist.KindInput:
			t.arrival[n.ID] = opt.LaunchDelay
			t.slew[n.ID] = opt.InputSlew
		case netlist.KindGate, netlist.KindOutput:
			arr := 0.0
			for _, u := range n.Fanin {
				if a := t.arrival[u.ID] + t.EdgeDelay(u, n); a > arr {
					arr = a
				}
			}
			t.arrival[n.ID] = arr
			if n.Kind == netlist.KindGate {
				t.slew[n.ID] = n.Cell.OutputSlew(t.load[n.ID])
			}
		}
	}
	return t
}

// outputLoad returns the capacitive load seen at the output of n.
func (t *Timing) outputLoad(n *netlist.Node) float64 {
	load := 0.0
	for _, f := range n.Fanout {
		switch f.Kind {
		case netlist.KindOutput:
			load += t.Opt.EndpointCap
		default:
			for pin, u := range f.Fanin {
				if u == n {
					load += f.Cell.InputCap
					_ = pin
				}
			}
		}
		load += t.Opt.WireCapPerFanout
	}
	return load
}

// EdgeDelay returns the delay contributed by traversing node v when
// entered from driver u: the pin-to-pin delay of gate v, or zero when v
// is an output node (a master D pin reached by wire).
func (t *Timing) EdgeDelay(u, v *netlist.Node) float64 {
	if v.Kind != netlist.KindGate {
		return 0
	}
	switch t.Opt.Model {
	case ModelFixed:
		return t.Opt.FixedDelays[v.ID]
	case ModelGate:
		return v.Cell.WorstDelay()
	}
	worst := 0.0
	for pin, f := range v.Fanin {
		if f != u {
			continue
		}
		if d := v.Cell.Delay(pin, t.load[v.ID], t.slew[u.ID]); d > worst {
			worst = d
		}
	}
	return worst
}

// Df returns the forward arrival D^f at the output of n.
func (t *Timing) Df(n *netlist.Node) float64 { return t.arrival[n.ID] }

// Load returns the capacitive load at the output of n.
func (t *Timing) Load(n *netlist.Node) float64 { return t.load[n.ID] }

// Arrival returns the data arrival time at an endpoint (output node),
// with no slave latches in the path — the flip-flop design view used for
// the near-critical-endpoint counts of Table I.
func (t *Timing) Arrival(o *netlist.Node) float64 { return t.arrival[o.ID] }

// BackwardMap computes D^b(v, target) for every node v in the fan-in cone
// of target, indexed by node ID; entries outside the cone are NaN.
// D^b(v,t) is the maximum delay from the *output* of v to t, so a node
// directly driving the target has D^b = 0.
func (t *Timing) BackwardMap(target *netlist.Node) []float64 {
	db := make([]float64, len(t.C.Nodes))
	for i := range db {
		db[i] = math.NaN()
	}
	t.BackwardCone(t.C.FaninCone(target), db)
	return db
}

// BackwardCone is BackwardMap's recursion over a cone from
// Circuit.FaninCone, written into a caller-owned map: it sets db[v.ID]
// for every node v of the cone and touches no other entry. Entries
// outside the cone must be NaN, which is how it tells a fanout outside
// the cone; a caller reusing db across targets resets the cone's entries
// to NaN afterwards. The walk is over the cone alone, fanouts first.
func (t *Timing) BackwardCone(cone []*netlist.Node, db []float64) {
	target := cone[len(cone)-1]
	db[target.ID] = 0
	for i := len(cone) - 2; i >= 0; i-- {
		n := cone[i]
		best := math.Inf(-1)
		for _, f := range n.Fanout {
			if math.IsNaN(db[f.ID]) {
				continue
			}
			if d := t.EdgeDelay(n, f) + db[f.ID]; d > best {
				best = d
			}
		}
		db[n.ID] = best
	}
}

// DbMax computes, for every node v, the maximum D^b(v,t) over all
// endpoints t in a single backward pass. It determines the region V_m
// (constraint (7)) without per-target maps.
func (t *Timing) DbMax() []float64 {
	db := make([]float64, len(t.C.Nodes))
	for i := range db {
		db[i] = math.Inf(-1)
	}
	for _, o := range t.C.Outputs {
		db[o.ID] = 0
	}
	topo := t.C.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		if n.Kind == netlist.KindOutput {
			continue
		}
		for _, f := range n.Fanout {
			if math.IsInf(db[f.ID], -1) {
				continue
			}
			if d := t.EdgeDelay(n, f) + db[f.ID]; d > db[n.ID] {
				db[n.ID] = d
			}
		}
	}
	return db
}

// A computes Eq. (5): the arrival time at target when a slave latch sits
// on edge (u,v), given the backward map of the target and the slave latch
// cell:
//
//	A(u,v,t) = max{φ1+γ1+ClkToQ, D^f(u)+DToQ} + d(v) + D^b(v,t)
func (t *Timing) A(u, v *netlist.Node, db []float64, s clocking.Scheme, l cell.Latch) float64 {
	if math.IsNaN(db[v.ID]) {
		return math.NaN()
	}
	launch := s.SlaveOpen() + l.ClkToQ
	if d := t.arrival[u.ID] + l.DToQ; d > launch {
		launch = d
	}
	return launch + t.EdgeDelay(u, v) + db[v.ID]
}

// NearCritical returns the endpoints whose flip-flop-design arrival
// exceeds the period Π — the NCE count of Table I and the endpoints that
// must be error-detecting before retiming.
func (t *Timing) NearCritical(s clocking.Scheme) []*netlist.Node {
	var out []*netlist.Node
	for _, o := range t.C.Outputs {
		if t.arrival[o.ID] > s.Period() {
			out = append(out, o)
		}
	}
	return out
}

// CriticalPathTo walks the worst arrival path from an endpoint back to a
// cloud input, returning it input-first. It is the query the size-only
// incremental compile uses to pick cells to upsize. The walk is bounded
// by the node count: on a circuit whose fanin relation contains a cycle
// (impossible for netlist.Builder outputs, possible for hand-assembled
// graphs) it returns an error instead of spinning.
func (t *Timing) CriticalPathTo(o *netlist.Node) ([]*netlist.Node, error) {
	var rev []*netlist.Node
	n := o
	for steps := 0; ; steps++ {
		if steps > len(t.C.Nodes) {
			return nil, fmt.Errorf("sta: %w: critical path to %q exceeds %d nodes (fanin cycle?)", ErrBadInput, o.Name, len(t.C.Nodes))
		}
		rev = append(rev, n)
		if n.Kind == netlist.KindInput || len(n.Fanin) == 0 {
			break
		}
		worst := n.Fanin[0]
		worstArr := math.Inf(-1)
		for _, u := range n.Fanin {
			if a := t.arrival[u.ID] + t.EdgeDelay(u, n); a > worstArr {
				worstArr = a
				worst = u
			}
		}
		n = worst
	}
	path := make([]*netlist.Node, len(rev))
	for i, n := range rev {
		path[len(rev)-1-i] = n
	}
	return path, nil
}

package netlist

import (
	"strings"
	"testing"

	"relatch/internal/cell"
)

func lib() *cell.Library { return cell.Default(1.0) }

// buildDiamond builds i -> a -> {b, c} -> d -> o.
func buildDiamond(t *testing.T) *Circuit {
	t.Helper()
	l := lib()
	b := NewBuilder("diamond", l)
	in := b.Input("i", 0)
	a := b.Gate("a", l.MustCell(cell.FuncBuf, 1), in)
	g1 := b.Gate("b", l.MustCell(cell.FuncInv, 1), a)
	g2 := b.Gate("c", l.MustCell(cell.FuncInv, 1), a)
	d := b.Gate("d", l.MustCell(cell.FuncNand2, 1), g1, g2)
	b.Output("o", 1, d)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuilderBasics(t *testing.T) {
	c := buildDiamond(t)
	if got := c.GateCount(); got != 4 {
		t.Errorf("GateCount = %d, want 4", got)
	}
	if got := len(c.Inputs); got != 1 {
		t.Errorf("inputs = %d, want 1", got)
	}
	if got := len(c.Outputs); got != 1 {
		t.Errorf("outputs = %d, want 1", got)
	}
	if got := c.FlopCount(); got != 2 {
		t.Errorf("FlopCount = %d, want 2", got)
	}
	a, ok := c.Node("a")
	if !ok {
		t.Fatal("node a missing")
	}
	if len(a.Fanout) != 2 {
		t.Errorf("a fanout = %d, want 2", len(a.Fanout))
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderRejectsDuplicateNames(t *testing.T) {
	l := lib()
	b := NewBuilder("dup", l)
	b.Input("x", 0)
	b.Input("x", 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("expected duplicate-name error, got %v", err)
	}
}

func TestBuilderRejectsArityMismatch(t *testing.T) {
	l := lib()
	b := NewBuilder("arity", l)
	in := b.Input("x", 0)
	b.Gate("g", l.MustCell(cell.FuncNand2, 1), in) // needs 2 fanins
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "fanins") {
		t.Errorf("expected arity error, got %v", err)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	c := buildDiamond(t)
	pos := make(map[int]int)
	for i, n := range c.Topo() {
		pos[n.ID] = i
	}
	for _, n := range c.Nodes {
		for _, f := range n.Fanin {
			if pos[f.ID] >= pos[n.ID] {
				t.Errorf("topo order violates edge %s -> %s", f.Name, n.Name)
			}
		}
	}
}

func TestFaninFanoutCones(t *testing.T) {
	c := buildDiamond(t)
	o := c.Outputs[0]
	cone := c.FaninCone(o)
	if len(cone) != 6 {
		t.Errorf("fan-in cone of o has %d nodes, want all 6", len(cone))
	}
	pos := make(map[*Node]int)
	for i, n := range cone {
		for _, f := range n.Fanin {
			if _, ok := pos[f]; !ok {
				t.Errorf("fan-in cone lists %s before its fanin %s", n.Name, f.Name)
			}
		}
		pos[n] = i
	}
	if cone[len(cone)-1] != o {
		t.Errorf("fan-in cone ends at %s, want the endpoint o", cone[len(cone)-1].Name)
	}
}

func TestEdgesStable(t *testing.T) {
	c := buildDiamond(t)
	e1 := c.Edges()
	e2 := c.Edges()
	if len(e1) != 6 {
		t.Errorf("edge count = %d, want 6", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("Edges() is not deterministic")
		}
	}
}

func TestLogicDepth(t *testing.T) {
	c := buildDiamond(t)
	if got := c.LogicDepth(); got != 3 {
		t.Errorf("LogicDepth = %d, want 3 (a,b,d)", got)
	}
}

func TestInitialPlacement(t *testing.T) {
	c := buildDiamond(t)
	p := InitialPlacement(c)
	if got := p.SlaveCount(); got != 1 {
		t.Errorf("initial SlaveCount = %d, want 1", got)
	}
	if err := p.Validate(c); err != nil {
		t.Errorf("initial placement invalid: %v", err)
	}
}

func TestPlacementSharing(t *testing.T) {
	c := buildDiamond(t)
	a, _ := c.Node("a")
	bN, _ := c.Node("b")
	cN, _ := c.Node("c")
	p := NewPlacement()
	p.OnEdge[Edge{From: a.ID, To: bN.ID}] = true
	p.OnEdge[Edge{From: a.ID, To: cN.ID}] = true
	// Two latched edges with the same driver share one physical latch.
	if got := p.SlaveCount(); got != 1 {
		t.Errorf("shared SlaveCount = %d, want 1", got)
	}
	if err := p.Validate(c); err != nil {
		t.Errorf("placement should be legal: %v", err)
	}
	if !p.LatchOnEdge(a, bN) || !p.LatchOnEdge(a, cN) {
		t.Error("LatchOnEdge should see both latched edges")
	}
}

func TestPlacementValidateCatchesUnbalancedCut(t *testing.T) {
	c := buildDiamond(t)
	a, _ := c.Node("a")
	bN, _ := c.Node("b")
	p := NewPlacement()
	p.OnEdge[Edge{From: a.ID, To: bN.ID}] = true // path via c has no latch
	if err := p.Validate(c); err == nil {
		t.Error("unbalanced cut accepted")
	}
}

func TestPlacementValidateCatchesDoubleLatch(t *testing.T) {
	c := buildDiamond(t)
	in := c.Inputs[0]
	a, _ := c.Node("a")
	bN, _ := c.Node("b")
	cN, _ := c.Node("c")
	p := NewPlacement()
	p.AtInput[in.ID] = true
	p.OnEdge[Edge{From: a.ID, To: bN.ID}] = true
	p.OnEdge[Edge{From: a.ID, To: cN.ID}] = true
	if err := p.Validate(c); err == nil {
		t.Error("double-latched path accepted")
	}
}

func TestFromRetiming(t *testing.T) {
	c := buildDiamond(t)
	in := c.Inputs[0]
	a, _ := c.Node("a")
	r := map[int]int{in.ID: -1, a.ID: -1}
	p := FromRetiming(c, r)
	// Latches should be on a->b and a->c, one physical latch.
	if got := p.SlaveCount(); got != 1 {
		t.Errorf("SlaveCount = %d, want 1", got)
	}
	if p.AtInput[in.ID] {
		t.Error("input latch should have moved forward")
	}
	if err := p.Validate(c); err != nil {
		t.Errorf("retimed placement invalid: %v", err)
	}
}

func TestFromRetimingIdentity(t *testing.T) {
	c := buildDiamond(t)
	p := FromRetiming(c, nil)
	if !p.AtInput[c.Inputs[0].ID] || len(p.OnEdge) != 0 {
		t.Error("zero retiming must reproduce the initial placement")
	}
}

func TestPlacementClone(t *testing.T) {
	c := buildDiamond(t)
	p := InitialPlacement(c)
	q := p.Clone()
	q.AtInput[c.Inputs[0].ID] = false
	if !p.AtInput[c.Inputs[0].ID] {
		t.Error("Clone is not a deep copy")
	}
}

func TestCombArea(t *testing.T) {
	c := buildDiamond(t)
	want := 0.0
	for _, name := range []string{"a", "b", "c", "d"} {
		n, _ := c.Node(name)
		want += n.Cell.Area
	}
	if got := c.CombArea(); got != want {
		t.Errorf("CombArea = %g, want %g", got, want)
	}
}

func TestSeqCircuitCut(t *testing.T) {
	l := lib()
	b := NewSeqBuilder("seq", l)
	pi := b.PI("x")
	ff1 := b.FF("r1")
	ff2 := b.FF("r2")
	g1 := b.Gate("g1", l.MustCell(cell.FuncNand2, 1), pi, ff1)
	g2 := b.Gate("g2", l.MustCell(cell.FuncInv, 1), g1)
	b.SetD(ff1, g2) // feedback through register
	b.SetD(ff2, g1)
	b.PO("y", g2)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sc.FFs); got != 2 {
		t.Fatalf("FF count = %d, want 2", got)
	}
	cut, err := sc.Cut()
	if err != nil {
		t.Fatal(err)
	}
	// Inputs: 2 flop Q sides + 1 registered PI = 3.
	if got := len(cut.Inputs); got != 3 {
		t.Errorf("cut inputs = %d, want 3", got)
	}
	// Outputs: 2 flop D sides + 1 registered PO = 3.
	if got := len(cut.Outputs); got != 3 {
		t.Errorf("cut outputs = %d, want 3", got)
	}
	if err := cut.Validate(); err != nil {
		t.Errorf("cut circuit invalid: %v", err)
	}
	// Q and D sides of the same flop share a flop index.
	q, _ := cut.Node("r1/Q")
	d, _ := cut.Node("r1/D")
	if q.Flop != d.Flop {
		t.Errorf("r1 Q/D flop indices differ: %d vs %d", q.Flop, d.Flop)
	}
	if err := InitialPlacement(cut).Validate(cut); err != nil {
		t.Errorf("initial placement on cut circuit invalid: %v", err)
	}
}

func TestSeqCircuitCutBreaksCycles(t *testing.T) {
	l := lib()
	b := NewSeqBuilder("cyc", l)
	ff := b.FF("r")
	g := b.Gate("g", l.MustCell(cell.FuncInv, 1), ff)
	b.SetD(ff, g)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Cut(); err != nil {
		t.Fatalf("register feedback loop should cut cleanly: %v", err)
	}
}

func TestSeqCircuitCombCycleRejected(t *testing.T) {
	l := lib()
	b := NewSeqBuilder("combcyc", l)
	// Build a purely combinational cycle by hand: g1 <- g2 <- g1.
	g1 := b.Gate("g1", l.MustCell(cell.FuncInv, 1), nil)
	g2 := b.Gate("g2", l.MustCell(cell.FuncInv, 1), g1)
	g1.Fanin[0] = g2
	ff := b.FF("r")
	b.SetD(ff, g2)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Cut(); err == nil {
		t.Error("combinational cycle not detected")
	}
}

func TestSeqAreas(t *testing.T) {
	l := lib()
	b := NewSeqBuilder("areas", l)
	pi := b.PI("x")
	ff := b.FF("r")
	g := b.Gate("g", l.MustCell(cell.FuncNand2, 1), pi, ff)
	b.SetD(ff, g)
	b.PO("y", g)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sc.FFArea(), l.FF.Area; got != want {
		t.Errorf("FFArea = %g, want %g", got, want)
	}
	gn := sc.Nodes[2]
	if sc.CombArea() != gn.Cell.Area {
		t.Errorf("CombArea = %g, want %g", sc.CombArea(), gn.Cell.Area)
	}
	if sc.TotalArea() != sc.FFArea()+sc.CombArea() {
		t.Error("TotalArea must be FF + comb")
	}
}

func TestSeqBuilderErrors(t *testing.T) {
	l := lib()
	b := NewSeqBuilder("errs", l)
	ff := b.FF("r")
	pi := b.PI("x")
	b.SetD(ff, pi)
	b.SetD(ff, pi) // second driver
	if _, err := b.Build(); err == nil {
		t.Error("double SetD accepted")
	}

	b2 := NewSeqBuilder("errs2", l)
	b2.FF("r") // never driven
	if _, err := b2.Build(); err == nil {
		t.Error("undriven flop accepted")
	}
}

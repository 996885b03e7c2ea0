package synth

import (
	"testing"

	"relatch/internal/cell"
	"relatch/internal/clocking"
	"relatch/internal/netlist"
	"relatch/internal/sta"
)

// chain builds i -> g0 -> g1 -> ... -> o with weak drives and a heavy
// load so sizing has room to help.
func chain(t *testing.T, n int) *netlist.Circuit {
	t.Helper()
	lib := cell.Default(1.0)
	b := netlist.NewBuilder("chain", lib)
	prev := netlist.Node{}
	_ = prev
	in := b.Input("i", 0)
	cur := in
	for i := 0; i < n; i++ {
		cur = b.Gate(nodeName(i), lib.MustCell(cell.FuncBuf, 1), cur)
	}
	// Heavy fan-out load on the last gate: four inverters.
	for j := 0; j < 4; j++ {
		b.Gate(loadName(j), lib.MustCell(cell.FuncInv, 1), cur)
	}
	b.Output("o", 1, cur)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func nodeName(i int) string { return "g" + string(rune('a'+i)) }
func loadName(i int) string { return "ld" + string(rune('a'+i)) }

func TestSizeOnlyCompileFixesViolation(t *testing.T) {
	c := chain(t, 6)
	tool := New(c, sta.DefaultOptions(c.Lib))
	o := c.Outputs[0]
	before := tool.Timing().Arrival(o)
	// Require 80% of current arrival: must upsize to close.
	req := map[int]float64{o.ID: before * 0.8}
	res := tool.SizeOnlyCompile(req, nil, clocking.Scheme{}, cell.Latch{}, 0)
	after := tool.Timing().Arrival(o)
	if res.Upsized == 0 {
		t.Fatal("no gates upsized")
	}
	if after >= before {
		t.Errorf("arrival did not improve: %g -> %g", before, after)
	}
	if res.AreaDelta <= 0 {
		t.Error("upsizing must cost area")
	}
	if res.Met && after > req[o.ID]+1e-12 {
		t.Error("reported met but violation remains")
	}
}

func TestSizeOnlyCompileStopsWhenImpossible(t *testing.T) {
	c := chain(t, 6)
	tool := New(c, sta.DefaultOptions(c.Lib))
	o := c.Outputs[0]
	req := map[int]float64{o.ID: 1e-6} // unreachable
	res := tool.SizeOnlyCompile(req, nil, clocking.Scheme{}, cell.Latch{}, 0)
	if res.Met {
		t.Error("impossible requirement reported as met")
	}
	// Every gate can be upsized at most twice (X1→X2→X4).
	if res.Upsized > 2*c.GateCount() {
		t.Errorf("upsized %d times with only %d gates", res.Upsized, c.GateCount())
	}
}

func TestSizeOnlyCompileNoopWhenMet(t *testing.T) {
	c := chain(t, 3)
	tool := New(c, sta.DefaultOptions(c.Lib))
	o := c.Outputs[0]
	req := map[int]float64{o.ID: tool.Timing().Arrival(o) * 2}
	res := tool.SizeOnlyCompile(req, nil, clocking.Scheme{}, cell.Latch{}, 0)
	if !res.Met || res.Upsized != 0 {
		t.Errorf("expected a met no-op, got %+v", res)
	}
}

func TestLatchTypeSwap(t *testing.T) {
	c := chain(t, 5)
	tm := sta.Analyze(c, sta.DefaultOptions(c.Lib))
	o := c.Outputs[0]
	scheme := clocking.Symmetric(tm.Arrival(o) * 3) // generous: nothing ED
	p := netlist.InitialPlacement(c)
	current := map[int]bool{o.ID: true} // wrongly marked ED
	ed, swaps := LatchTypeSwap(tm, p, scheme, c.Lib.BaseLatch, current)
	if ed[o.ID] {
		t.Error("endpoint comfortably meets Π; swap should clear ED")
	}
	if swaps != 1 {
		t.Errorf("swaps = %d, want 1", swaps)
	}
}

func TestRequiredTimes(t *testing.T) {
	c := chain(t, 3)
	s := clocking.Symmetric(1.0)
	o := c.Outputs[0]
	req := RequiredTimes(c, s, map[int]bool{o.ID: true})
	if req[o.ID] != s.MaxStageDelay() {
		t.Errorf("ED endpoint required = %g, want %g", req[o.ID], s.MaxStageDelay())
	}
	req = RequiredTimes(c, s, nil)
	if req[o.ID] != s.Period() {
		t.Errorf("normal endpoint required = %g, want %g", req[o.ID], s.Period())
	}
}

func TestToolString(t *testing.T) {
	c := chain(t, 2)
	tool := New(c, sta.DefaultOptions(c.Lib))
	if s := tool.String(); s == "" {
		t.Error("empty description")
	}
}

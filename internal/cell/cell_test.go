package cell

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFunctionArity(t *testing.T) {
	cases := []struct {
		f    Function
		want int
	}{
		{FuncInv, 1}, {FuncBuf, 1},
		{FuncNand2, 2}, {FuncNor2, 2}, {FuncAnd2, 2}, {FuncOr2, 2},
		{FuncXor2, 2}, {FuncXnor2, 2},
		{FuncNand3, 3}, {FuncNor3, 3}, {FuncAnd3, 3}, {FuncOr3, 3},
		{FuncAoi21, 3}, {FuncOai21, 3}, {FuncMux2, 3},
		{FuncNand4, 4}, {FuncNor4, 4},
	}
	for _, c := range cases {
		if got := c.f.Arity(); got != c.want {
			t.Errorf("%v.Arity() = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestFunctionEvalTruthTables(t *testing.T) {
	// Exhaustive truth tables for every function.
	ref := map[Function]func(in []bool) bool{
		FuncInv:   func(in []bool) bool { return !in[0] },
		FuncBuf:   func(in []bool) bool { return in[0] },
		FuncNand2: func(in []bool) bool { return !(in[0] && in[1]) },
		FuncNor2:  func(in []bool) bool { return !(in[0] || in[1]) },
		FuncAnd2:  func(in []bool) bool { return in[0] && in[1] },
		FuncOr2:   func(in []bool) bool { return in[0] || in[1] },
		FuncXor2:  func(in []bool) bool { return in[0] != in[1] },
		FuncXnor2: func(in []bool) bool { return in[0] == in[1] },
		FuncNand3: func(in []bool) bool { return !(in[0] && in[1] && in[2]) },
		FuncNor3:  func(in []bool) bool { return !(in[0] || in[1] || in[2]) },
		FuncAnd3:  func(in []bool) bool { return in[0] && in[1] && in[2] },
		FuncOr3:   func(in []bool) bool { return in[0] || in[1] || in[2] },
		FuncAoi21: func(in []bool) bool { return !(in[0] && in[1] || in[2]) },
		FuncOai21: func(in []bool) bool { return !((in[0] || in[1]) && in[2]) },
		FuncMux2: func(in []bool) bool {
			if in[2] {
				return in[1]
			}
			return in[0]
		},
		FuncNand4: func(in []bool) bool { return !(in[0] && in[1] && in[2] && in[3]) },
		FuncNor4:  func(in []bool) bool { return !(in[0] || in[1] || in[2] || in[3]) },
	}
	for f, want := range ref {
		n := f.Arity()
		for bits := 0; bits < 1<<n; bits++ {
			in := make([]bool, n)
			for i := range in {
				in[i] = bits>>i&1 == 1
			}
			got, err := f.Eval(in)
			if err != nil {
				t.Fatalf("%v.Eval(%v): %v", f, in, err)
			}
			if got != want(in) {
				t.Errorf("%v.Eval(%v) = %v, want %v", f, in, got, want(in))
			}
		}
	}
}

func TestFunctionEvalBadArityReturnsError(t *testing.T) {
	if _, err := FuncNand2.Eval([]bool{true}); err == nil {
		t.Fatal("Eval with wrong arity did not return an error")
	}
	if _, err := Function(999).Eval(nil); err == nil {
		t.Fatal("Eval of unknown function did not return an error")
	}
}

func TestDefaultLibraryCompleteness(t *testing.T) {
	lib := Default(1.0)
	for _, f := range lib.Functions() {
		drives := lib.Drives(f)
		if len(drives) != 3 {
			t.Errorf("%v: want 3 drive strengths, got %v", f, drives)
		}
		for _, d := range drives {
			c, err := lib.Cell(f, d)
			if err != nil {
				t.Fatalf("Cell(%v, %d): %v", f, d, err)
			}
			if c.Func != f || c.Drive != d {
				t.Errorf("Cell(%v,%d) returned %s", f, d, c.Name)
			}
			if len(c.IntrinsicRise) != f.Arity() || len(c.IntrinsicFall) != f.Arity() {
				t.Errorf("%s: intrinsic tables do not match arity", c.Name)
			}
			if c.Area <= 0 || c.InputCap <= 0 || c.Resistance <= 0 {
				t.Errorf("%s: non-positive physical parameters", c.Name)
			}
		}
	}
}

func TestByName(t *testing.T) {
	lib := Default(1.0)
	c, ok := lib.ByName("NAND2_X2")
	if !ok {
		t.Fatal("NAND2_X2 not found by name")
	}
	if c.Func != FuncNand2 || c.Drive != 2 {
		t.Errorf("ByName returned wrong cell %s", c.Name)
	}
	if _, ok := lib.ByName("NO_SUCH_CELL"); ok {
		t.Error("ByName found a nonexistent cell")
	}
}

func TestUpsizeChain(t *testing.T) {
	lib := Default(1.0)
	x1 := lib.MustCell(FuncInv, 1)
	x2 := lib.Upsize(x1)
	if x2 == nil || x2.Drive != 2 {
		t.Fatalf("Upsize(X1) = %v, want drive 2", x2)
	}
	x4 := lib.Upsize(x2)
	if x4 == nil || x4.Drive != 4 {
		t.Fatalf("Upsize(X2) = %v, want drive 4", x4)
	}
	if lib.Upsize(x4) != nil {
		t.Error("Upsize(strongest) should be nil")
	}
}

func TestUpsizeReducesResistance(t *testing.T) {
	lib := Default(1.0)
	for _, f := range lib.Functions() {
		var prev *Cell
		for _, d := range lib.Drives(f) {
			c := lib.MustCell(f, d)
			if prev != nil {
				if c.Resistance >= prev.Resistance {
					t.Errorf("%s: resistance %g not below %s's %g", c.Name, c.Resistance, prev.Name, prev.Resistance)
				}
				if c.Area <= prev.Area {
					t.Errorf("%s: area %g not above %s's %g", c.Name, c.Area, prev.Name, prev.Area)
				}
			}
			prev = c
		}
	}
}

func TestDelayMonotonicInLoad(t *testing.T) {
	lib := Default(1.0)
	c := lib.MustCell(FuncNand2, 1)
	err := quick.Check(func(load1, load2, slew uint16) bool {
		l1, l2 := float64(load1)/1000, float64(load2)/1000
		s := float64(slew) / 10000
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		return c.Delay(0, l1, s) <= c.Delay(0, l2, s)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestWorstDelayIsConservative(t *testing.T) {
	lib := Default(1.0)
	for _, f := range lib.Functions() {
		for _, d := range lib.Drives(f) {
			c := lib.MustCell(f, d)
			w := c.WorstDelay()
			for pin := 0; pin < f.Arity(); pin++ {
				if got := c.Delay(pin, 3.0, 0.02); got > w {
					t.Errorf("%s pin %d: realistic delay %g exceeds WorstDelay %g", c.Name, pin, got, w)
				}
			}
		}
	}
}

func TestLatchAreaScalesWithOverhead(t *testing.T) {
	for _, c := range []float64{0.5, 1.0, 2.0} {
		lib := Default(c)
		normal := lib.LatchArea(LatchNormal)
		ed := lib.LatchArea(LatchErrorDetecting)
		want := normal * (1 + c)
		if math.Abs(ed-want) > 1e-12 {
			t.Errorf("c=%g: ED latch area %g, want %g", c, ed, want)
		}
		if lib.LatchArea(LatchVirtualNonED) != normal {
			t.Errorf("c=%g: virtual non-ED latch must keep normal area", c)
		}
	}
}

func TestLatchFlopAreaRatio(t *testing.T) {
	lib := Default(1.0)
	ratio := lib.BaseLatch.Area / lib.FF.Area
	if math.Abs(ratio-0.43) > 1e-9 {
		t.Errorf("latch/FF area ratio = %g, want 0.43 (paper, Section VI-D)", ratio)
	}
}

func TestLatchDToQExceedsClkToQ(t *testing.T) {
	lib := Default(1.0)
	l := lib.BaseLatch
	if l.DToQ <= l.ClkToQ {
		t.Errorf("DToQ %g must exceed ClkToQ %g (Section III notes up to 40%% difference)", l.DToQ, l.ClkToQ)
	}
	if l.DToQ > 1.45*l.ClkToQ {
		t.Errorf("DToQ %g more than 45%% above ClkToQ %g", l.DToQ, l.ClkToQ)
	}
}

func TestLatchVariantNames(t *testing.T) {
	lib := Default(2.0)
	if v := lib.LatchVariant(LatchErrorDetecting); v.Name != "DLATCH_ED_X1" || v.Area != lib.BaseLatch.Area*3 {
		t.Errorf("ED variant wrong: %+v", v)
	}
	if v := lib.LatchVariant(LatchVirtualNonED); v.Name != "DLATCH_NED_X1" || v.Area != lib.BaseLatch.Area {
		t.Errorf("NED variant wrong: %+v", v)
	}
	if v := lib.LatchVariant(LatchNormal); v.Name != "DLATCH_X1" {
		t.Errorf("normal variant wrong: %+v", v)
	}
}

// Package cell models a synthetic standard-cell library: combinational
// cells at several drive strengths, flip-flops, and the latch family a
// two-phase resilient design needs (normal latches plus error-detecting
// latches whose area is scaled by the EDL overhead factor c).
//
// The delay model is a linear NLDM-style approximation,
//
//	delay(pin→out) = intrinsic + resistance·loadCap + slewFactor·inputSlew
//
// with separate rise/fall intrinsics per input pin. All results in the
// reproduced paper are area and delay *ratios* against one fixed library,
// so the absolute calibration below (roughly a 28nm-class library with
// latch area = 43% of flip-flop area, and a latch D→Q delay 40% larger
// than its clk→Q delay, both figures taken from the paper) is what matters.
package cell

import (
	"fmt"
	"sort"
	"strings"
)

// Function identifies the logic function a combinational cell computes.
type Function int

// Supported combinational functions.
const (
	FuncInv Function = iota
	FuncBuf
	FuncNand2
	FuncNor2
	FuncAnd2
	FuncOr2
	FuncXor2
	FuncXnor2
	FuncNand3
	FuncNor3
	FuncAnd3
	FuncOr3
	FuncAoi21 // !(a·b + c)
	FuncOai21 // !((a+b)·c)
	FuncMux2  // s ? b : a  (pins: a, b, s)
	FuncNand4
	FuncNor4
	numFunctions
)

var functionNames = map[Function]string{
	FuncInv: "INV", FuncBuf: "BUF",
	FuncNand2: "NAND2", FuncNor2: "NOR2", FuncAnd2: "AND2", FuncOr2: "OR2",
	FuncXor2: "XOR2", FuncXnor2: "XNOR2",
	FuncNand3: "NAND3", FuncNor3: "NOR3", FuncAnd3: "AND3", FuncOr3: "OR3",
	FuncAoi21: "AOI21", FuncOai21: "OAI21", FuncMux2: "MUX2",
	FuncNand4: "NAND4", FuncNor4: "NOR4",
}

// String returns the conventional library name of the function.
func (f Function) String() string {
	if s, ok := functionNames[f]; ok {
		return s
	}
	return fmt.Sprintf("FUNC(%d)", int(f))
}

// Arity returns the number of input pins of the function.
func (f Function) Arity() int {
	switch f {
	case FuncInv, FuncBuf:
		return 1
	case FuncNand2, FuncNor2, FuncAnd2, FuncOr2, FuncXor2, FuncXnor2:
		return 2
	case FuncNand3, FuncNor3, FuncAnd3, FuncOr3, FuncAoi21, FuncOai21, FuncMux2:
		return 3
	case FuncNand4, FuncNor4:
		return 4
	}
	return 0
}

// Eval computes the boolean output of the function for the given inputs.
// Arity mismatches and unimplemented functions return errors rather than
// panicking: Eval sits on the simulation hot path for externally supplied
// netlists, so malformed inputs must degrade to a diagnosis, not a crash.
func (f Function) Eval(in []bool) (bool, error) {
	if len(in) != f.Arity() {
		return false, fmt.Errorf("cell: %v expects %d inputs, got %d", f, f.Arity(), len(in))
	}
	switch f {
	case FuncInv:
		return !in[0], nil
	case FuncBuf:
		return in[0], nil
	case FuncNand2:
		return !(in[0] && in[1]), nil
	case FuncNor2:
		return !(in[0] || in[1]), nil
	case FuncAnd2:
		return in[0] && in[1], nil
	case FuncOr2:
		return in[0] || in[1], nil
	case FuncXor2:
		return in[0] != in[1], nil
	case FuncXnor2:
		return in[0] == in[1], nil
	case FuncNand3:
		return !(in[0] && in[1] && in[2]), nil
	case FuncNor3:
		return !(in[0] || in[1] || in[2]), nil
	case FuncAnd3:
		return in[0] && in[1] && in[2], nil
	case FuncOr3:
		return in[0] || in[1] || in[2], nil
	case FuncAoi21:
		return !(in[0] && in[1] || in[2]), nil
	case FuncOai21:
		return !((in[0] || in[1]) && in[2]), nil
	case FuncMux2:
		if in[2] {
			return in[1], nil
		}
		return in[0], nil
	case FuncNand4:
		return !(in[0] && in[1] && in[2] && in[3]), nil
	case FuncNor4:
		return !(in[0] || in[1] || in[2] || in[3]), nil
	}
	return false, fmt.Errorf("cell: Eval not implemented for %v", f)
}

// Cell is one combinational standard cell (a function at a drive strength).
type Cell struct {
	Name  string
	Func  Function
	Drive int // drive strength index: 1, 2, 4, ...

	Area float64

	// IntrinsicRise/Fall hold the zero-load pin-to-output delay for each
	// input pin, for an output rise/fall respectively.
	IntrinsicRise []float64
	IntrinsicFall []float64

	// Resistance is the delay added per unit of load capacitance.
	Resistance float64
	// SlewFactor is the delay added per unit of input slew.
	SlewFactor float64

	// InputCap is the capacitance each input pin presents to its driver.
	InputCap float64
	// MaxLoad is the library's max-capacitance limit for the output pin.
	MaxLoad float64

	// SlewBase and SlewPerLoad model the output transition time.
	SlewBase    float64
	SlewPerLoad float64
}

// Delay returns the pin-to-output delay from input pin through the cell
// driving loadCap, for the worse of rise and fall, given the input slew.
func (c *Cell) Delay(pin int, loadCap, inputSlew float64) float64 {
	r := c.IntrinsicRise[pin]
	f := c.IntrinsicFall[pin]
	worst := r
	if f > worst {
		worst = f
	}
	return worst + c.Resistance*loadCap + c.SlewFactor*inputSlew
}

// OutputSlew returns the transition time at the cell output for loadCap.
func (c *Cell) OutputSlew(loadCap float64) float64 {
	return c.SlewBase + c.SlewPerLoad*loadCap
}

// WorstDelay is the conservative, load-independent gate delay used by the
// gate-based timing model of the original DAC paper: the worst pin
// intrinsic plus the delay of driving a pessimistic reference load at a
// pessimistic reference slew (roughly a fanout-of-4 corner, some 15–30%
// above typical path-based delays — matching the pessimism the journal
// paper measures for the DAC paper's gate-delay model in Table II).
func (c *Cell) WorstDelay() float64 {
	worst := 0.0
	for pin := range c.IntrinsicRise {
		if d := c.Delay(pin, refPessimisticLoad, refPessimisticSlew); d > worst {
			worst = d
		}
	}
	return worst
}

// refPessimisticSlew and refPessimisticLoad are the corner the gate-based
// delay model assumes for every cell regardless of context.
const (
	refPessimisticSlew = 0.025
	refPessimisticLoad = 3.0
)

// LatchKind distinguishes the sequential cells in the library.
type LatchKind int

// Latch kinds. The "virtual" kinds are the resynthesis-library variants of
// Section V: a normal latch whose setup is extended by the resiliency
// window, and an error-detecting latch whose area carries the EDL overhead.
const (
	// LatchNormal is a plain transparent latch from the base library.
	LatchNormal LatchKind = iota
	// LatchErrorDetecting is a latch plus its amortized error-detecting
	// logic (shadow flip-flop or transition detector plus its share of
	// the OR tree). Its area is Latch.Area · (1 + c).
	LatchErrorDetecting
	// LatchVirtualNonED is the virtual-library non-error-detecting latch:
	// same area as normal, but setup extended so arrivals must precede
	// the resiliency window.
	LatchVirtualNonED
)

func (k LatchKind) String() string {
	switch k {
	case LatchNormal:
		return "latch"
	case LatchErrorDetecting:
		return "latch-ed"
	case LatchVirtualNonED:
		return "latch-ned"
	}
	return fmt.Sprintf("latch(%d)", int(k))
}

// Latch describes the timing and area of a transparent latch cell.
type Latch struct {
	Name string
	Kind LatchKind

	Area float64

	// ClkToQ is the clock-to-output delay when data arrived before the
	// latch opened; DToQ is the data-to-output delay through a transparent
	// latch. The paper notes DToQ can exceed ClkToQ by up to 40% in a
	// modern library, and Eq. (5) depends on the distinction.
	ClkToQ float64
	DToQ   float64

	Setup    float64
	Hold     float64
	InputCap float64
	Drive    int
	// Resistance/SlewBase/SlewPerLoad let an inserted latch participate
	// in load-dependent timing like any other cell.
	Resistance  float64
	SlewBase    float64
	SlewPerLoad float64
}

// FlipFlop describes the master-slave flip-flop cell of the original,
// non-resilient designs (Table I).
type FlipFlop struct {
	Name     string
	Area     float64
	ClkToQ   float64
	Setup    float64
	Hold     float64
	InputCap float64
}

// Library is a complete cell library: combinational cells indexed by
// function and drive, one flip-flop, and the latch family.
type Library struct {
	Name string

	cells  map[Function][]*Cell // sorted by Drive ascending
	byName map[string]*Cell

	FF FlipFlop

	// BaseLatch is the plain library latch (drive 1).
	BaseLatch Latch

	// EDLOverhead is the amortized error-detecting overhead factor c:
	// an error-detecting latch occupies BaseLatch.Area · (1 + c).
	EDLOverhead float64
}

// SeqAreaOf is the sequential-area formula of the paper's objective:
// latch area · (slaves + masters) + c · latch area · ED. It is the
// single definition shared by core's evaluation, the virtual-library
// flows, reports and the output certifier.
func SeqAreaOf(lib *Library, edlCost float64, slaves, masters, ed int) float64 {
	a := lib.BaseLatch.Area
	return a*float64(slaves+masters) + edlCost*a*float64(ed)
}

// Default returns the library used throughout the reproduction, with the
// EDL overhead factor c (the paper sweeps c over 0.5, 1.0, 2.0).
func Default(edlOverhead float64) *Library {
	lib := &Library{
		Name:        "relatch28",
		cells:       make(map[Function][]*Cell),
		byName:      make(map[string]*Cell),
		EDLOverhead: edlOverhead,
	}

	// Base (drive-1) parameters per function: area, intrinsic rise/fall
	// per pin, resistance, input cap. Delays in ns, caps in arbitrary
	// femtofarad-like units, areas in µm²-like units, all consistent
	// with a 28nm-class library where an INV_X1 is ~0.6 area units and
	// ~12ps intrinsic.
	type proto struct {
		f          Function
		area       float64
		rise, fall float64 // base intrinsic for pin 0; later pins slower
		res        float64
		cap        float64
	}
	protos := []proto{
		{FuncInv, 0.60, 0.010, 0.008, 0.0040, 1.0},
		{FuncBuf, 0.90, 0.018, 0.016, 0.0036, 1.0},
		{FuncNand2, 0.90, 0.014, 0.011, 0.0048, 1.1},
		{FuncNor2, 0.90, 0.016, 0.012, 0.0052, 1.1},
		{FuncAnd2, 1.20, 0.022, 0.019, 0.0044, 1.0},
		{FuncOr2, 1.20, 0.024, 0.020, 0.0046, 1.0},
		{FuncXor2, 1.80, 0.032, 0.030, 0.0056, 1.6},
		{FuncXnor2, 1.80, 0.033, 0.031, 0.0056, 1.6},
		{FuncNand3, 1.20, 0.018, 0.015, 0.0054, 1.2},
		{FuncNor3, 1.20, 0.021, 0.016, 0.0060, 1.2},
		{FuncAnd3, 1.50, 0.026, 0.023, 0.0048, 1.1},
		{FuncOr3, 1.50, 0.028, 0.024, 0.0050, 1.1},
		{FuncAoi21, 1.20, 0.019, 0.016, 0.0056, 1.2},
		{FuncOai21, 1.20, 0.020, 0.017, 0.0056, 1.2},
		{FuncMux2, 1.80, 0.028, 0.026, 0.0052, 1.3},
		{FuncNand4, 1.50, 0.022, 0.018, 0.0060, 1.3},
		{FuncNor4, 1.50, 0.026, 0.020, 0.0068, 1.3},
	}

	for _, p := range protos {
		for _, drive := range []int{1, 2, 4} {
			d := float64(drive)
			n := p.f.Arity()
			rise := make([]float64, n)
			fall := make([]float64, n)
			for pin := 0; pin < n; pin++ {
				// Later pins are structurally slower (series stacks).
				penalty := 1.0 + 0.05*float64(pin)
				rise[pin] = p.rise * penalty
				fall[pin] = p.fall * penalty
			}
			c := &Cell{
				Name:          fmt.Sprintf("%s_X%d", p.f, drive),
				Func:          p.f,
				Drive:         drive,
				Area:          p.area * (0.7 + 0.3*d),
				IntrinsicRise: rise,
				IntrinsicFall: fall,
				Resistance:    p.res / d,
				SlewFactor:    0.10,
				InputCap:      p.cap * (0.8 + 0.2*d),
				MaxLoad:       12.0 * d,
				SlewBase:      0.004,
				SlewPerLoad:   0.0016 / d,
			}
			lib.cells[p.f] = append(lib.cells[p.f], c)
			lib.byName[c.Name] = c
		}
	}
	for f := range lib.cells {
		sort.Slice(lib.cells[f], func(i, j int) bool {
			return lib.cells[f][i].Drive < lib.cells[f][j].Drive
		})
	}

	lib.FF = FlipFlop{
		Name:     "DFF_X1",
		Area:     6.00,
		ClkToQ:   0.045,
		Setup:    0.020,
		Hold:     0.004,
		InputCap: 1.2,
	}
	// Latch area is 43% of the flip-flop area, matching the efficiency
	// the paper reports for its commercial library (Section VI-D).
	lib.BaseLatch = Latch{
		Name:        "DLATCH_X1",
		Kind:        LatchNormal,
		Area:        lib.FF.Area * 0.43,
		ClkToQ:      0.025,
		DToQ:        0.035, // 40% above ClkToQ, per Section III
		Setup:       0.012,
		Hold:        0.006,
		InputCap:    1.1,
		Drive:       1,
		Resistance:  0.0040,
		SlewBase:    0.004,
		SlewPerLoad: 0.0016,
	}
	return lib
}

// Cell returns the cell implementing f at the given drive strength.
func (l *Library) Cell(f Function, drive int) (*Cell, error) {
	for _, c := range l.cells[f] {
		if c.Drive == drive {
			return c, nil
		}
	}
	return nil, fmt.Errorf("cell: library %s has no %v at drive X%d", l.Name, f, drive)
}

// MustCell is Cell but panics on a missing cell. The panic is a provably
// internal invariant, not a user-input path: every library this package
// constructs (Default) provides every function at drives 1, 2 and 4, and
// callers handling externally chosen (function, drive) pairs must use
// Cell instead — the verilog elaborator does.
func (l *Library) MustCell(f Function, drive int) *Cell {
	c, err := l.Cell(f, drive)
	if err != nil {
		panic(err)
	}
	return c
}

// ByName looks a combinational cell up by its library name (e.g. NAND2_X2).
func (l *Library) ByName(name string) (*Cell, bool) {
	c, ok := l.byName[strings.ToUpper(name)]
	return c, ok
}

// Drives lists the available drive strengths for a function, ascending.
func (l *Library) Drives(f Function) []int {
	out := make([]int, 0, len(l.cells[f]))
	for _, c := range l.cells[f] {
		out = append(out, c.Drive)
	}
	return out
}

// Upsize returns the next stronger cell with the same function, or nil if
// c is already the strongest available.
func (l *Library) Upsize(c *Cell) *Cell {
	variants := l.cells[c.Func]
	for i, v := range variants {
		if v.Drive == c.Drive && i+1 < len(variants) {
			return variants[i+1]
		}
	}
	return nil
}

// Functions lists every function the library implements, in a stable order.
func (l *Library) Functions() []Function {
	out := make([]Function, 0, len(l.cells))
	for f := Function(0); f < numFunctions; f++ {
		if len(l.cells[f]) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// LatchArea returns the area of a latch of the given kind under the
// library's EDL overhead factor.
func (l *Library) LatchArea(k LatchKind) float64 {
	switch k {
	case LatchErrorDetecting:
		return l.BaseLatch.Area * (1 + l.EDLOverhead)
	default:
		return l.BaseLatch.Area
	}
}

// LatchVariant materializes the latch cell of the given kind. Error
// detection scales area; the virtual non-ED variant only changes Kind
// (its extended setup is enforced by the retiming flow, not the cell).
func (l *Library) LatchVariant(k LatchKind) Latch {
	v := l.BaseLatch
	v.Kind = k
	v.Area = l.LatchArea(k)
	switch k {
	case LatchErrorDetecting:
		v.Name = "DLATCH_ED_X1"
	case LatchVirtualNonED:
		v.Name = "DLATCH_NED_X1"
	}
	return v
}

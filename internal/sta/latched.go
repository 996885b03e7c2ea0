package sta

import (
	"fmt"

	"relatch/internal/cell"
	"relatch/internal/clocking"
	"relatch/internal/netlist"
)

// Latched is the timing view of a cloud with slave latches inserted at a
// given placement: arrivals account for latch transparency (a signal
// reaching a latch before it opens waits until φ1+γ1, then launches with
// the latch's clock-to-Q; a signal arriving while transparent passes with
// the D-to-Q delay).
type Latched struct {
	T      *Timing
	P      *netlist.Placement
	Scheme clocking.Scheme
	Latch  cell.Latch

	arrival []float64
}

// AnalyzeLatched computes latch-aware arrivals over the placement.
func AnalyzeLatched(t *Timing, p *netlist.Placement, s clocking.Scheme, l cell.Latch) *Latched {
	la := &Latched{T: t, P: p, Scheme: s, Latch: l,
		arrival: make([]float64, len(t.C.Nodes))}
	open := s.SlaveOpen()
	through := func(arr float64, latched bool) float64 {
		if !latched {
			return arr
		}
		launch := open + l.ClkToQ
		if d := arr + l.DToQ; d > launch {
			launch = d
		}
		return launch
	}
	for _, n := range t.C.Topo() {
		switch n.Kind {
		case netlist.KindInput:
			la.arrival[n.ID] = through(t.Opt.LaunchDelay, p.AtInput[n.ID])
		default:
			arr := 0.0
			for _, u := range n.Fanin {
				a := through(la.arrival[u.ID],
					p.OnEdge[netlist.Edge{From: u.ID, To: n.ID}])
				a += t.EdgeDelay(u, n)
				if a > arr {
					arr = a
				}
			}
			la.arrival[n.ID] = arr
		}
	}
	return la
}

// Arrival returns the latch-aware arrival at the output of n. For nodes
// carrying a slave latch this is the arrival at the latch *input*; the
// downstream launch time is applied on the consuming edge.
func (la *Latched) Arrival(n *netlist.Node) float64 { return la.arrival[n.ID] }

// EndpointArrival returns the arrival at a master latch D pin.
func (la *Latched) EndpointArrival(o *netlist.Node) float64 { return la.arrival[o.ID] }

// MustBeED reports whether the endpoint's arrival falls past the period,
// forcing its master latch to be error-detecting.
func (la *Latched) MustBeED(o *netlist.Node) bool {
	return la.arrival[o.ID] > la.Scheme.Period()+timingEpsilon
}

// EDMasters returns the set of endpoint node IDs that must be
// error-detecting under this placement.
func (la *Latched) EDMasters() map[int]bool {
	ed := make(map[int]bool)
	for _, o := range la.T.C.Outputs {
		if la.MustBeED(o) {
			ed[o.ID] = true
		}
	}
	return ed
}

// WindowMasters returns the endpoints whose arrival lands inside the
// scheme's resiliency window under this placement — masters that would
// need error detection. This is the cheap bound behind the lint
// resiliency-window preview: one latch-aware arrival pass, no retiming.
func (la *Latched) WindowMasters() []*netlist.Node {
	var out []*netlist.Node
	for _, o := range la.T.C.Outputs {
		if la.Scheme.WindowContains(la.arrival[o.ID]) {
			out = append(out, o)
		}
	}
	return out
}

// timingEpsilon absorbs float rounding when comparing against clock
// boundaries (delays here are O(1) ns).
const timingEpsilon = 1e-9

// Violation describes a timing-legality failure of a placement.
type Violation struct {
	Node  *netlist.Node
	Kind  string // "slave-setup" or "endpoint-setup"
	Have  float64
	Limit float64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at %s: arrival %.4g > limit %.4g", v.Kind, v.Node.Name, v.Have, v.Limit)
}

// Violations checks the two latch-timing constraints of Section III:
// data must stabilize at every slave latch input before the slave closes
// (constraint (6): arrival ≤ φ1+γ1+φ2), and data must reach every master
// before its own closing edge (arrival ≤ Π+φ1, the max stage delay P).
func (la *Latched) Violations() []Violation {
	var out []Violation
	closeAt := la.Scheme.SlaveClose()
	for _, id := range la.P.LatchedDrivers() {
		n := la.T.C.Nodes[id]
		if la.arrival[id] > closeAt+timingEpsilon {
			out = append(out, Violation{Node: n, Kind: "slave-setup", Have: la.arrival[id], Limit: closeAt})
		}
	}
	maxStage := la.Scheme.MaxStageDelay()
	for _, o := range la.T.C.Outputs {
		if la.arrival[o.ID] > maxStage+timingEpsilon {
			out = append(out, Violation{Node: o, Kind: "endpoint-setup", Have: la.arrival[o.ID], Limit: maxStage})
		}
	}
	return out
}

// Package flow implements exact min-cost network flow and the
// difference-constraint linear programs built on it. It is the solver
// substrate standing in for the commercial network-simplex package
// (Gurobi) the paper calls: the retiming ILP of Eq. (10) is totally
// unimodular, its dual is the transshipment problem of Eq. (14), and the
// optimal retiming labels r(v) are recovered as node potentials of the
// optimal flow.
//
// Two independent solvers are provided — the network simplex method (the
// paper's choice, over a thread-indexed spanning tree; see simplex.go)
// and successive shortest paths — and are cross-checked against each
// other in tests. Potentials are extracted uniformly from
// the residual graph of the optimal flow, so both solvers yield identical
// duals.
package flow

import (
	"fmt"
	"math"

	"relatch/internal/ints"
)

// Unbounded is the capacity of an uncapacitated arc.
const Unbounded = int64(1) << 56

// Arc is a directed arc with a per-unit cost and a capacity.
type Arc struct {
	From, To int
	Cost     int64
	Cap      int64
}

// Network is a transshipment problem: find flows x ≥ 0 with x(a) ≤ cap(a)
// such that for every node v, inflow(v) − outflow(v) = demand(v),
// minimizing Σ cost(a)·x(a).
type Network struct {
	n      int
	arcs   []Arc
	demand []int64
	// pivotLimit overrides the simplex pivot budget when positive
	// (0 = automatic, proportional to the arc count).
	pivotLimit int
}

// NewNetwork creates a network with n nodes, numbered 0..n-1.
func NewNetwork(n int) *Network {
	return &Network{n: n, demand: make([]int64, n)}
}

// NumNodes returns the node count.
func (nw *Network) NumNodes() int { return nw.n }

// NumArcs returns the arc count.
func (nw *Network) NumArcs() int { return len(nw.arcs) }

// Arc returns the i-th arc.
func (nw *Network) Arc(i int) Arc { return nw.arcs[i] }

// AddArc appends an arc and returns its index. Structural problems —
// endpoints out of range, self-loops, negative or over-range capacities —
// are rejected with errors wrapping ErrBadArc.
func (nw *Network) AddArc(from, to int, cost, capacity int64) (int, error) {
	if from < 0 || from >= nw.n || to < 0 || to >= nw.n {
		return 0, fmt.Errorf("flow: %w: arc %d->%d outside node range [0,%d)", ErrBadArc, from, to, nw.n)
	}
	if from == to {
		return 0, fmt.Errorf("flow: %w: self-loop arc on node %d", ErrBadArc, from)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("flow: %w: negative capacity %d on arc %d->%d", ErrBadArc, capacity, from, to)
	}
	if capacity > Unbounded {
		return 0, fmt.Errorf("flow: %w: capacity %d on arc %d->%d exceeds Unbounded (%d)", ErrBadArc, capacity, from, to, Unbounded)
	}
	nw.arcs = append(nw.arcs, Arc{From: from, To: to, Cost: cost, Cap: capacity})
	return len(nw.arcs) - 1, nil
}

// SetPivotLimit overrides the simplex pivot budget. Zero restores the
// automatic budget (200·arcs + 20000). Used by callers that want an early
// bail-out (and by tests to force the simplex→SSP fallback).
func (nw *Network) SetPivotLimit(limit int) { nw.pivotLimit = limit }

// SetDemand sets the required inflow−outflow balance of node v. Positive
// demands receive flow; negative demands supply it.
func (nw *Network) SetDemand(v int, d int64) { nw.demand[v] = d }

// Demand returns the demand of node v.
func (nw *Network) Demand(v int) int64 { return nw.demand[v] }

// Validate runs the structural admission checks a solve would perform —
// demand conservation (ErrUnbalanced) and cost/demand magnitude bounds
// (ErrOverflow) — without solving. Lint and other pre-flight callers use
// it to reject doomed networks before paying for a simplex run.
func (nw *Network) Validate() error {
	if err := nw.checkBalanced(); err != nil {
		return err
	}
	return nw.checkMagnitudes()
}

// checkBalanced verifies that total supply matches total demand.
func (nw *Network) checkBalanced() error {
	var sum int64
	for _, d := range nw.demand {
		sum += d
	}
	if sum != 0 {
		return fmt.Errorf("flow: %w: demands sum to %d, want 0", ErrUnbalanced, sum)
	}
	return nil
}

// checkMagnitudes rejects inputs whose absolute costs or demands sum past
// Unbounded: beyond that the simplex big-M basis (bigM = Σ|cost|+1 held in
// node potentials) and the SSP saturation supplies can overflow int64
// arithmetic mid-solve, producing silently wrong answers instead of
// errors. Overflow-scale inputs wrap ErrOverflow up front.
func (nw *Network) checkMagnitudes() error {
	var costSum, demandSum int64
	for _, a := range nw.arcs {
		c := ints.Abs64(a.Cost)
		if c > Unbounded {
			return fmt.Errorf("flow: %w: arc cost %d exceeds %d", ErrOverflow, a.Cost, Unbounded)
		}
		costSum += c
		if costSum > Unbounded {
			return fmt.Errorf("flow: %w: total |cost| exceeds %d", ErrOverflow, Unbounded)
		}
	}
	for v, d := range nw.demand {
		d = ints.Abs64(d)
		if d > Unbounded {
			return fmt.Errorf("flow: %w: demand %d on node %d exceeds %d", ErrOverflow, nw.demand[v], v, Unbounded)
		}
		demandSum += d
		if demandSum > Unbounded {
			return fmt.Errorf("flow: %w: total |demand| exceeds %d", ErrOverflow, Unbounded)
		}
	}
	return nil
}

// Solution is an optimal flow with its objective value and the dual node
// potentials extracted from the residual graph. The potentials satisfy
// π(u) − π(v) ≤ cost(a) for every arc a=(u,v) with residual capacity and
// achieve equality on arcs carrying flow, which is exactly primal-dual
// optimality for the difference-constraint LP this package serves.
type Solution struct {
	Flow      []int64
	Cost      int64
	Potential []int64
}

// verify checks conservation, capacities and complementary slackness of
// a candidate solution; used by tests and as a cheap internal safeguard.
func (nw *Network) verify(s *Solution) error {
	if len(s.Flow) != len(nw.arcs) {
		return fmt.Errorf("flow: %w: solution has %d flows for %d arcs", ErrInternal, len(s.Flow), len(nw.arcs))
	}
	bal := make([]int64, nw.n)
	var cost int64
	for i, a := range nw.arcs {
		x := s.Flow[i]
		if x < 0 || x > a.Cap {
			return fmt.Errorf("flow: %w: arc %d flow %d outside [0,%d]", ErrInternal, i, x, a.Cap)
		}
		bal[a.To] += x
		bal[a.From] -= x
		cost += a.Cost * x
	}
	for v := 0; v < nw.n; v++ {
		if bal[v] != nw.demand[v] {
			return fmt.Errorf("flow: %w: node %d balance %d, want %d", ErrInternal, v, bal[v], nw.demand[v])
		}
	}
	if cost != s.Cost {
		return fmt.Errorf("flow: %w: cost %d does not match flows (%d)", ErrInternal, s.Cost, cost)
	}
	return nil
}

// residualPotentials computes node potentials by single-source shortest
// paths over the residual graph of the flow (SPFA, handles the negative
// residual costs of loaded arcs). Unreachable nodes keep potential 0,
// which is safe for this package's LPs because their graphs connect every
// node to the root through variable-bound arcs.
func (nw *Network) residualPotentials(flowv []int64, root int) []int64 {
	type radj struct {
		to   int
		cost int64
	}
	adj := make([][]radj, nw.n)
	for i, a := range nw.arcs {
		if flowv[i] < a.Cap {
			adj[a.From] = append(adj[a.From], radj{to: a.To, cost: a.Cost})
		}
		if flowv[i] > 0 {
			adj[a.To] = append(adj[a.To], radj{to: a.From, cost: -a.Cost})
		}
	}
	const inf = math.MaxInt64 / 4
	dist := make([]int64, nw.n)
	inQueue := make([]bool, nw.n)
	for v := range dist {
		dist[v] = inf
	}
	dist[root] = 0
	queue := []int{root}
	inQueue[root] = true
	// Pop budget guards against a (theoretically impossible on an
	// optimal flow) negative residual cycle; callers that depend on the
	// potentials verify them against their own constraints.
	budget := 4 * (nw.n + 1) * (nw.n + 1)
	for len(queue) > 0 && budget > 0 {
		budget--
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		for _, e := range adj[u] {
			if nd := dist[u] + e.cost; nd < dist[e.to] {
				dist[e.to] = nd
				if !inQueue[e.to] {
					queue = append(queue, e.to)
					inQueue[e.to] = true
				}
			}
		}
	}
	pot := make([]int64, nw.n)
	for v := range pot {
		if dist[v] < inf {
			pot[v] = -dist[v]
		}
	}
	return pot
}

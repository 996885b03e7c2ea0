package flow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"relatch/internal/ints"
	"relatch/internal/obs"
)

// solveSimplexRef is the network simplex as it stood before the
// thread-indexed tree: depth and children lists, a linear removeChild,
// and a stack walk that recomputes every re-hung node's depth and
// potential from its parent arc. It is kept only as the pivot-path
// reference for TestSimplexMatchesReference: entering selection, the
// leaving arc's tie-break and the re-hung tree are the contract the
// production solver must reproduce pivot for pivot.
func (nw *Network) solveSimplexRef(ctx context.Context) (sol *Solution, err error) {
	// Counters accumulate in locals and land on the span once, in the
	// deferred close: the pivot loop itself stays instrumentation-free.
	sp, ctx := obs.StartSpan(ctx, "flow.simplex")
	var pivotCount, degenerateCount int
	defer func() {
		sp.Add("pivots", int64(pivotCount))
		sp.Add("degenerate_pivots", int64(degenerateCount))
		sp.Fail(err)
		sp.End()
	}()
	if err := nw.checkBalanced(); err != nil {
		return nil, err
	}
	if err := nw.checkMagnitudes(); err != nil {
		return nil, err
	}
	n := nw.n
	sp.Gauge("nodes", int64(n))
	sp.Gauge("arcs", int64(len(nw.arcs)))
	root := n
	m := len(nw.arcs)

	type sArc struct {
		from, to  int
		cost, cap int64
	}
	arcs := make([]sArc, m, m+n)
	var costSum int64
	for i, a := range nw.arcs {
		arcs[i] = sArc{from: a.From, to: a.To, cost: a.Cost, cap: a.Cap}
		costSum += ints.Abs64(a.Cost)
	}
	bigM := costSum + 1

	flow := make([]int64, m, m+n)
	state := make([]arcState, m, m+n)

	parent := make([]int, n+1)
	parentArc := make([]int, n+1)
	depth := make([]int, n+1)
	pot := make([]int64, n+1)
	children := make([][]int, n+1)

	parent[root] = -1
	parentArc[root] = -1
	for v := 0; v < n; v++ {
		b := -nw.demand[v] // supply convention: outflow − inflow = b
		ai := len(arcs)
		if b >= 0 {
			arcs = append(arcs, sArc{from: v, to: root, cost: bigM, cap: Unbounded})
			flow = append(flow, b)
			pot[v] = bigM
		} else {
			arcs = append(arcs, sArc{from: root, to: v, cost: bigM, cap: Unbounded})
			flow = append(flow, -b)
			pot[v] = -bigM
		}
		state = append(state, inTree)
		parent[v] = root
		parentArc[v] = ai
		depth[v] = 1
		children[root] = append(children[root], v)
	}

	removeChild := func(p, c int) {
		list := children[p]
		for i, w := range list {
			if w == c {
				list[i] = list[len(list)-1]
				children[p] = list[:len(list)-1]
				return
			}
		}
	}

	reduced := func(i int) int64 {
		a := arcs[i]
		return a.cost - pot[a.from] + pot[a.to]
	}

	// inSubtree reports whether w lies in the subtree rooted at y.
	inSubtree := func(w, y int) bool {
		for depth[w] > depth[y] {
			w = parent[w]
		}
		return w == y
	}

	total := len(arcs)
	blockSize := 64
	for blockSize*blockSize < total {
		blockSize++
	}
	cursor := 0
	degenerate := 0
	const degenerateLimit = 1 << 14
	maxPivots := 200*total + 20000
	if nw.pivotLimit > 0 {
		maxPivots = nw.pivotLimit
	}

	// Residual capacity of a tree step, pushing from node w to its
	// parent (up=true) or from the parent into w (up=false). Hoisted out
	// of the pivot loop: a closure literal there would allocate every
	// pivot. It reads arcs/flow/parentArc through the captured slice
	// headers, which never change identity after this point.
	stepResidual := func(w int, up bool) int64 {
		ai := parentArc[w]
		a := arcs[ai]
		aligned := (a.from == w) == up
		if aligned {
			if a.cap == Unbounded {
				return Unbounded
			}
			return a.cap - flow[ai]
		}
		return flow[ai]
	}

	// Scratch buffers for the tree surgery, reused across pivots with
	// [:0] resets: the backing arrays grow to the longest re-hang chain
	// seen and then the loop runs allocation-free (alloc_test.go holds
	// the measured baseline).
	var chain, oldArcs, stack []int

	for pivots := 0; ; pivots++ {
		pivotCount = pivots
		if pivots > maxPivots {
			return nil, fmt.Errorf("flow: %w: simplex exceeded %d pivots", ErrPivotLimit, maxPivots)
		}
		if pivots&255 == 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("flow: simplex cancelled after %d pivots: %w", pivots, ctx.Err())
			default:
			}
		}
		// Entering arc selection.
		entering := -1
		var bestViol int64
		if degenerate > degenerateLimit {
			// Bland's rule: first violating index.
			for i := 0; i < total; i++ {
				if state[i] == inTree {
					continue
				}
				rc := reduced(i)
				if (state[i] == atLower && rc < 0) || (state[i] == atUpper && rc > 0) {
					entering = i
					break
				}
			}
		} else {
			scanned := 0
			for scanned < total && entering < 0 {
				for k := 0; k < blockSize; k++ {
					i := cursor
					cursor++
					if cursor == total {
						cursor = 0
					}
					if state[i] == inTree {
						continue
					}
					rc := reduced(i)
					var viol int64
					if state[i] == atLower && rc < 0 {
						viol = -rc
					} else if state[i] == atUpper && rc > 0 {
						viol = rc
					}
					if viol > bestViol {
						bestViol = viol
						entering = i
					}
				}
				scanned += blockSize
			}
		}
		if entering < 0 {
			break // optimal
		}

		// Push direction: from u to v in residual terms.
		ea := arcs[entering]
		u, v := ea.from, ea.to
		if state[entering] == atUpper {
			u, v = v, u
		}

		// Walk both sides to the LCA, recording the blocking residual.
		delta := ea.cap
		if state[entering] == atUpper {
			delta = flow[entering]
		} else if ea.cap != Unbounded {
			delta = ea.cap - flow[entering]
		} else {
			delta = Unbounded
		}
		leaving := entering

		x, y := v, u
		for x != y {
			if depth[x] >= depth[y] {
				if r := stepResidual(x, true); r < delta {
					delta = r
					leaving = parentArc[x]
				}
				x = parent[x]
			} else {
				if r := stepResidual(y, false); r < delta {
					delta = r
					leaving = parentArc[y]
				}
				y = parent[y]
			}
		}
		if delta == Unbounded {
			return nil, fmt.Errorf("flow: %w: negative-cost cycle of infinite capacity", ErrUnbounded)
		}
		if delta == 0 {
			degenerate++
			degenerateCount++
		} else {
			degenerate = 0
		}

		// Apply the flow change around the cycle.
		if state[entering] == atUpper {
			flow[entering] -= delta
		} else {
			flow[entering] += delta
		}
		x, y = v, u
		for x != y {
			if depth[x] >= depth[y] {
				ai := parentArc[x]
				if arcs[ai].from == x {
					flow[ai] += delta
				} else {
					flow[ai] -= delta
				}
				x = parent[x]
			} else {
				ai := parentArc[y]
				if arcs[ai].to == y {
					flow[ai] += delta
				} else {
					flow[ai] -= delta
				}
				y = parent[y]
			}
		}

		if leaving == entering {
			// The entering arc saturated; it swaps bounds and the tree
			// is unchanged.
			if state[entering] == atLower {
				state[entering] = atUpper
			} else {
				state[entering] = atLower
			}
			continue
		}

		// Tree surgery: remove the leaving arc, attach the entering arc.
		la := arcs[leaving]
		yl := la.from
		if parent[la.to] == la.from {
			yl = la.to
		}
		if flow[leaving] == 0 {
			state[leaving] = atLower
		} else {
			state[leaving] = atUpper
		}
		removeChild(parent[yl], yl)

		p, q := ea.from, ea.to
		if !inSubtree(p, yl) {
			p, q = q, p
		}
		// Re-root the detached subtree at p by reversing the chain p→yl.
		chain = chain[:0]
		for w := p; ; w = parent[w] {
			chain = append(chain, w)
			if w == yl {
				break
			}
		}
		oldArcs = oldArcs[:0]
		for i := 0; i+1 < len(chain); i++ {
			oldArcs = append(oldArcs, parentArc[chain[i]])
			removeChild(chain[i+1], chain[i])
		}
		for i := 0; i+1 < len(chain); i++ {
			parent[chain[i+1]] = chain[i]
			parentArc[chain[i+1]] = oldArcs[i]
			children[chain[i]] = append(children[chain[i]], chain[i+1])
		}
		parent[p] = q
		parentArc[p] = entering
		children[q] = append(children[q], p)
		state[entering] = inTree

		// Refresh depth and potentials over the re-hung subtree.
		stack = append(stack[:0], p)
		for len(stack) > 0 {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			pw := parent[w]
			ai := parentArc[w]
			depth[w] = depth[pw] + 1
			if arcs[ai].from == pw {
				// rc = cost − pot(pw) + pot(w) = 0
				pot[w] = pot[pw] - arcs[ai].cost
			} else {
				pot[w] = pot[pw] + arcs[ai].cost
			}
			stack = append(stack, children[w]...)
		}
	}

	// Feasibility: artificial arcs must be idle.
	for i := m; i < len(arcs); i++ {
		if flow[i] != 0 {
			return nil, fmt.Errorf("flow: %w: artificial arc carries %d units", ErrInfeasible, flow[i])
		}
	}
	sol = &Solution{Flow: make([]int64, m)}
	for i := 0; i < m; i++ {
		sol.Flow[i] = flow[i]
		sol.Cost += nw.arcs[i].Cost * flow[i]
	}
	if err := nw.verify(sol); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	sol.Potential = nw.residualPotentials(sol.Flow, nw.potentialRoot())
	return sol, nil
}

// simplexRun is one traced solve: its result plus the pivot counters of
// its flow.simplex span.
type simplexRun struct {
	sol                 *Solution
	err                 error
	pivots, degenerates int64
}

func traceSimplex(nw *Network, solve func(*Network, context.Context) (*Solution, error)) simplexRun {
	tr := obs.New("test")
	sol, err := solve(nw, obs.WithTracer(context.Background(), tr))
	tr.Finish()
	r := tr.Report()
	return simplexRun{sol, err, r.Sum("flow.simplex", "pivots"), r.Sum("flow.simplex", "degenerate_pivots")}
}

// pivotNet draws a transshipment instance for the pivot-path check:
// capacitated and uncapacitated arcs, parallel arcs, zero-cost arcs for
// degenerate runs, and negative costs, so that some instances are
// infeasible (capacities or reachability too tight) and some unbounded
// (a negative cycle of uncapacitated arcs).
func pivotNet(t *testing.T, rng *rand.Rand) *Network {
	t.Helper()
	n := 2 + rng.Intn(30)
	if rng.Intn(8) == 0 {
		n = 40 + rng.Intn(120)
	}
	nw := NewNetwork(n)
	for k := rng.Intn(n); k >= 0; k-- {
		u, v, d := rng.Intn(n), rng.Intn(n), int64(1+rng.Intn(12))
		nw.SetDemand(u, nw.Demand(u)-d)
		nw.SetDemand(v, nw.Demand(v)+d)
	}
	negative := rng.Intn(3) == 0
	if rng.Intn(4) != 0 {
		// A two-way spine of costly uncapacitated arcs keeps most
		// instances feasible; without it many are not.
		for v := 0; v+1 < n; v++ {
			addArc(t, nw, v, v+1, 25, Unbounded)
			addArc(t, nw, v+1, v, 25, Unbounded)
		}
	}
	arcs := n + rng.Intn(3*n)
	for i := 0; i < arcs; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if nw.NumArcs() > 0 && rng.Intn(6) == 0 {
			a := nw.Arc(rng.Intn(nw.NumArcs())) // parallel arc
			from, to = a.From, a.To
		}
		if from == to {
			continue
		}
		cost := int64(rng.Intn(20))
		switch {
		case rng.Intn(4) == 0:
			cost = 0
		case negative && rng.Intn(5) == 0:
			cost = -cost
		}
		capacity := Unbounded
		if rng.Intn(2) == 0 {
			capacity = int64(rng.Intn(16))
		}
		addArc(t, nw, from, to, cost, capacity)
	}
	if rng.Intn(10) == 0 {
		nw.SetPivotLimit(1 + rng.Intn(2*n))
	}
	return nw
}

// TestSimplexMatchesReference pins the thread-indexed tree to the pivot
// path of the children-list tree it replaced: on every instance both take
// the same number of pivots and degenerate pivots and return the same
// flows and cost, or the same error.
func TestSimplexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	outcomes := map[string]int{}
	var pivots int64
	for trial := 0; trial < 600; trial++ {
		nw := pivotNet(t, rng)
		got := traceSimplex(nw, (*Network).SolveSimplexCtx)
		want := traceSimplex(nw, (*Network).solveSimplexRef)
		if got.pivots != want.pivots || got.degenerates != want.degenerates {
			t.Fatalf("trial %d: %d pivots (%d degenerate), reference %d (%d)",
				trial, got.pivots, got.degenerates, want.pivots, want.degenerates)
		}
		if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
			t.Fatalf("trial %d: error %v, reference %v", trial, got.err, want.err)
		}
		outcome := "optimal"
		for _, sentinel := range []error{ErrInfeasible, ErrUnbounded, ErrPivotLimit} {
			if errors.Is(got.err, sentinel) != errors.Is(want.err, sentinel) {
				t.Fatalf("trial %d: error %v, reference %v", trial, got.err, want.err)
			}
			if errors.Is(got.err, sentinel) {
				outcome = sentinel.Error()
			}
		}
		outcomes[outcome]++
		pivots += got.pivots
		if got.err != nil {
			continue
		}
		if got.sol.Cost != want.sol.Cost || !slices.Equal(got.sol.Flow, want.sol.Flow) {
			t.Fatalf("trial %d: cost %d flows %v, reference %d %v",
				trial, got.sol.Cost, got.sol.Flow, want.sol.Cost, want.sol.Flow)
		}
	}
	for _, outcome := range []string{"optimal", ErrInfeasible.Error(), ErrUnbounded.Error(), ErrPivotLimit.Error()} {
		if outcomes[outcome] < 20 {
			t.Errorf("only %d instances ended %q; the generator no longer covers it (%v)", outcomes[outcome], outcome, outcomes)
		}
	}
	t.Logf("outcomes: %v, %d pivots", outcomes, pivots)
}

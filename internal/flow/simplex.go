package flow

import (
	"context"
	"fmt"

	"relatch/internal/ints"
	"relatch/internal/obs"
)

// arcState tracks where a non-tree arc sits.
type arcState int8

const (
	atLower arcState = iota
	inTree
	atUpper
)

// SolveSimplex computes a min-cost flow with the primal network simplex
// method (the solver the paper uses, Section IV-D): a big-M artificial
// star forms the initial spanning-tree basis, entering arcs are chosen by
// block search over reduced costs (falling back to Bland's rule under
// long degenerate runs, which guarantees termination), and the basis is
// a thread-indexed tree (see tree) whose pivots touch only the cycle,
// the reversed stem and the re-hung subtree's potentials.
func (nw *Network) SolveSimplex() (*Solution, error) {
	return nw.SolveSimplexCtx(context.Background())
}

// tree is the simplex basis: a spanning tree over the network's nodes
// and the artificial root, in the thread-index layout of Király and
// Kovács ("Efficient implementations of minimum-cost flow algorithms",
// 2012), the one LEMON's network simplex uses. thread lists the nodes in
// preorder and closes back on the root; revThread inverts it. The
// subtree of w is the thread segment from w to lastSucc[w], succNum[w]
// nodes long, so no per-node depth or child list is kept.
type tree struct {
	parent    []int // -1 at the root
	parentArc []int // the tree arc to parent; -1 at the root
	thread    []int
	revThread []int
	succNum   []int
	lastSucc  []int
	stem      []int // rehang scratch, one slot per node
}

// newTree returns the star around root n: every node hangs off the root,
// in thread order root, 0, 1, …, n−1. The caller fills parentArc.
func newTree(n int) *tree {
	root := n
	t := &tree{
		parent:    make([]int, n+1),
		parentArc: make([]int, n+1),
		thread:    make([]int, n+1),
		revThread: make([]int, n+1),
		succNum:   make([]int, n+1),
		lastSucc:  make([]int, n+1),
		stem:      make([]int, n+1),
	}
	for w := 0; w <= n; w++ {
		t.parent[w] = root
		t.thread[w], t.revThread[w] = (w+1)%(n+1), (w+n)%(n+1)
		t.succNum[w], t.lastSucc[w] = 1, w
	}
	t.parent[root], t.parentArc[root] = -1, -1
	t.succNum[root], t.lastSucc[root] = n+1, t.revThread[root]
	return t
}

// join returns the lowest common ancestor of u and v with each one's
// distance to it. An ancestor has more successors than any node below
// it, so the side with fewer successors cannot hold the join and climbs;
// on a tie neither is the other's ancestor and v climbs.
func (t *tree) join(u, v int) (w, du, dv int) {
	for u != v {
		if t.succNum[u] < t.succNum[v] {
			u = t.parent[u]
			du++
		} else {
			v = t.parent[v]
			dv++
		}
	}
	return u, du, dv
}

// rehang replaces the tree arc above uOut with arc, which joins uIn, a
// node of uOut's subtree, to vIn outside it; join is the lowest common
// ancestor of uIn and vIn. The subtree's thread segment is cut out,
// re-rooted at uIn by reversing the stem from uIn up to uOut, and
// spliced back in as vIn's first child (LEMON's updateTreeStructure).
// The subtree keeps its nodes, now thread[uIn…lastSucc[uIn]]; shifting
// their potentials is the caller's.
func (t *tree) rehang(uIn, vIn, uOut, join, arc int) {
	parent, parentArc := t.parent, t.parentArc
	thread, revThread := t.thread, t.revThread
	succNum, lastSucc, stem := t.succNum, t.lastSucc, t.stem

	// stem[0..k] = uIn … uOut, the path whose parent links reverse. It
	// runs once per pivot, so its loops are hot like the pivot loop's.
	k := 0
	stem[0] = uIn
	//relint:hot
	for stem[k] != uOut {
		stem[k+1] = parent[stem[k]]
		k++
	}
	vOut, size, oldLast := parent[uOut], succNum[uOut], lastSucc[uOut]

	// Cut the subtree's segment out of the thread.
	before, after := revThread[uOut], thread[oldLast]
	thread[before], revThread[after] = after, before

	// Re-rooted, the segment lists uIn's old subtree, then for each stem
	// node s = stem[i], i = 1…k, the part of its old subtree outside that
	// of the stem node c = stem[i−1] below it: the run from s to just
	// before c, then the run after c's last successor up to s's own,
	// empty when the two share their last successor. Every stem node's
	// new last successor is the end of uOut's runs. The loop runs from
	// uOut down, so each step still reads the old links below it.
	last := oldLast
	if k > 0 && lastSucc[stem[k-1]] == oldLast {
		last = revThread[stem[k-1]]
	}
	below := 0 // new successor count of stem[i+1]
	//relint:hot
	for i := k; i > 0; i-- {
		s, c := stem[i], stem[i-1]
		end := lastSucc[c] // where the runs s now follows end
		if i > 1 && lastSucc[stem[i-2]] == end {
			end = revThread[stem[i-2]]
		}
		if lastSucc[s] != lastSucc[c] {
			a, b := revThread[c], thread[lastSucc[c]]
			thread[a], revThread[b] = b, a
		}
		thread[end], revThread[s] = s, end
		below += succNum[s] - succNum[c]
		succNum[s], lastSucc[s] = below, last
		parent[s], parentArc[s] = c, parentArc[c]
	}
	parent[uIn], parentArc[uIn] = vIn, arc
	succNum[uIn], lastSucc[uIn] = size, last

	// Splice the segment back in as vIn's first child.
	next := thread[vIn]
	thread[vIn], revThread[uIn] = uIn, vIn
	thread[last], revThread[next] = next, last

	// Below the join, vIn's ancestors gain the subtree and vOut's lose
	// it. An ancestor of vOut whose segment ended with the cut one now
	// ends just before it; an ancestor of vIn whose segment ended at vIn
	// now ends with the spliced one.
	for w := vIn; w != join; w = parent[w] {
		succNum[w] += size
	}
	for w := vOut; w != join; w = parent[w] {
		succNum[w] -= size
	}
	for w := vOut; w >= 0 && lastSucc[w] == oldLast; w = parent[w] {
		lastSucc[w] = before
	}
	for w := vIn; w >= 0 && lastSucc[w] == vIn; w = parent[w] {
		lastSucc[w] = last
	}
}

// SolveSimplexCtx is SolveSimplex under a context: cancellation and
// deadline expiry are observed between pivots and surface as errors
// wrapping ctx.Err().
func (nw *Network) SolveSimplexCtx(ctx context.Context) (sol *Solution, err error) {
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

	tr := newTree(n)
	parent, parentArc, thread := tr.parent, tr.parentArc, tr.thread
	pot := make([]int64, n+1)
	for v := 0; v < n; v++ {
		b := -nw.demand[v] // supply convention: outflow − inflow = b
		parentArc[v] = len(arcs)
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
	}

	reduced := func(i int) int64 {
		a := arcs[i]
		return a.cost - pot[a.from] + pot[a.to]
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

	//relint:hot
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

		// The cycle is the entering arc plus the tree paths from v and
		// from u up to their join. The leaving arc is the first strict
		// minimum of the residuals in depth order: the deeper side steps
		// first, v's side on a tie. Depth below the join is the distance
		// to it, so two counters replay that order exactly.
		delta := ea.cap
		if state[entering] == atUpper {
			delta = flow[entering]
		} else if ea.cap != Unbounded {
			delta = ea.cap - flow[entering]
		} else {
			delta = Unbounded
		}
		leaving := entering
		uOut, onV := -1, false // leaving arc's child end, and its side

		join, dv, du := tr.join(v, u)
		x, y := v, u
		for x != y {
			if dv >= du {
				if r := stepResidual(x, true); r < delta {
					delta, leaving, uOut, onV = r, parentArc[x], x, true
				}
				x = parent[x]
				dv--
			} else {
				if r := stepResidual(y, false); r < delta {
					delta, leaving, uOut, onV = r, parentArc[y], y, false
				}
				y = parent[y]
				du--
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
		if delta != 0 {
			for x = v; x != join; x = parent[x] {
				if ai := parentArc[x]; arcs[ai].from == x {
					flow[ai] += delta
				} else {
					flow[ai] -= delta
				}
			}
			for y = u; y != join; y = parent[y] {
				if ai := parentArc[y]; arcs[ai].to == y {
					flow[ai] += delta
				} else {
					flow[ai] -= delta
				}
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

		// Tree update: the subtree below the leaving arc holds the
		// endpoint on the side it was found on, and re-hangs from it.
		if flow[leaving] == 0 {
			state[leaving] = atLower
		} else {
			state[leaving] = atUpper
		}
		state[entering] = inTree
		uIn, vIn := u, v
		if onV {
			uIn, vIn = v, u
		}
		// Shift the subtree's potentials by the entering arc's reduced
		// cost, so that it prices to zero: +rc when the subtree holds the
		// arc's tail, −rc when it holds the head. Only potential
		// differences are ever read, so when the subtree is the larger
		// side the rest of the tree shifts the other way instead. The
		// root then drifts from zero; Go's wrapping arithmetic keeps
		// every difference exact even if the drift overflows.
		shift := reduced(entering)
		if uIn != ea.from {
			shift = -shift
		}
		tr.rehang(uIn, vIn, uOut, join, entering)
		if size := tr.succNum[uIn]; 2*size <= n+1 {
			for w, i := uIn, size; i > 0; w, i = thread[w], i-1 {
				pot[w] += shift
			}
		} else {
			for w := thread[tr.lastSucc[uIn]]; w != uIn; w = thread[w] {
				pot[w] -= shift
			}
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

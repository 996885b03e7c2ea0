package flow

import (
	"context"
	"fmt"

	"relatch/internal/ints"
	"relatch/internal/obs"
)

// Feasible decides whether some assignment satisfies every constraint of
// the program, without optimizing: the Leiserson–Saxe FEAS check. Each
// constraint r(U) − r(V) ≤ C is an arc V→U of weight C, every variable
// starts at distance 0 from a virtual source, and the system is feasible
// exactly when this constraint graph has no negative cycle. Bounds are
// constraints against the anchor, so for a program whose every variable
// is bounded, Feasible succeeds exactly when SolveCtx does.
//
// The check is a FIFO Bellman-Ford with Tarjan's subtree disassembly:
// when a label drops, the shortest-path subtree below it is detached, so
// every tree arc stays tight and a relaxation that would close a tree
// cycle is caught the moment it happens. The tree path plus that arc is
// the returned cycle, in order (cycle[i].U == cycle[i+1].V, wrapping
// around); its C values sum below zero, the certificate of
// infeasibility. A feasible verdict is certified too: the final labels
// are checked against every constraint. Arithmetic is exact int64, with
// magnitudes bounded like the solvers' (ErrOverflow). Cancellation is
// observed between scans.
func (l *DiffLP) Feasible(ctx context.Context) (ok bool, cycle []Constraint, err error) {
	sp, _ := obs.StartSpan(ctx, "flow.feasible")
	defer func() {
		switch {
		case err != nil:
			sp.Fail(err)
		case ok:
			sp.Attr("verdict", "feasible")
		default:
			sp.Attr("verdict", "infeasible")
		}
		sp.End()
	}()
	n, cons := l.n, l.cons
	sp.Gauge("variables", int64(n))
	sp.Gauge("constraints", int64(len(cons)))
	// Labels are simple-path weights, so |label| ≤ Σ|C| ≤ Unbounded
	// keeps every sum below in range.
	var sum int64
	for _, c := range cons {
		if sum += ints.Abs64(c.C); sum > Unbounded || c.C < -Unbounded {
			return false, nil, fmt.Errorf("flow: %w: total |constraint bound| exceeds %d", ErrOverflow, Unbounded)
		}
	}

	// Out-arcs of V in constraint order (CSR).
	first := make([]int, n+1)
	for _, c := range cons {
		first[c.V+1]++
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	out := make([]int, len(cons))
	fill := append([]int(nil), first[:n]...)
	for i, c := range cons {
		out[fill[c.V]] = i
		fill[c.V]++
	}

	// The shortest-path tree hangs off the virtual source, node n. It is
	// kept as a circular preorder thread (next/prev) with depths, so a
	// subtree is the run after its root whose depths are greater.
	// tight[w] is the constraint whose arc leads into w, -1 at depth 1.
	dist := make([]int64, n+1)
	depth := make([]int, n+1)
	next := make([]int, n+1)
	prev := make([]int, n+1)
	tight := make([]int, n+1)
	inTree := make([]bool, n+1)
	queued := make([]bool, n)
	queue := make([]int, n)
	for v := 0; v <= n; v++ {
		next[v], prev[v] = (v+1)%(n+1), (v+n)%(n+1)
		depth[v], tight[v], inTree[v] = 1, -1, true
	}
	depth[n] = 0
	for v := 0; v < n; v++ {
		queue[v], queued[v] = v, true
	}
	head, size := 0, n

	//relint:hot
	for scans := 0; size > 0; scans++ {
		if scans&1023 == 0 {
			select {
			case <-ctx.Done():
				return false, nil, fmt.Errorf("flow: feasibility check cancelled after %d scans: %w", scans, ctx.Err())
			default:
			}
		}
		x := queue[head]
		if head++; head == n {
			head = 0
		}
		size--
		queued[x] = false
		if !inTree[x] {
			continue // detached after it was queued; re-queued once relabelled
		}
		for _, ci := range out[first[x]:first[x+1]] {
			y := cons[ci].U
			d := dist[x] + cons[ci].C
			if d >= dist[y] {
				continue
			}
			if inTree[y] {
				if y == x {
					return false, []Constraint{cons[ci]}, nil
				}
				// Detach y's subtree; x inside it closes a negative cycle.
				z := next[y]
				for depth[z] > depth[y] {
					if z == x {
						return false, l.treeCycle(tight, y, x, ci), nil
					}
					inTree[z] = false
					z = next[z]
				}
				next[prev[y]], prev[z] = z, prev[y]
			}
			dist[y], depth[y], tight[y], inTree[y] = d, depth[x]+1, ci, true
			next[y], prev[y] = next[x], x
			prev[next[x]], next[x] = y, y
			if !queued[y] {
				queue[(head+size)%n], queued[y] = y, true
				size++
			}
		}
	}
	if err := l.checkFeasible(dist[:n]); err != nil {
		return false, nil, fmt.Errorf("flow: %w: feasibility labels violate a constraint: %v", ErrInternal, err)
	}
	return true, nil, nil
}

// treeCycle returns the negative cycle closed by constraint ci, whose
// arc runs from x back to its tree ancestor y: the tight tree path
// y ⇝ x followed by ci.
func (l *DiffLP) treeCycle(tight []int, y, x, ci int) []Constraint {
	var path []Constraint
	for w := x; w != y; w = l.cons[tight[w]].V {
		path = append(path, l.cons[tight[w]])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return append(path, l.cons[ci])
}

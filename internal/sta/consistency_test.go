package sta_test

import (
	"math"
	"math/rand"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/clocking"
	"relatch/internal/fig4"
	"relatch/internal/netlist"
	"relatch/internal/sta"
)

// TestEquationFiveMatchesLatchedAnalysis is the consistency property the
// whole retiming model rests on: for any legal single-latch-per-path
// placement, the latch-aware arrival at an endpoint equals the maximum of
// Eq. (5)'s aFrom over the latched drivers in its fan-in cone — i.e. the
// LP's timing model and the sign-off analysis are the same function.
func TestEquationFiveMatchesLatchedAnalysis(t *testing.T) {
	lib := cell.Default(1.0)
	latch := lib.BaseLatch
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, err := bench.RandomCloud("eq5", lib, rng, bench.RandomSpec{
			Inputs:   2 + rng.Intn(4),
			Outputs:  1 + rng.Intn(3),
			Gates:    8 + rng.Intn(25),
			Locality: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		tm := sta.Analyze(c, sta.DefaultOptions(lib))
		scheme := bench.SchemeFor(c, sta.DefaultOptions(lib))

		// Random legal placement: choose r ∈ {−1,0} monotone along
		// edges by thresholding a random topological rank.
		r := randomLegalRetiming(c, rng)
		p := netlist.FromRetiming(c, r)
		if p.Validate(c) != nil {
			continue
		}
		la := sta.AnalyzeLatched(tm, p, scheme, latch)

		for _, o := range c.Outputs {
			want := eqFiveArrival(tm, c, p, o, scheme, latch)
			got := la.EndpointArrival(o)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d endpoint %s: latched arrival %.9f, Eq. (5) max %.9f",
					seed, o.Name, got, want)
			}
		}
	}
}

// randomLegalRetiming assigns r by a random cut along the topological
// order: every node before the cut retimes, every node after stays, which
// keeps w_r ≥ 0 on all edges... except edges jumping the cut backwards
// are impossible by topology, so the assignment is always legal.
func randomLegalRetiming(c *netlist.Circuit, rng *rand.Rand) map[int]int {
	topo := c.Topo()
	// The cut must respect edges: use a monotone threshold on the
	// longest-path level, so no edge jumps the cut backwards.
	level := make(map[int]int, len(topo))
	maxLevel := 0
	for _, n := range topo {
		l := 0
		for _, f := range n.Fanin {
			if level[f.ID]+1 > l {
				l = level[f.ID] + 1
			}
		}
		level[n.ID] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	cut := rng.Intn(maxLevel + 1)
	r := make(map[int]int)
	for _, n := range topo {
		if n.Kind != netlist.KindOutput && level[n.ID] < cut {
			r[n.ID] = -1
		}
	}
	return r
}

// aFrom computes the arrival at the target when a physical slave latch
// sits at the *output* of node u (covering all of u's latched fanout
// edges): max over fanout edges of A(u,v,t), which collapses to
// max{φ1+γ1+ClkToQ, D^f(u)+DToQ} + D^b(u,t).
func aFrom(tm *sta.Timing, u *netlist.Node, db []float64, s clocking.Scheme, l cell.Latch) float64 {
	if math.IsNaN(db[u.ID]) {
		return math.NaN()
	}
	launch := s.SlaveOpen() + l.ClkToQ
	if d := tm.Df(u) + l.DToQ; d > launch {
		launch = d
	}
	return launch + db[u.ID]
}

func TestFig4AFrom(t *testing.T) {
	c := fig4.MustCircuit()
	tm := sta.Analyze(c, sta.Options{Model: sta.ModelFixed, FixedDelays: fig4.FixedDelays(c)})
	node := func(name string) *netlist.Node {
		n, ok := c.Node(name)
		if !ok {
			t.Fatalf("node %s missing", name)
		}
		return n
	}
	db := tm.BackwardMap(node("O9"))
	s := fig4.Scheme()
	l := fig4.ZeroLatch()
	// A latch at G6's output: max(5, 7) + D^b(G6) = 9; at G3's output:
	// max(5, 2) + D^b(G3) = 12 (Cut1's arrival).
	for name, want := range map[string]float64{"G6": 9, "G3": 12} {
		if got := aFrom(tm, node(name), db, s, l); got != want {
			t.Errorf("aFrom(%s) = %g, want %g", name, got, want)
		}
	}
}

// eqFiveArrival computes max over latched drivers u in FIC(o) of
// aFrom(u, o) — the Eq. (5) view of the endpoint arrival.
func eqFiveArrival(tm *sta.Timing, c *netlist.Circuit, p *netlist.Placement, o *netlist.Node, s clocking.Scheme, l cell.Latch) float64 {
	db := tm.BackwardMap(o)
	cone := make(map[int]bool)
	for _, n := range c.FaninCone(o) {
		cone[n.ID] = true
	}
	worst := math.Inf(-1)
	launchOnly := true
	for id := range cone {
		u := c.Nodes[id]
		latched := p.AtInput[u.ID]
		if !latched {
			for _, v := range u.Fanout {
				if cone[v.ID] && p.OnEdge[netlist.Edge{From: u.ID, To: v.ID}] {
					latched = true
					break
				}
			}
		}
		if !latched {
			continue
		}
		launchOnly = false
		// Per-edge accuracy: only latched edges inside the cone count.
		if p.AtInput[u.ID] {
			if a := aFrom(tm, u, db, s, l); a > worst {
				worst = a
			}
			continue
		}
		for _, v := range u.Fanout {
			if !cone[v.ID] || !p.OnEdge[netlist.Edge{From: u.ID, To: v.ID}] {
				continue
			}
			if a := tm.A(u, v, db, s, l); a > worst {
				worst = a
			}
		}
	}
	if launchOnly {
		return 0
	}
	return worst
}

// TestCloneIsolation: resizing a cloned circuit's gate must not affect
// the original (the virtual-library flow depends on this).
func TestCloneIsolation(t *testing.T) {
	lib := cell.Default(1.0)
	rng := rand.New(rand.NewSource(3))
	c, err := bench.RandomCloud("clone", lib, rng, bench.RandomSpec{Inputs: 3, Outputs: 2, Gates: 12})
	if err != nil {
		t.Fatal(err)
	}
	clone := c.Clone()
	var gate *netlist.Node
	for _, n := range clone.Nodes {
		if n.Kind == netlist.KindGate && lib.Upsize(n.Cell) != nil {
			gate = n
			break
		}
	}
	if gate == nil {
		t.Skip("no upsizable gate")
	}
	before := c.Nodes[gate.ID].Cell
	gate.Cell = lib.Upsize(gate.Cell)
	if c.Nodes[gate.ID].Cell != before {
		t.Fatal("resizing the clone mutated the original")
	}
	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}
	// Timing of the original must be unchanged.
	a := sta.Analyze(c, sta.DefaultOptions(lib))
	b := sta.Analyze(clone, sta.DefaultOptions(lib))
	diff := false
	for _, o := range c.Outputs {
		if math.Abs(a.Arrival(o)-b.Arrival(clone.Nodes[o.ID])) > 1e-12 {
			diff = true
		}
	}
	if !diff {
		t.Log("resize did not change any endpoint timing (acceptable; off-path gate)")
	}
}

package rgraph

import (
	"math"
	"slices"
	"sort"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/netlist"
	"relatch/internal/sta"
)

// refCutSet is cutSet as it stood before the cone walk: a fan-in cone
// map, a NaN-filled D^b map the size of the circuit from a backward pass
// over the whole topological order, a scan of every node, and
// refPruneAncestors. It is kept only as the reference for
// TestCutSetMatchesWholeCircuit.
func (g *Graph) refCutSet(t *netlist.Node) []int {
	db := refBackwardMap(g.T, t)
	period := g.Cfg.Scheme.Period()
	s := g.Cfg.Scheme
	l := g.Cfg.Latch
	var cut []int
	for _, v := range g.C.Nodes {
		if v.Kind == netlist.KindOutput || math.IsNaN(db[v.ID]) {
			continue
		}
		okForward := false
		for _, n := range v.Fanout {
			if math.IsNaN(db[n.ID]) {
				continue
			}
			if g.T.A(v, n, db, s, l) <= period+eps {
				okForward = true
				break
			}
		}
		if !okForward {
			continue
		}
		violBehind := false
		if v.Kind == netlist.KindInput {
			launch := s.SlaveOpen() + l.ClkToQ
			if d := g.T.Opt.LaunchDelay + l.DToQ; d > launch {
				launch = d
			}
			violBehind = launch+db[v.ID] > period+eps
		} else {
			for _, k := range v.Fanin {
				if g.T.A(k, v, db, s, l) > period+eps {
					violBehind = true
					break
				}
			}
		}
		if violBehind {
			cut = append(cut, v.ID)
		}
	}
	cut = g.refPruneAncestors(cut)
	sort.Ints(cut)
	return cut
}

// refPruneAncestors drops cut members with another member downstream,
// walking the whole topological order.
func (g *Graph) refPruneAncestors(cut []int) []int {
	inCut := make(map[int]bool, len(cut))
	for _, id := range cut {
		inCut[id] = true
	}
	reaches := make([]bool, len(g.C.Nodes))
	topo := g.C.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		for _, f := range n.Fanout {
			if inCut[f.ID] || reaches[f.ID] {
				reaches[n.ID] = true
				break
			}
		}
	}
	var out []int
	for _, id := range cut {
		if !reaches[id] {
			out = append(out, id)
		}
	}
	return out
}

// refBackwardMap is the whole-circuit D^b pass: NaN outside the fan-in
// cone, found as a map by a walk over fanins.
func refBackwardMap(tm *sta.Timing, target *netlist.Node) []float64 {
	cone := make(map[int]bool)
	var walk func(n *netlist.Node)
	walk = func(n *netlist.Node) {
		if cone[n.ID] {
			return
		}
		cone[n.ID] = true
		for _, f := range n.Fanin {
			walk(f)
		}
	}
	walk(target)
	db := make([]float64, len(tm.C.Nodes))
	for i := range db {
		db[i] = math.NaN()
	}
	db[target.ID] = 0
	topo := tm.C.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		if !cone[n.ID] || n == target {
			continue
		}
		best := math.Inf(-1)
		for _, f := range n.Fanout {
			if !cone[f.ID] || math.IsNaN(db[f.ID]) {
				continue
			}
			if d := tm.EdgeDelay(n, f) + db[f.ID]; d > best {
				best = d
			}
		}
		if !math.IsInf(best, -1) {
			db[n.ID] = best
		}
	}
	return db
}

// TestCutSetMatchesWholeCircuit: the cone walk returns, for every target
// master of the benchmarks at c = 1, the cut set the whole-circuit
// computation returns.
func TestCutSetMatchesWholeCircuit(t *testing.T) {
	names := []string{"s1196", "s5378", "s38584", "s35932"}
	if !testing.Short() {
		names = append(names, "Plasma")
	}
	lib := cell.Default(1.0)
	for _, name := range names {
		prof, ok := bench.ProfileByName(name)
		if !ok {
			t.Fatalf("%s profile missing", name)
		}
		c, scheme, err := prof.Build(lib)
		if err != nil {
			t.Fatal(err)
		}
		tm := sta.Analyze(c, sta.DefaultOptions(lib))
		g, err := Build(c, tm, Config{Scheme: scheme, Latch: lib.BaseLatch, EDLCost: 1, ResilientAware: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		targets, members := 0, 0
		for _, o := range c.Outputs {
			if g.Class[o.ID] != Target {
				continue
			}
			targets++
			got, want := g.CutSet(o.ID), g.refCutSet(o)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: g(%s) = %v, whole-circuit computation gives %v", name, o.Name, got, want)
			}
			members += len(got)
		}
		if targets == 0 || members == 0 {
			t.Errorf("%s: %d targets with %d cut members; the comparison checks nothing", name, targets, members)
		}
		t.Logf("%s: %d targets, %d cut members", name, targets, members)
	}
}

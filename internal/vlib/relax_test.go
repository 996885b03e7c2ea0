package vlib

import (
	"context"
	"errors"
	"math/bits"
	"strings"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/flow"
	"relatch/internal/netlist"
	"relatch/internal/obs"
	"relatch/internal/sta"
)

// probeBound is the search's probe budget for answer k: 2⌈log₂(k+1)⌉+2.
func probeBound(k int) int { return 2*bits.Len(uint(k)) + 2 }

// TestSearchFlipsStubOracle drives the search with a monotone stub
// oracle: for every threshold k* in 0..n it must return k*, and with no
// feasible k it must say so, each within the probe budget and without
// probing outside 0..n or repeating a probe.
func TestSearchFlipsStubOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8, 17, 64, 100} {
		for want := 0; want <= n+1; want++ { // n+1: never feasible
			probed := make(map[int]bool)
			k, found, err := searchFlips(n, func(k int) (bool, error) {
				if k < 0 || k > n || probed[k] {
					t.Fatalf("n=%d k*=%d: bad or repeated probe %d", n, want, k)
				}
				probed[k] = true
				return k >= want, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want > n {
				if found {
					t.Errorf("n=%d never feasible: found k=%d", n, k)
				}
				if len(probed) > probeBound(n) {
					t.Errorf("n=%d never feasible: %d probes, budget %d", n, len(probed), probeBound(n))
				}
				continue
			}
			if !found || k != want {
				t.Errorf("n=%d k*=%d: got k=%d found=%v", n, want, k, found)
			}
			if len(probed) > probeBound(want) {
				t.Errorf("n=%d k*=%d: %d probes, budget %d", n, want, len(probed), probeBound(want))
			}
		}
	}
}

// TestSearchFlipsOracleErrorAborts: an oracle error ends the search at
// once with that error and no flip count.
func TestSearchFlipsOracleErrorAborts(t *testing.T) {
	boom := errors.New("probe failed")
	for failAt := 1; failAt <= 6; failAt++ {
		probes := 0
		k, found, err := searchFlips(40, func(k int) (bool, error) {
			probes++
			if probes == failAt {
				return false, boom
			}
			return k >= 13, nil
		})
		if !errors.Is(err, boom) || found || k != 0 {
			t.Errorf("error at probe %d: got k=%d found=%v err=%v", failAt, k, found, err)
		}
		if probes != failAt {
			t.Errorf("error at probe %d: search went on to %d probes", failAt, probes)
		}
	}
}

// relaxWorst is the one-flip-per-solve repair the search replaced: flip
// the non-ED endpoint with the worst unlatched arrival. Kept here as the
// reference flipOrder must reproduce.
func relaxWorst(c *netlist.Circuit, tm *sta.Timing, ed map[int]bool) *netlist.Node {
	var worst *netlist.Node
	worstArr := 0.0
	for _, o := range c.Outputs {
		if ed[o.ID] {
			continue
		}
		if a := tm.Arrival(o); a > worstArr {
			worstArr = a
			worst = o
		}
	}
	if worst != nil {
		ed[worst.ID] = true
	}
	return worst
}

// TestFlipOrderMatchesRelaxWorst: with tied arrivals, a zero-arrival
// endpoint and an endpoint already error-detecting, flipOrder is the
// sequence repeated relaxWorst calls produce.
func TestFlipOrderMatchesRelaxWorst(t *testing.T) {
	lib := cell.Default(1.0)
	b := netlist.NewBuilder("ties", lib)
	i0, i1 := b.Input("I0", 0), b.Input("I1", 1)
	buf := lib.MustCell(cell.FuncBuf, 1)
	g3a, g3b := b.Gate("G3a", buf, i0), b.Gate("G3b", buf, i1)
	g5, g1 := b.Gate("G5", buf, i0), b.Gate("G1", buf, i1)
	b.Output("Oa", 0, g3a) // 3
	b.Output("Oz", 1, i0)  // 0: never flips
	b.Output("Oc", 2, g5)  // 5
	b.Output("Ob", 3, g3b) // 3, ties with Oa
	b.Output("Od", 4, g1)  // 1
	b.Output("Oe", 5, g5)  // 5, ties with Oc
	b.Output("Oed", 6, g5) // 5, already error-detecting
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	delays := map[string]float64{"G3a": 3, "G3b": 3, "G5": 5, "G1": 1}
	fixed := make(map[int]float64)
	for _, n := range c.Nodes {
		fixed[n.ID] = delays[n.Name]
	}
	tm := sta.Analyze(c, sta.Options{Model: sta.ModelFixed, FixedDelays: fixed})
	oed, _ := c.Node("Oed")
	ed := map[int]bool{oed.ID: true}

	var got, want []string
	for _, o := range flipOrder(c, tm, ed) {
		got = append(got, o.Name)
	}
	for o := relaxWorst(c, tm, ed); o != nil; o = relaxWorst(c, tm, ed) {
		want = append(want, o.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") || strings.Join(want, " ") != "Oc Oe Oa Ob Od" {
		t.Errorf("flipOrder = %v, relaxWorst sequence = %v, want [Oc Oe Oa Ob Od]", got, want)
	}
}

// TestFeasibleMatchesSimplexOnSeedBenches is the exactness argument of
// the search checked on the small seed benchmarks: at every flip count
// the feasibility check agrees with the simplex, and feasibility is
// monotone in the count.
func TestFeasibleMatchesSimplexOnSeedBenches(t *testing.T) {
	ctx := context.Background()
	lib := cell.Default(1.0)
	for _, name := range []string{"s1196", "s1238", "s1423", "s1488"} {
		prof, ok := bench.ProfileByName(name)
		if !ok {
			t.Fatalf("%s profile missing", name)
		}
		c, scheme, err := prof.Build(lib)
		if err != nil {
			t.Fatal(err)
		}
		tm := sta.Analyze(c, sta.DefaultOptions(c.Lib))
		for _, v := range []Variant{NVL, RVL, EVL} {
			r := newRelaxation(c, tm, Options{Scheme: scheme, EDLCost: 1}, v)
			prev := false
			for k := 0; k <= len(r.order); k++ {
				g, err := r.graph(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				ok, witness, err := g.Feasible(ctx)
				if err != nil {
					t.Fatal(err)
				}
				_, serr := g.SolveCtx(ctx, flow.MethodSimplex)
				if ok != (serr == nil) {
					t.Fatalf("%s %v k=%d: Feasible = %v (witness %v), simplex err = %v", name, v, k, ok, witness, serr)
				}
				if prev && !ok {
					t.Fatalf("%s %v: feasible at k=%d but not at k=%d", name, v, k-1, k)
				}
				prev = ok
			}
		}
	}
}

// TestRetimeTracesProbes pins the observability of the search: every
// probe builds under rgraph.build and decides under flow.feasible
// inside vlib.retime, attempts counts the probes, and a run that had to
// relax names the last infeasible probe's witness cycle.
func TestRetimeTracesProbes(t *testing.T) {
	lib := cell.Default(1.0)
	prof, _ := bench.ProfileByName("s1488")
	c, scheme, err := prof.Build(lib)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("test")
	ctx := obs.WithTracer(context.Background(), tr)
	res, err := RetimeCtx(ctx, c, Options{Scheme: scheme, EDLCost: 1}, NVL)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	r := res.Trace
	top := r.Spans("vlib.retime")
	if len(top) != 1 {
		t.Fatalf("%d vlib.retime spans, want 1", len(top))
	}
	builds, checks := 0, 0
	for _, ch := range top[0].Children() {
		switch ch.Name() {
		case "rgraph.build":
			builds++
		case "flow.feasible":
			checks++
		}
	}
	attempts := top[0].Counter("attempts")
	if int64(builds) != attempts || int64(checks) != attempts || attempts == 0 {
		t.Errorf("attempts = %d, rgraph.build children = %d, flow.feasible spans = %d", attempts, builds, checks)
	}
	if res.Relaxed == 0 {
		t.Fatal("s1488 NVL needed no relaxation; pick a case that does")
	}
	n, ok := top[0].GaugeValue("witness_length")
	w := top[0].AttrValue("witness")
	if !ok || n < 1 || len(strings.Split(w, " → ")) != int(n) {
		t.Errorf("witness_length = %d (%v), witness = %q", n, ok, w)
	}
	if got := len(r.Spans("rgraph.solve")); got != 1 {
		t.Errorf("%d solves, want 1", got)
	}
}

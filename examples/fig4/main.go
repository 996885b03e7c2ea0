// Fig4 walks through the paper's worked example (Figures 3, 4 and 5):
// the nine-node circuit, its timing tables, the retiming regions, the
// cut set g(O9), the two candidate cuts, and the network-flow solve that
// picks the paper's optimal retiming.
//
//	go run ./examples/fig4
package main

import (
	"fmt"
	"log"
	"sort"

	"relatch/internal/core"
	"relatch/internal/fig4"
	"relatch/internal/netlist"
	"relatch/internal/rgraph"
	"relatch/internal/sta"
)

func main() {
	c := fig4.MustCircuit()
	scheme := fig4.Scheme()
	fmt.Println("clocking:", scheme)
	fmt.Print(scheme.Waveform(40))

	tm := sta.Analyze(c, sta.Options{
		Model:       sta.ModelFixed,
		FixedDelays: fig4.FixedDelays(c),
	})
	o9, _ := c.Node("O9")
	db := tm.BackwardMap(o9)

	fmt.Println("\nFig. 4 timing table (d, D^f, D^b to O9):")
	for _, n := range c.Nodes {
		fmt.Printf("  %-3s d=%-3g D^f=%-3g D^b=%g\n",
			n.Name, fig4.Delays[n.Name], tm.Df(n), db[n.ID])
	}

	g, err := rgraph.Build(c, tm, rgraph.Config{
		Scheme:         scheme,
		Latch:          fig4.ZeroLatch(),
		EDLCost:        fig4.EDLOverhead,
		ResilientAware: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nretiming regions (Section IV-B):\n")
	fmt.Printf("  V_m = %v (latches must retime through)\n", names(c, g.Vm))
	fmt.Printf("  V_n = %v (latches must not pass)\n", names(c, g.Vn))
	fmt.Printf("  V_r = %v (free)\n", names(c, g.Vr))
	var gt []string
	for _, id := range g.CutSet(o9.ID) {
		gt = append(gt, c.Nodes[id].Name)
	}
	fmt.Printf("  g(O9) = %v (Eq. 8-9 cut set)\n", gt)

	opt := core.Options{
		Scheme:      scheme,
		EDLCost:     fig4.EDLOverhead,
		TimingModel: sta.ModelFixed,
		FixedDelays: fig4.FixedDelays(c),
	}

	fmt.Println("\ncandidate cuts (Section III):")
	cuts := []struct {
		name string
		p    *netlist.Placement
	}{{"Cut1", fig4.Cut1(c)}, {"Cut2", fig4.Cut2(c)}}
	for _, cut := range cuts {
		name, p := cut.name, cut.p
		res, err := core.Evaluate(c, opt, p)
		if err != nil {
			log.Fatal(err)
		}
		la := sta.AnalyzeLatched(tm, p, scheme, fig4.ZeroLatch())
		cost := float64(res.SlaveCount) + fig4.EDLOverhead*float64(res.EDCount) + 1
		fmt.Printf("  %s: arrival at O9 = %g, %d slaves, O9 error-detecting: %v, cost %g units\n",
			name, la.EndpointArrival(o9), res.SlaveCount, res.EDMasters[o9.ID], cost)
	}

	res, err := core.Retime(c, opt, core.ApproachGRAR)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nG-RAR network-flow solve picks %d slaves, %d error-detecting (the paper's Cut2):\n",
		res.SlaveCount, res.EDCount)
	for _, id := range res.Placement.LatchedDrivers() {
		fmt.Printf("  slave latch at output of %s\n", c.Nodes[id].Name)
	}
}

func names(c *netlist.Circuit, ids map[int]bool) []string {
	var out []string
	for id := range ids {
		out = append(out, c.Nodes[id].Name)
	}
	sort.Strings(out)
	return out
}

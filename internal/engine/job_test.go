package engine

import (
	"testing"
	"time"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/clocking"
	"relatch/internal/core"
	"relatch/internal/netlist"
	"relatch/internal/sta"
	"relatch/internal/verilog"
)

// testSource is a small retimable module shared by the engine tests.
const testSource = `
module m(a, b, y);
input a, b;
output y;
wire w1, w2;
dff r1(clk, w1, a);
nand g1(w2, w1, b);
nand g2(y, w2, w1);
endmodule
`

// testCircuit parses and cuts testSource with a calibrated scheme.
func testCircuit(t *testing.T, lib *cell.Library) (*netlist.Circuit, clocking.Scheme) {
	t.Helper()
	sc, err := verilog.ParseString(testSource, lib)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sc.Cut()
	if err != nil {
		t.Fatal(err)
	}
	return c, bench.SchemeFor(c, sta.DefaultOptions(lib))
}

// testJob builds a solvable job for the approach; every call re-parses
// the source, so two jobs never share a circuit object.
func testJob(t *testing.T, ap Approach) Job {
	t.Helper()
	lib := cell.Default(1.0)
	c, scheme := testCircuit(t, lib)
	return Job{
		Circuit:  c,
		Approach: ap,
		Options:  core.Options{Scheme: scheme, EDLCost: 1.0},
		PostSwap: ap.IsVLib(),
	}
}

func mustKey(t *testing.T, j Job) Key {
	t.Helper()
	k, err := j.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyStableAcrossBuilds(t *testing.T) {
	// Two independently parsed copies of the same source must hash
	// identically: the key addresses work content, not object identity.
	k1 := mustKey(t, testJob(t, GRAR))
	k2 := mustKey(t, testJob(t, GRAR))
	if k1 != k2 {
		t.Errorf("identical jobs hash differently: %s vs %s", k1, k2)
	}
	if len(k1.String()) != 64 || k1.Short() != k1.String()[:12] {
		t.Errorf("bad key rendering: %q / %q", k1.String(), k1.Short())
	}
}

func TestKeyDistinguishesWork(t *testing.T) {
	base := testJob(t, GRAR)
	seen := map[Key]string{mustKey(t, base): "base"}
	record := func(name string, j Job) {
		k := mustKey(t, j)
		if prev, ok := seen[k]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}

	other := testJob(t, Base)
	record("approach base", other)
	for _, ap := range []Approach{NVL, EVL, RVL} {
		record("approach "+string(ap), testJob(t, ap))
	}

	cost := testJob(t, GRAR)
	cost.Options.EDLCost = 2.0
	record("edl cost 2.0", cost)

	scheme := testJob(t, GRAR)
	scheme.Options.Scheme.Phi1 *= 1.5
	record("wider phi1", scheme)

	gate := testJob(t, GRAR)
	gate.Options.TimingModel = sta.ModelGate
	record("gate model", gate)

	renamed := testJob(t, GRAR)
	renamed.Circuit.Name = "m2"
	record("renamed circuit", renamed)

	resized := testJob(t, GRAR)
	for _, n := range resized.Circuit.Nodes {
		if n.Kind == netlist.KindGate {
			up := resized.Circuit.Lib.Upsize(n.Cell)
			if up == nil {
				t.Fatalf("no upsize for %s", n.Cell.Name)
			}
			n.Cell = up
			break
		}
	}
	record("resized gate", resized)
}

func TestKeyCanonicalizesIrrelevantOptions(t *testing.T) {
	// Fields the approach never reads must not split the cache.
	plain := mustKey(t, testJob(t, GRAR))
	noisy := testJob(t, GRAR)
	noisy.PostSwap = true
	noisy.Timeout = 3 * time.Second
	if k := mustKey(t, noisy); k != plain {
		t.Error("vlib-only fields leaked into a core job's key")
	}

	vplain := mustKey(t, testJob(t, NVL))
	vnoisy := testJob(t, NVL)
	vnoisy.Options.PivotLimit = 9
	vnoisy.Options.TimingModel = sta.ModelGate
	if k := mustKey(t, vnoisy); k != vplain {
		t.Error("core-only fields leaked into a vlib job's key")
	}
	// But vlib-relevant knobs do count.
	vswap := testJob(t, NVL)
	vswap.PostSwap = false
	if k := mustKey(t, vswap); k == vplain {
		t.Error("PostSwap ignored in a vlib job's key")
	}
}

func TestKeyRejectsUnaddressableJobs(t *testing.T) {
	lib := cell.Default(1.0)
	c, scheme := testCircuit(t, lib)
	good := core.Options{Scheme: scheme, EDLCost: 1.0}

	cases := map[string]Job{
		"nil circuit":  {Approach: GRAR, Options: good},
		"bad approach": {Circuit: c, Approach: "frob", Options: good},
		"fixed delays": {Circuit: c, Approach: GRAR, Options: func() core.Options {
			o := good
			o.FixedDelays = map[int]float64{0: 1}
			return o
		}()},
		"zero scheme": {Circuit: c, Approach: GRAR, Options: core.Options{EDLCost: 1.0}},
	}
	for name, job := range cases {
		if _, err := job.Key(); err == nil {
			t.Errorf("%s: key computed for an unaddressable job", name)
		}
	}
	nolib := c.Clone()
	nolib.Lib = nil
	if _, err := (Job{Circuit: nolib, Approach: GRAR, Options: good}).Key(); err == nil {
		t.Error("library-less circuit accepted")
	}
}

// TestKeyGolden pins the content addresses of two served jobs. A key
// that moves orphans every journal entry and disk-cache file written
// under the old one, so a change to the key's serialization must be
// deliberate and must update these values.
func TestKeyGolden(t *testing.T) {
	c := 1.0
	for ap, want := range map[string]string{
		"grar": "e1bb6a552c352b85ca9ec021ccab82bc655926bb80a6344b3484bcf524f0b86c",
		"nvl":  "1e8c19d8aba0ce7529c2a4050c1cd9c62c98c1889f53e68001423162388d1eb3",
	} {
		job, err := BuildJob(JobRequest{Bench: "s1196", Approach: ap, C: &c})
		if err != nil {
			t.Fatal(err)
		}
		if got := mustKey(t, job).String(); got != want {
			t.Errorf("s1196 %s at c=1: key %s, want %s", ap, got, want)
		}
	}
}

func TestParseApproach(t *testing.T) {
	for tok, want := range map[string]Approach{
		"grar": GRAR, "g-rar": GRAR,
		"base": Base,
		"nvl":  NVL, "nvl-rar": NVL,
		"evl": EVL, "evl-rar": EVL,
		"rvl": RVL, "rvl-rar": RVL,
	} {
		got, err := ParseApproach(tok)
		if err != nil || got != want {
			t.Errorf("ParseApproach(%q) = %v, %v", tok, got, err)
		}
	}
	if _, err := ParseApproach("gRAR"); err == nil {
		t.Error("case-mangled token accepted")
	}
	for ap, disp := range map[Approach]string{
		GRAR: "g-rar", Base: "base", NVL: "nvl-rar", EVL: "evl-rar", RVL: "rvl-rar",
	} {
		if got := ap.Display(); got != disp {
			t.Errorf("%s.Display() = %q, want %q", ap, got, disp)
		}
	}
}

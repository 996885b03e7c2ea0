package cert

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"relatch/internal/cell"
	"relatch/internal/fig4"
	"relatch/internal/netlist"
	"relatch/internal/sta"
)

// subjectFor builds a fully consistent fig4 subject for the given
// placement and claimed ED set; tests then corrupt individual claims.
func subjectFor(t *testing.T, c *netlist.Circuit, p *netlist.Placement, ed map[int]bool) Subject {
	t.Helper()
	opts := sta.DefaultOptions(c.Lib)
	opts.Model = sta.ModelFixed
	opts.FixedDelays = fig4.FixedDelays(c)
	opts.LaunchDelay = 0
	edCount := 0
	for _, v := range ed {
		if v {
			edCount++
		}
	}
	return Subject{
		Original:    Snapshot(c),
		Retimed:     c,
		Placement:   p,
		Scheme:      fig4.Scheme(),
		Latch:       fig4.ZeroLatch(),
		StaOptions:  &opts,
		EDMasters:   ed,
		SlaveCount:  p.SlaveCount(),
		MasterCount: c.FlopCount(),
		EDCount:     edCount,
		SeqArea:     cell.SeqAreaOf(c.Lib, fig4.EDLOverhead, p.SlaveCount(), c.FlopCount(), edCount),
		EDLCost:     fig4.EDLOverhead,
		Approach:    "test",
	}
}

func mustRun(t *testing.T, s Subject, cfg Config) *Certificate {
	t.Helper()
	crt, err := Run(context.Background(), s, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return crt
}

func outID(t *testing.T, c *netlist.Circuit, name string) int {
	t.Helper()
	n, ok := c.Node(name)
	if !ok {
		t.Fatalf("no node %q", name)
	}
	return n.ID
}

// TestCertifyCuts certifies both worked-example placements with their
// paper-stated ED status: Cut1 forces O9 error-detecting, Cut2 keeps it
// normal. Both must come back clean.
func TestCertifyCuts(t *testing.T) {
	c := fig4.MustCircuit()
	for _, tc := range []struct {
		name string
		p    *netlist.Placement
		ed   map[int]bool
	}{
		{"cut1", fig4.Cut1(c), map[int]bool{outID(t, c, "O9"): true}},
		{"cut2", fig4.Cut2(c), map[int]bool{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			crt := mustRun(t, subjectFor(t, c, tc.p, tc.ed), Config{})
			if !crt.Certified() {
				t.Fatalf("not certified: %v", crt.Findings)
			}
			if err := crt.Err(); err != nil {
				t.Fatalf("Err() = %v on a clean certificate", err)
			}
			if len(crt.Checks) != 4 {
				t.Fatalf("got %d checks, want 4", len(crt.Checks))
			}
			for _, ck := range crt.Checks {
				if !ck.Passed || ck.Skipped {
					t.Errorf("check %s: passed=%v skipped=%v", ck.Name, ck.Passed, ck.Skipped)
				}
			}
		})
	}
}

func TestStructureFindings(t *testing.T) {
	orig := fig4.MustCircuit()
	shape := Snapshot(orig)

	t.Run("cell-rebound", func(t *testing.T) {
		mutated := orig.Clone()
		g3, _ := mutated.Node("G3")
		g3.Cell = mutated.Lib.MustCell(cell.FuncInv, 1)
		s := subjectFor(t, mutated, fig4.Cut2(mutated), map[int]bool{})
		s.Original = shape
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeStructure) {
			t.Fatalf("want %s finding, got %v", CodeStructure, crt.Findings)
		}
		// A corrupted cloud must not be timed: edl is skipped.
		for _, ck := range crt.Checks {
			if ck.Name == "edl" && !ck.Skipped {
				t.Errorf("edl ran on a structurally corrupted circuit")
			}
		}
	})

	t.Run("fanin-rewired", func(t *testing.T) {
		mutated := orig.Clone()
		g7, _ := mutated.Node("G7")
		g4, _ := mutated.Node("G4")
		g7.Fanin[0] = g4 // was G5
		s := subjectFor(t, mutated, fig4.Cut2(mutated), map[int]bool{})
		s.Original = shape
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeStructure) {
			t.Fatalf("want %s finding, got %v", CodeStructure, crt.Findings)
		}
	})

	t.Run("resizing-tolerated", func(t *testing.T) {
		mutated := orig.Clone()
		g5, _ := mutated.Node("G5")
		g5.Cell = mutated.Lib.MustCell(cell.FuncInv, 2) // same function, bigger drive
		s := subjectFor(t, mutated, fig4.Cut2(mutated), map[int]bool{})
		s.Original = shape
		if crt := mustRun(t, s, Config{}); !crt.HasCode(CodeStructure) {
			t.Fatalf("strict mode should flag the rebound cell")
		}
		if crt := mustRun(t, s, Config{AllowResizing: true}); crt.HasCode(CodeStructure) {
			t.Fatalf("AllowResizing should accept a same-function resize: %v", crt.Findings)
		}
	})

	t.Run("nil-snapshot-skips", func(t *testing.T) {
		s := subjectFor(t, orig, fig4.Cut2(orig), map[int]bool{})
		s.Original = nil
		crt := mustRun(t, s, Config{})
		if !crt.Certified() {
			t.Fatalf("findings without a snapshot: %v", crt.Findings)
		}
		if crt.Checks[0].Name != "structure" || !crt.Checks[0].Skipped {
			t.Fatalf("structure should be recorded as skipped: %+v", crt.Checks[0])
		}
	})
}

func TestLabelFindings(t *testing.T) {
	c := fig4.MustCircuit()

	t.Run("inference", func(t *testing.T) {
		// Cut1 without the G3→G6 latch: the I1→G6→G7→G8 path crosses no
		// latch while the G4 path crosses one — label off-by-one.
		p := fig4.Cut1(c)
		g3, _ := c.Node("G3")
		g6, _ := c.Node("G6")
		delete(p.OnEdge, netlist.Edge{From: g3.ID, To: g6.ID})
		s := subjectFor(t, c, p, map[int]bool{outID(t, c, "O9"): true})
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeLabelInference) {
			t.Fatalf("want %s finding, got %v", CodeLabelInference, crt.Findings)
		}
	})

	t.Run("legality-domain", func(t *testing.T) {
		p := fig4.Cut2(c)
		g3, _ := c.Node("G3")
		p.AtInput[g3.ID] = true                                  // not an input
		p.OnEdge[netlist.Edge{From: 0, To: len(c.Nodes)}] = true // no such edge
		s := subjectFor(t, c, p, map[int]bool{})
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeLabelLegality) {
			t.Fatalf("want %s finding, got %v", CodeLabelLegality, crt.Findings)
		}
	})

	t.Run("legality-double-latch", func(t *testing.T) {
		p := fig4.Cut1(c)
		g4, _ := c.Node("G4")
		g8, _ := c.Node("G8")
		p.OnEdge[netlist.Edge{From: g4.ID, To: g8.ID}] = true // second latch on the G4 path
		s := subjectFor(t, c, p, map[int]bool{outID(t, c, "O9"): true})
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeLabelLegality) && !crt.HasCode(CodeLabelInference) {
			t.Fatalf("want a label finding, got %v", crt.Findings)
		}
	})

	t.Run("pinning-empty-placement", func(t *testing.T) {
		s := subjectFor(t, c, netlist.NewPlacement(), map[int]bool{})
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeLabelPinning) {
			t.Fatalf("want %s finding, got %v", CodeLabelPinning, crt.Findings)
		}
		for _, ck := range crt.Checks {
			if ck.Name == "edl" && !ck.Skipped {
				t.Errorf("edl ran under an illegal placement")
			}
		}
	})
}

func TestEDLFindings(t *testing.T) {
	c := fig4.MustCircuit()
	o9 := outID(t, c, "O9")

	t.Run("dropped-flag", func(t *testing.T) {
		// Cut1 makes O9 error-detecting (arrival 12 > Π=10); claiming an
		// empty ED set is the silently-dropped-flag corruption.
		s := subjectFor(t, c, fig4.Cut1(c), map[int]bool{})
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeEDLMismatch) {
			t.Fatalf("want %s finding, got %v", CodeEDLMismatch, crt.Findings)
		}
	})

	t.Run("over-claim", func(t *testing.T) {
		// Cut2 keeps O9 normal (arrival 9 ≤ 10); claiming it ED is an
		// over-claim, tolerated only under EDSuperset.
		s := subjectFor(t, c, fig4.Cut2(c), map[int]bool{o9: true})
		if crt := mustRun(t, s, Config{}); !crt.HasCode(CodeEDLMismatch) {
			t.Fatalf("want %s finding in exact mode", CodeEDLMismatch)
		}
		if crt := mustRun(t, s, Config{EDSuperset: true}); crt.HasCode(CodeEDLMismatch) {
			t.Fatalf("EDSuperset should accept the over-claim: %v", crt.Findings)
		}
	})

	t.Run("window", func(t *testing.T) {
		// O9's Cut1 arrival 12 is inside (Π, Π+φ1] = (10, 12.5]: an
		// unclaimed window master is an edl-window finding too.
		s := subjectFor(t, c, fig4.Cut1(c), map[int]bool{})
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeEDLWindow) {
			t.Fatalf("want %s finding, got %v", CodeEDLWindow, crt.Findings)
		}
	})

	t.Run("non-endpoint-claim", func(t *testing.T) {
		g5, _ := c.Node("G5")
		s := subjectFor(t, c, fig4.Cut2(c), map[int]bool{g5.ID: true})
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeEDLMismatch) {
			t.Fatalf("want %s finding for a non-endpoint claim, got %v", CodeEDLMismatch, crt.Findings)
		}
	})

	t.Run("reclaim", func(t *testing.T) {
		s := subjectFor(t, c, fig4.Cut1(c), map[int]bool{o9: true})
		s.Reclaimed = map[int]bool{o9: true}
		if crt := mustRun(t, s, Config{StrictReclaim: true}); !crt.HasCode(CodeEDLReclaim) {
			t.Fatalf("want %s finding under StrictReclaim", CodeEDLReclaim)
		}
		if crt := mustRun(t, s, Config{}); crt.HasCode(CodeEDLReclaim) {
			t.Fatalf("reclaim optimism should not gate by default")
		}
	})
}

func TestCostFindings(t *testing.T) {
	c := fig4.MustCircuit()
	o9 := outID(t, c, "O9")

	t.Run("slave-count", func(t *testing.T) {
		s := subjectFor(t, c, fig4.Cut1(c), map[int]bool{o9: true})
		s.SlaveCount++
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeCount) {
			t.Fatalf("want %s finding, got %v", CodeCount, crt.Findings)
		}
		// The area was derived from the uncorrupted count, so the
		// accounting identity breaks too.
		if !crt.HasCode(CodeCost) {
			t.Fatalf("want %s finding, got %v", CodeCost, crt.Findings)
		}
	})

	t.Run("ed-count", func(t *testing.T) {
		s := subjectFor(t, c, fig4.Cut1(c), map[int]bool{o9: true})
		s.EDCount = 0
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeCount) {
			t.Fatalf("want %s finding, got %v", CodeCount, crt.Findings)
		}
	})

	t.Run("seq-area", func(t *testing.T) {
		s := subjectFor(t, c, fig4.Cut1(c), map[int]bool{o9: true})
		s.SeqArea *= 1.5
		crt := mustRun(t, s, Config{})
		if !crt.HasCode(CodeCost) {
			t.Fatalf("want %s finding, got %v", CodeCost, crt.Findings)
		}
	})

	t.Run("epsilon-tolerates-rounding", func(t *testing.T) {
		s := subjectFor(t, c, fig4.Cut1(c), map[int]bool{o9: true})
		s.SeqArea += s.SeqArea * 1e-9
		if crt := mustRun(t, s, Config{}); crt.HasCode(CodeCost) {
			t.Fatalf("1e-9 relative drift must pass the cost epsilon")
		}
	})
}

func TestRunErrors(t *testing.T) {
	c := fig4.MustCircuit()
	good := subjectFor(t, c, fig4.Cut2(c), map[int]bool{})

	t.Run("nil-circuit", func(t *testing.T) {
		s := good
		s.Retimed = nil
		if _, err := Run(context.Background(), s, Config{}); err == nil {
			t.Fatal("want error for nil circuit")
		}
	})
	t.Run("nil-placement", func(t *testing.T) {
		s := good
		s.Placement = nil
		if _, err := Run(context.Background(), s, Config{}); err == nil {
			t.Fatal("want error for nil placement")
		}
	})
	t.Run("bad-scheme", func(t *testing.T) {
		s := good
		s.Scheme.Phi1 = -1
		if _, err := Run(context.Background(), s, Config{}); err == nil {
			t.Fatal("want error for invalid scheme")
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Run(ctx, good, Config{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})
}

func TestCertificateRendering(t *testing.T) {
	c := fig4.MustCircuit()
	s := subjectFor(t, c, fig4.Cut1(c), map[int]bool{})
	crt := mustRun(t, s, Config{})
	if crt.Certified() {
		t.Fatal("fixture should not certify")
	}
	if !errors.Is(crt.Err(), ErrNotCertified) {
		t.Fatalf("Err() = %v, want ErrNotCertified", crt.Err())
	}

	var text bytes.Buffer
	if err := crt.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NOT CERTIFIED", "edl-mismatch", "FAIL"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, text.String())
		}
	}

	var buf bytes.Buffer
	if err := crt.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Certificate
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if round.Circuit != crt.Circuit || len(round.Findings) != len(crt.Findings) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", round, crt)
	}
}

package edl

import (
	"testing"
	"testing/quick"

	"relatch/internal/cell"
)

func TestDesignAreas(t *testing.T) {
	lib := cell.Default(1.0)
	sh := NewDesign(lib, ShadowFF)
	td := NewDesign(lib, TDTB)
	if sh.Area() <= sh.LatchArea || td.Area() <= td.LatchArea {
		t.Fatal("detector area must be positive")
	}
	// The shadow flip-flop design is the heavier one: it carries a full
	// MSFF, while TDTB needs only an XOR and a C-element (Fig. 2).
	if sh.DetectorArea <= td.DetectorArea {
		t.Errorf("shadow-FF detector %g must exceed TDTB %g", sh.DetectorArea, td.DetectorArea)
	}
}

func TestORTreeGates(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 8: 7, 100: 99}
	for n, want := range cases {
		if got := ORTreeGates(n); got != want {
			t.Errorf("ORTreeGates(%d) = %d, want %d", n, got, want)
		}
	}
	depths := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 9: 4}
	for n, want := range depths {
		if got := ORTreeDepth(n); got != want {
			t.Errorf("ORTreeDepth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBuildClusters(t *testing.T) {
	ids := []int{9, 3, 5, 1, 7, 2, 8, 4, 6, 0}
	clusters := BuildClusters(ids, 4)
	if len(clusters) != 3 {
		t.Fatalf("clusters = %d, want 3 (4+4+2)", len(clusters))
	}
	total := 0
	last := -1
	for _, cl := range clusters {
		total += len(cl.Members)
		for _, m := range cl.Members {
			if m <= last {
				t.Error("cluster members must be globally sorted")
			}
			last = m
		}
		if cl.ORGates != ORTreeGates(len(cl.Members)) {
			t.Error("OR gate count inconsistent")
		}
	}
	if total != len(ids) {
		t.Errorf("clustered %d of %d latches", total, len(ids))
	}
}

func TestClusterProperty(t *testing.T) {
	err := quick.Check(func(n uint8, size uint8) bool {
		ids := make([]int, int(n)%64)
		for i := range ids {
			ids[i] = i
		}
		cl := BuildClusters(ids, int(size)%10)
		got := 0
		for _, c := range cl {
			got += len(c.Members)
		}
		return got == len(ids)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestOverheadFactorInPaperRange(t *testing.T) {
	// Section II-B: amortized EDL area ranges from 50% to 2X of a latch.
	lib := cell.Default(1.0)
	ranges := map[Kind][2]float64{
		// TDTB is the lean design the low end of the sweep represents;
		// the shadow flip-flop carries a whole MSFF and sits at or
		// above the sweep's top (the paper's c=2 point).
		TDTB:     {0.5, 2.5},
		ShadowFF: {1.0, 4.0},
	}
	for k, bounds := range ranges {
		for _, size := range []int{2, 4, 8, 16} {
			c := OverheadFactor(lib, k, size)
			if c < bounds[0] || c > bounds[1] {
				t.Errorf("%v cluster %d: c = %g outside [%g, %g]", k, size, c, bounds[0], bounds[1])
			}
		}
	}
	// TDTB with large clusters approaches the low end; shadow-FF with
	// small clusters the high end.
	lo := OverheadFactor(lib, TDTB, 16)
	hi := OverheadFactor(lib, ShadowFF, 2)
	if lo >= hi {
		t.Errorf("expected TDTB/16 (%g) below shadow-FF/2 (%g)", lo, hi)
	}
}

func TestOverheadMonotonicInClusterSize(t *testing.T) {
	// Per-latch OR-tree share is (n−1)/n of an OR gate: it grows with
	// the cluster size and saturates below one full OR gate per latch.
	lib := cell.Default(1.0)
	prev := OverheadFactor(lib, TDTB, 1)
	for size := 2; size <= 32; size *= 2 {
		cur := OverheadFactor(lib, TDTB, size)
		if cur < prev-1e-9 {
			t.Errorf("overhead should grow with cluster size: %g -> %g at %d", prev, cur, size)
		}
		prev = cur
	}
	limit := OverheadFactor(lib, TDTB, 1) + lib.MustCell(cell.FuncOr2, 1).Area/NewDesign(lib, TDTB).LatchArea
	if OverheadFactor(lib, TDTB, 1<<16) > limit {
		t.Error("overhead must saturate below one OR gate per latch")
	}
}

func TestKindString(t *testing.T) {
	if ShadowFF.String() != "shadow-ff" || TDTB.String() != "tdtb" {
		t.Error("kind names wrong")
	}
}

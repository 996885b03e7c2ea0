// Package edl models the error-detecting latch designs of Fig. 2 and the
// per-stage error aggregation they require: (a) a time-borrowing latch
// with a shadow master-slave flip-flop and an XOR comparator, and (b) a
// transition-detecting time-borrowing latch (TDTB) with an XOR transition
// detector and an asymmetric C-element. Error signals within a pipeline
// stage are collected by an OR tree into one stage error, and the
// amortized area of detector + OR-tree share over a plain latch yields
// the overhead factor c the retiming algorithms consume — the paper
// sweeps c over 0.5–2 to cover exactly this design space.
package edl

import (
	"fmt"
	"math"
	"sort"

	"relatch/internal/cell"
)

// Kind selects an error-detecting latch design.
type Kind int

const (
	// ShadowFF is Fig. 2(a): latch + shadow master-slave flip-flop
	// sampling at the resiliency window opening + XOR comparator.
	ShadowFF Kind = iota
	// TDTB is Fig. 2(b): latch + XOR transition detector + asymmetric
	// C-element holding the error.
	TDTB
)

func (k Kind) String() string {
	if k == TDTB {
		return "tdtb"
	}
	return "shadow-ff"
}

// Design is one materialized error-detecting latch.
type Design struct {
	Kind Kind
	// Component areas, taken from the library.
	LatchArea    float64
	DetectorArea float64
}

// NewDesign builds the design's area model from the library: the shadow
// flip-flop variant pays a full flip-flop plus an XOR; the TDTB pays an
// XOR plus a C-element (modeled as an AOI-class cell, the standard
// static C-element implementation).
func NewDesign(lib *cell.Library, k Kind) Design {
	d := Design{Kind: k, LatchArea: lib.BaseLatch.Area}
	xor := lib.MustCell(cell.FuncXor2, 1).Area
	switch k {
	case ShadowFF:
		d.DetectorArea = lib.FF.Area + xor
	case TDTB:
		celement := lib.MustCell(cell.FuncAoi21, 1).Area
		d.DetectorArea = xor + celement
	}
	return d
}

// Area is the total area of one error-detecting latch instance,
// excluding its share of the OR tree.
func (d Design) Area() float64 { return d.LatchArea + d.DetectorArea }

// ORTreeGates returns the number of 2-input OR gates needed to collect n
// error signals into one.
func ORTreeGates(n int) int {
	if n <= 1 {
		return 0
	}
	return n - 1
}

// ORTreeDepth returns the level count of a balanced 2-input OR tree.
func ORTreeDepth(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// Cluster is one group of error-detecting latches sharing an OR tree;
// the paper notes detectors must be grouped "into manageable clusters"
// to meet the error-signal timing (Section II-A).
type Cluster struct {
	Members []int // output node IDs
	ORGates int
	Depth   int
}

// BuildClusters splits the ED masters into clusters of at most maxSize,
// deterministic in the input order of IDs.
func BuildClusters(ids []int, maxSize int) []Cluster {
	if maxSize <= 0 {
		maxSize = 8
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	var out []Cluster
	for len(sorted) > 0 {
		n := maxSize
		if len(sorted) < n {
			n = len(sorted)
		}
		out = append(out, Cluster{
			Members: sorted[:n:n],
			ORGates: ORTreeGates(n),
			Depth:   ORTreeDepth(n),
		})
		sorted = sorted[n:]
	}
	return out
}

// OverheadFactor computes the amortized EDL overhead c for a design and
// cluster size: (detector + OR-tree share) / latch area. For the default
// library this spans roughly the paper's 0.5–2 sweep across the two
// designs and practical cluster sizes.
func OverheadFactor(lib *cell.Library, k Kind, clusterSize int) float64 {
	if clusterSize < 1 {
		clusterSize = 1
	}
	d := NewDesign(lib, k)
	or := lib.MustCell(cell.FuncOr2, 1).Area
	treeShare := float64(ORTreeGates(clusterSize)) * or / float64(clusterSize)
	return (d.DetectorArea + treeShare) / d.LatchArea
}

// String renders a cluster summary.
func (c Cluster) String() string {
	return fmt.Sprintf("cluster{%d latches, %d OR gates, depth %d}", len(c.Members), c.ORGates, c.Depth)
}

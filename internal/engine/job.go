// Package engine is the concurrent retiming job engine: it owns
// submission, scheduling, deduplication, caching and collection of
// retiming runs. Work is described as a Job — a cut circuit plus
// canonicalized options — whose SHA-256 content address makes identical
// work identifiable: concurrent submissions of the same key share one
// computation (singleflight), and completed results land in an LRU cache
// with an optional on-disk layer, so repeated sweeps run the flow solver
// zero times.
//
// The engine is the shared backend of three frontends: the experiments
// sweep (experiments.Config.Parallelism), the rar -bench-json mode
// (rar -j N) and the rar -serve HTTP API. All of them collect results in
// submission order, so parallel runs are row-identical to serial ones —
// the determinism contract the committed bench baseline relies on.
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"relatch/internal/cell"
	"relatch/internal/core"
	"relatch/internal/netlist"
	"relatch/internal/vlib"
)

// Approach is the engine-level retiming approach token. It spans both
// the core approaches (grar, base) and the virtual-library variants
// (nvl, evl, rvl), because a sweep schedules all five as uniform jobs.
type Approach string

// The five approaches a job can request.
const (
	GRAR Approach = "grar"
	Base Approach = "base"
	NVL  Approach = "nvl"
	EVL  Approach = "evl"
	RVL  Approach = "rvl"
)

// ParseApproach maps a CLI/API token to an Approach. Display names
// (g-rar, nvl-rar, ...) are accepted alongside the short tokens.
func ParseApproach(s string) (Approach, error) {
	switch s {
	case "grar", "g-rar":
		return GRAR, nil
	case "base":
		return Base, nil
	case "nvl", "nvl-rar":
		return NVL, nil
	case "evl", "evl-rar":
		return EVL, nil
	case "rvl", "rvl-rar":
		return RVL, nil
	}
	return "", fmt.Errorf("engine: %w: unknown approach %q (want grar, base, nvl, evl or rvl)", ErrBadJob, s)
}

// IsVLib reports whether the approach runs the virtual-library flow.
func (a Approach) IsVLib() bool { return a == NVL || a == EVL || a == RVL }

// CoreApproach returns the core.Approach for a core-flow token.
func (a Approach) CoreApproach() core.Approach {
	if a == Base {
		return core.ApproachBase
	}
	return core.ApproachGRAR
}

// Variant returns the vlib.Variant for a virtual-library token.
func (a Approach) Variant() vlib.Variant {
	switch a {
	case EVL:
		return vlib.EVL
	case RVL:
		return vlib.RVL
	}
	return vlib.NVL
}

// Display returns the name the paper's tables use for the approach.
func (a Approach) Display() string {
	if a.IsVLib() {
		return a.Variant().String()
	}
	return a.CoreApproach().String()
}

// Job is one unit of retiming work: a cut circuit plus the options of a
// single approach run. Two jobs with equal content addresses (Key) are
// interchangeable — the engine computes one and serves both.
type Job struct {
	// Circuit is the cut cloud to retime. The engine never mutates it:
	// core runs solve a clone, the virtual-library flow clones
	// internally, and cache restores rebuild results onto fresh clones.
	Circuit *netlist.Circuit
	// Approach selects the flow (grar, base, nvl, evl, rvl).
	Approach Approach
	// Options carries the core run configuration. For virtual-library
	// approaches only Scheme, EDLCost and Method participate; the rest
	// is canonicalized away before hashing. FixedDelays is rejected —
	// it cannot be content-addressed.
	Options core.Options
	// PostSwap configures the virtual-library flow (vlib.Options); it is
	// canonicalized to false for core runs.
	PostSwap bool
	// Timeout bounds this job's solve (0 = the engine default). It is
	// wall-clock policy, not work content, so it is not part of the key.
	Timeout time.Duration
}

// vlibOptions returns the virtual-library flow options of the job.
func (j Job) vlibOptions() vlib.Options {
	return vlib.Options{
		Scheme:   j.Options.Scheme,
		EDLCost:  j.Options.EDLCost,
		Method:   j.Options.Method,
		PostSwap: j.PostSwap,
	}
}

// Key is the SHA-256 content address of a canonicalized job.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Short returns the first 12 hex digits, for logs and span attributes.
func (k Key) Short() string { return k.String()[:12] }

// ParseKey parses the 64-hex rendering of a content address. The peer
// cache protocol uses it to validate keys arriving over the wire.
func ParseKey(s string) (Key, error) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != sha256.Size {
		return Key{}, fmt.Errorf("engine: %w: malformed job key %q", ErrBadJob, s)
	}
	var k Key
	copy(k[:], raw)
	return k, nil
}

// canonical returns the job with approach-irrelevant fields zeroed, so
// option noise (a PostSwap flag on a grar job, a PivotLimit on an nvl
// job) cannot split the cache. It rejects jobs that cannot be
// content-addressed.
func (j Job) canonical() (Job, error) {
	if j.Circuit == nil {
		return Job{}, fmt.Errorf("engine: %w: job has no circuit", ErrBadJob)
	}
	if j.Circuit.Lib == nil {
		return Job{}, fmt.Errorf("engine: %w: job circuit %q has no library", ErrBadJob, j.Circuit.Name)
	}
	if _, err := ParseApproach(string(j.Approach)); err != nil {
		return Job{}, err
	}
	if j.Options.FixedDelays != nil {
		// The fixed-delay model exists for the worked example and tests;
		// its delay map is keyed by node ID, which the cache restore
		// path cannot re-derive. Keep such runs on the direct API.
		return Job{}, fmt.Errorf("engine: %w: fixed-delay jobs are not supported", ErrBadJob)
	}
	if err := j.Options.Scheme.Validate(); err != nil {
		return Job{}, err
	}
	if j.Approach.IsVLib() {
		j.Options.TimingModel = 0
		j.Options.PivotLimit = 0
	} else {
		j.PostSwap = false
	}
	return j, nil
}

// Key computes the job's content address: SHA-256 over a canonical
// serialization of the netlist (nodes in ID order with names, kinds,
// cell bindings, flop indices and fanin IDs), the cell library
// fingerprint (every combinational cell's timing/area figures plus the
// flip-flop, base latch and EDL overhead) and the canonicalized options.
// Identical work — same structure, same library, same options — hashes
// identically regardless of how the circuit object was built.
func (j Job) Key() (Key, error) {
	c, err := j.canonical()
	if err != nil {
		return Key{}, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "relatch-job/v1\n")
	fmt.Fprintf(h, "approach %s\n", c.Approach)
	hashFloats(h, "scheme", c.Options.Scheme.Phi1, c.Options.Scheme.Gamma1,
		c.Options.Scheme.Phi2, c.Options.Scheme.Gamma2)
	hashFloats(h, "edl", c.Options.EDLCost)
	// "sizing-iter 0" stands where a sizing-iteration knob once hashed
	// (always 0); dropping the line would move every key, and journals
	// and disk caches written before would no longer resolve.
	fmt.Fprintf(h, "model %d\nmethod %d\npivot-limit %d\npostswap %t\nsizing-iter 0\n",
		int(c.Options.TimingModel), int(c.Options.Method), c.Options.PivotLimit,
		c.PostSwap)
	hashLibrary(h, c.Circuit.Lib)
	hashCircuit(h, c.Circuit)
	var k Key
	h.Sum(k[:0])
	return k, nil
}

// hashFloats writes floats bit-exactly (no formatting round-trips).
func hashFloats(w io.Writer, label string, vs ...float64) {
	fmt.Fprintf(w, "%s", label)
	for _, v := range vs {
		fmt.Fprintf(w, " %016x", math.Float64bits(v))
	}
	fmt.Fprintf(w, "\n")
}

// hashLibrary fingerprints every figure of the library that can move a
// retiming result: cell delays and areas, the flip-flop, the base latch
// and the EDL overhead (the virtual latch variants are derived from the
// base latch and the overhead, so they are covered transitively).
func hashLibrary(w io.Writer, lib *cell.Library) {
	fmt.Fprintf(w, "lib %s\n", lib.Name)
	hashFloats(w, "edl-overhead", lib.EDLOverhead)
	hashFloats(w, "ff", lib.FF.Area, lib.FF.ClkToQ, lib.FF.Setup, lib.FF.Hold, lib.FF.InputCap)
	l := lib.BaseLatch
	hashFloats(w, "latch", l.Area, l.ClkToQ, l.DToQ, l.Setup, l.Hold, l.InputCap,
		l.Resistance, l.SlewBase, l.SlewPerLoad)
	funcs := lib.Functions()
	sort.Slice(funcs, func(i, j int) bool { return funcs[i] < funcs[j] })
	for _, f := range funcs {
		for _, d := range lib.Drives(f) {
			c, err := lib.Cell(f, d)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "cell %s\n", c.Name)
			hashFloats(w, "cell-scalars", c.Area, c.Resistance, c.SlewFactor,
				c.InputCap, c.MaxLoad, c.SlewBase, c.SlewPerLoad)
			hashFloats(w, "cell-rise", c.IntrinsicRise...)
			hashFloats(w, "cell-fall", c.IntrinsicFall...)
		}
	}
}

// hashCircuit serializes the cut cloud canonically: node count, then
// every node in ID order with its kind, name, flop index, cell binding
// and fanin IDs. Node IDs are assignment order, which the builder fixes,
// so structurally identical circuits serialize identically.
func hashCircuit(w io.Writer, c *netlist.Circuit) {
	fmt.Fprintf(w, "circuit %s %d\n", c.Name, len(c.Nodes))
	for _, n := range c.Nodes {
		cellName := "-"
		if n.Cell != nil {
			cellName = n.Cell.Name
		}
		fmt.Fprintf(w, "node %d %d %s %d %s", n.ID, int(n.Kind), n.Name, n.Flop, cellName)
		for _, f := range n.Fanin {
			fmt.Fprintf(w, " %d", f.ID)
		}
		fmt.Fprintf(w, "\n")
	}
}

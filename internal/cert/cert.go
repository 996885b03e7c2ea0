// Package cert is an independent static certifier for retiming output:
// given the original circuit (as a pre-solve structural snapshot), the
// retimed circuit, the slave-latch placement and the solver's claims
// (error-detecting master set, counts, sequential area), it re-derives
// every claim from scratch and emits a machine-checkable Certificate
// with typed findings.
//
// The point is independence: flow.Certify proves the LP answer optimal
// for the network the solver was *given*, but a bug anywhere in rgraph
// model construction, placement lifting, or EDL assignment would ship a
// wrong circuit under a valid LP certificate. This package never looks
// at the retiming graph or the flow network; it re-checks the output
// against the paper's own definitions:
//
//   - retiming labels: reconstruct r(v) from the placement and verify
//     Leiserson-Saxe legality w_r(e) = w(e) + r(v) − r(u) ≥ 0, cycle
//     weight preservation and I/O pinning (check "labels");
//   - structural equivalence: the retimed combinational cloud is
//     isomorphic to the original modulo latch positions — no gate
//     dropped, duplicated or rewired (check "structure");
//   - EDL soundness: the claimed error-detecting master set matches a
//     from-scratch latch-aware timing recompute, and no non-ED master
//     sits inside the resiliency window (check "edl");
//   - cost accounting: slave/master/EDL counts recounted from the
//     placement, and the claimed sequential area re-derived through
//     cell.SeqAreaOf to within epsilon (check "cost").
//
// Finding codes are stable identifiers (structure, label-inference,
// label-legality, label-pinning, edl-mismatch, edl-window, edl-reclaim,
// count, cost) so the fault-injection harness and CI can assert on them.
package cert

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"relatch/internal/cell"
	"relatch/internal/clocking"
	"relatch/internal/netlist"
	"relatch/internal/obs"
	"relatch/internal/sta"
)

// Finding codes. Each code belongs to exactly one check.
const (
	// CodeStructure marks a structural divergence between the original
	// and retimed clouds (gate dropped, added, rewired, or rebound).
	CodeStructure = "structure"
	// CodeLabelInference marks a placement from which no consistent
	// retiming labels can be reconstructed (path latch counts disagree).
	CodeLabelInference = "label-inference"
	// CodeLabelLegality marks labels outside the legal {-1, 0} range or
	// placement entries naming nonexistent inputs/edges.
	CodeLabelLegality = "label-legality"
	// CodeLabelPinning marks an I/O pinning violation: a cloud output
	// whose paths do not cross exactly one slave latch (r(output) ≠ 0).
	CodeLabelPinning = "label-pinning"
	// CodeEDLMismatch marks a claimed error-detecting set that differs
	// from the from-scratch latch-aware recompute.
	CodeEDLMismatch = "edl-mismatch"
	// CodeEDLWindow marks a master whose recomputed arrival falls inside
	// the resiliency window without being claimed error-detecting.
	CodeEDLWindow = "edl-window"
	// CodeEDLReclaim marks a master the solver reclaimed (pseudo-node
	// reward fired) that ground-truth timing makes error-detecting.
	CodeEDLReclaim = "edl-reclaim"
	// CodeCount marks a claimed slave/master/EDL count that disagrees
	// with a recount from the placement and circuit.
	CodeCount = "count"
	// CodeCost marks a claimed objective/area outside epsilon of the
	// re-derived value, or a non-finite claim.
	CodeCost = "cost"
)

// Finding is one certification failure.
type Finding struct {
	// Check names the check that produced the finding ("structure",
	// "labels", "edl", "cost").
	Check string `json:"check"`
	// Code is the stable finding code (see the Code constants).
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Node names the offending node; empty for circuit-level findings.
	Node string `json:"node,omitempty"`
	// Pos is the node's source position when known.
	Pos netlist.Pos `json:"pos"`
}

func (f Finding) String() string {
	loc := f.Pos.String()
	if loc == "" {
		loc = "-"
	}
	if f.Node != "" {
		return fmt.Sprintf("%s: %s: %s [%s] (%s)", loc, f.Check, f.Message, f.Code, f.Node)
	}
	return fmt.Sprintf("%s: %s: %s [%s]", loc, f.Check, f.Message, f.Code)
}

// CheckResult summarizes one check of a run.
type CheckResult struct {
	// Name is the check name ("structure", "labels", "edl", "cost").
	Name string `json:"name"`
	// Passed is true when the check ran and produced no findings.
	Passed bool `json:"passed"`
	// Skipped is true when the check did not run — either its input was
	// not supplied (no original snapshot) or a prerequisite check failed
	// (EDL timing is meaningless under an illegal placement).
	Skipped bool `json:"skipped,omitempty"`
	// Findings counts the findings the check produced.
	Findings int `json:"findings"`
}

// Certificate is the outcome of a certification run.
type Certificate struct {
	// Circuit is the certified circuit's name.
	Circuit string `json:"circuit"`
	// Approach records the retiming approach under certification, when
	// the caller supplied one (informational).
	Approach string `json:"approach,omitempty"`
	// Checks lists every check in execution order.
	Checks []CheckResult `json:"checks"`
	// Findings lists every finding in check order.
	Findings []Finding `json:"findings"`

	// Slaves, Masters and ED are the certifier's own recounts (not the
	// subject's claims).
	Slaves  int `json:"slaves"`
	Masters int `json:"masters"`
	ED      int `json:"ed"`
	// SeqArea echoes the claimed sequential area the cost check judged.
	SeqArea float64 `json:"seq_area"`
}

// ErrNotCertified is the sentinel wrapped by Certificate.Err when the
// run produced findings; callers branch on it with errors.Is (cmd/rar
// maps it to exit code 5).
var ErrNotCertified = errors.New("cert: not certified")

// Err returns nil when the certificate is clean and an error wrapping
// ErrNotCertified otherwise.
func (c *Certificate) Err() error {
	if len(c.Findings) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %d finding(s) in %s", ErrNotCertified, len(c.Findings), c.Circuit)
}

// Certified reports whether the run produced no findings.
func (c *Certificate) Certified() bool { return len(c.Findings) == 0 }

// HasCode reports whether any finding carries the given code.
func (c *Certificate) HasCode(code string) bool {
	for _, f := range c.Findings {
		if f.Code == code {
			return true
		}
	}
	return false
}

// WriteText renders the certificate for terminals.
func (c *Certificate) WriteText(w io.Writer) error {
	verdict := "CERTIFIED"
	if !c.Certified() {
		verdict = "NOT CERTIFIED"
	}
	name := c.Circuit
	if c.Approach != "" {
		name += " [" + c.Approach + "]"
	}
	if _, err := fmt.Fprintf(w, "certificate: %s: %s (slaves=%d masters=%d ed=%d seq-area=%.4g)\n",
		name, verdict, c.Slaves, c.Masters, c.ED, c.SeqArea); err != nil {
		return err
	}
	for _, ck := range c.Checks {
		mark := "ok  "
		switch {
		case ck.Skipped:
			mark = "skip"
		case !ck.Passed:
			mark = "FAIL"
		}
		if _, err := fmt.Fprintf(w, "  %s %-9s (%d finding(s))\n", mark, ck.Name, ck.Findings); err != nil {
			return err
		}
	}
	for _, f := range c.Findings {
		if _, err := fmt.Fprintf(w, "  %v\n", f); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the certificate as indented JSON.
func (c *Certificate) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Subject bundles everything a certification run inspects: the retimed
// circuit with its placement, the solver's claims, and the timing
// context to re-derive EDL status under.
type Subject struct {
	// Original is the pre-solve structural snapshot; nil skips the
	// structure check (the caller kept no snapshot).
	Original *Shape
	// Retimed is the circuit the placement applies to. For the core
	// pipeline this is the input circuit itself (retiming moves latches,
	// not gates); for the virtual-library flows it is the sized clone.
	Retimed *netlist.Circuit
	// Placement is the slave-latch placement under certification.
	Placement *netlist.Placement

	// Scheme, Latch and StaOptions define the timing context for the
	// EDL recompute; nil StaOptions derives sta.DefaultOptions from the
	// retimed circuit's library.
	Scheme     clocking.Scheme
	Latch      cell.Latch
	StaOptions *sta.Options

	// EDMasters is the claimed error-detecting master set (output node
	// IDs; false entries are ignored).
	EDMasters map[int]bool
	// Reclaimed maps target output IDs the solver claimed the −c reward
	// for (rgraph.Solution.PseudoFired): masters the model promised
	// would be non-error-detecting.
	Reclaimed map[int]bool

	// SlaveCount, MasterCount, EDCount and SeqArea are the claimed
	// accounting figures; EDLCost is the overhead factor c they were
	// computed under.
	SlaveCount  int
	MasterCount int
	EDCount     int
	SeqArea     float64
	EDLCost     float64
	// Objective is the solver's claimed objective; it is only sanity
	// checked for finiteness (the LP objective carries a model-internal
	// constant offset, so its value cannot be re-derived output-side).
	Objective float64

	// Approach is an informational tag echoed into the certificate.
	Approach string
}

// Config tunes a run.
type Config struct {
	// EDSuperset accepts a claimed error-detecting set that is a strict
	// superset of the recompute. The decoupled virtual-library flows
	// without post-swap legitimately over-provision EDL; claiming too
	// few is always a finding.
	EDSuperset bool
	// AllowResizing compares gates by logic function instead of by cell
	// name, accepting drive-strength changes from the size-only
	// incremental compile (vlib, ReclaimBySizing).
	AllowResizing bool
	// StrictReclaim turns an optimistically reclaimed master — the
	// solver claimed the −c pseudo-node reward, ground-truth timing
	// makes the master error-detecting anyway — into an edl-reclaim
	// finding. Off by default: the cut set g(t) of Eq. (8–9) is a
	// per-edge first-order model (a shared physical latch launches from
	// its *worst* fanout, the cut membership test only needs *one*
	// conforming fanout), so near the period boundary the reward can
	// legitimately fire without the master escaping the window. The
	// pipeline re-settles ED status by ground truth regardless, so the
	// optimism costs objective accuracy, never output correctness.
	StrictReclaim bool
}

// costEpsilon is the relative tolerance of the cost check.
const costEpsilon = 1e-6

// Run certifies the subject. It returns an error only when certification
// itself could not run (nil inputs, invalid scheme, cancelled context);
// a completed run with findings returns a nil error and a certificate
// whose Err() reports ErrNotCertified.
func Run(ctx context.Context, s Subject, cfg Config) (*Certificate, error) {
	if s.Retimed == nil {
		return nil, fmt.Errorf("cert: nil retimed circuit")
	}
	if s.Retimed.Lib == nil {
		return nil, fmt.Errorf("cert: circuit %q has no library", s.Retimed.Name)
	}
	if s.Placement == nil {
		return nil, fmt.Errorf("cert: nil placement")
	}
	if err := s.Scheme.Validate(); err != nil {
		return nil, fmt.Errorf("cert: %w", err)
	}
	crt := &Certificate{Circuit: s.Retimed.Name, Approach: s.Approach, SeqArea: s.SeqArea,
		Findings: []Finding{}}

	sp, ctx := obs.StartSpan(ctx, "cert.run")
	defer func() {
		sp.Add("findings", int64(len(crt.Findings)))
		sp.End()
	}()
	sp.Attr("approach", s.Approach)
	record := func(name string, fs []Finding) {
		crt.Checks = append(crt.Checks, CheckResult{
			Name: name, Passed: len(fs) == 0, Findings: len(fs)})
		crt.Findings = append(crt.Findings, fs...)
		sp.Add("checks_run", 1)
	}
	skip := func(name string) {
		crt.Checks = append(crt.Checks, CheckResult{Name: name, Skipped: true})
		sp.Add("checks_skipped", 1)
	}
	guard := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cert: %s: %w", s.Retimed.Name, err)
		}
		return nil
	}

	// Structure first: everything downstream interprets the retimed
	// circuit, so a stolen or rewired gate must surface before timing
	// claims are judged on the corrupted cloud.
	structureOK := true
	if s.Original == nil {
		skip("structure")
	} else {
		fs := checkStructure(s.Original, s.Retimed, cfg)
		record("structure", fs)
		structureOK = len(fs) == 0
	}
	if err := guard(); err != nil {
		return nil, err
	}

	labelFs, err := checkLabels(s.Retimed, s.Placement)
	if err != nil {
		return nil, fmt.Errorf("cert: %s: %w", s.Retimed.Name, err)
	}
	record("labels", labelFs)
	labelsOK := len(labelFs) == 0
	if err := guard(); err != nil {
		return nil, err
	}

	// EDL soundness needs a structurally intact circuit and a legal
	// placement: latch-aware arrivals under an illegal placement (or on
	// a rewired cloud) prove nothing about the solver's claims.
	if structureOK && labelsOK {
		fs, err := checkEDL(s, cfg)
		if err != nil {
			return nil, fmt.Errorf("cert: %s: %w", s.Retimed.Name, err)
		}
		record("edl", fs)
	} else {
		skip("edl")
	}
	if err := guard(); err != nil {
		return nil, err
	}

	record("cost", checkCost(s))

	crt.Slaves = s.Placement.SlaveCount()
	crt.Masters = s.Retimed.FlopCount()
	crt.ED = len(trueSet(s.EDMasters))
	return crt, nil
}

// trueSet normalizes a claim map to its true entries (callers routinely
// carry false entries after latch-type swaps).
func trueSet(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for id, v := range m {
		if v {
			out[id] = true
		}
	}
	return out
}

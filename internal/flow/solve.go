package flow

import (
	"context"
	"errors"
	"fmt"

	"relatch/internal/obs"
)

// Report records how a hardened solve reached its answer.
type Report struct {
	// Solver is the solver that produced the accepted solution.
	Solver Method
	// Fallback is true when the primary solver failed (or failed
	// certification) and SSP produced the accepted solution.
	Fallback bool
	// FallbackReason holds the primary solver's failure when Fallback is
	// true, empty otherwise.
	FallbackReason string
	// Certified is true when the accepted solution passed the LP-duality
	// optimality certificate (Certify).
	Certified bool
}

// definitive reports whether a solve error rules out every solver:
// structural input problems and proven infeasibility/unboundedness are
// shared facts about the network, and a cancelled context must not be
// retried either.
func definitive(err error) bool {
	return errors.Is(err, ErrInfeasible) ||
		errors.Is(err, ErrUnbounded) ||
		errors.Is(err, ErrUnbalanced) ||
		errors.Is(err, ErrBadArc) ||
		errors.Is(err, ErrOverflow) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// SolveMethod is the hardened entry point: it solves with the selected
// method, certifies the result against LP duality, and — under MethodAuto
// — degrades gracefully from network simplex to successive shortest paths
// when the simplex exhausts its pivot budget or its answer fails the
// certificate. The report records which solver won and why.
func (nw *Network) SolveMethod(ctx context.Context, method Method) (sol *Solution, rep Report, err error) {
	sp, ctx := obs.StartSpan(ctx, "flow.solve")
	defer func() {
		sp.Fail(err)
		sp.End()
	}()
	sp.Attr("method", method.String())
	solveOne := func(m Method) (*Solution, error) {
		var sol *Solution
		var err error
		if m == MethodSSP {
			sol, err = nw.SolveSSPCtx(ctx)
		} else {
			sol, err = nw.SolveSimplexCtx(ctx)
		}
		if err != nil {
			return nil, err
		}
		csp, _ := obs.StartSpan(ctx, "flow.certify")
		defer csp.End()
		err = nw.Certify(sol)
		csp.Fail(err)
		csp.End()
		if err != nil {
			return nil, err
		}
		return sol, nil
	}

	switch method {
	case MethodSimplex, MethodSSP:
		sol, err := solveOne(method)
		if err != nil {
			return nil, Report{Solver: method}, err
		}
		rep = Report{Solver: method, Certified: true}
		return sol, rep, nil
	default: // MethodAuto
		sol, err := solveOne(MethodSimplex)
		if err == nil {
			return sol, Report{Solver: MethodSimplex, Certified: true}, nil
		}
		if definitive(err) {
			return nil, Report{Solver: MethodSimplex}, err
		}
		reason := err.Error()
		// The fallback decision is the event perf investigations look
		// for: mark it on the solve span with its reason.
		sp.Event("fallback")
		sp.Attr("fallback_reason", reason)
		sp.Add("fallbacks", 1)
		sol, sspErr := solveOne(MethodSSP)
		if sspErr != nil {
			return nil, Report{Solver: MethodSSP, Fallback: true, FallbackReason: reason},
				fmt.Errorf("flow: ssp fallback also failed: %w (simplex: %v)", sspErr, err)
		}
		rep = Report{Solver: MethodSSP, Fallback: true, FallbackReason: reason, Certified: true}
		return sol, rep, nil
	}
}

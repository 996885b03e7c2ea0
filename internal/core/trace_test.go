package core

import (
	"context"
	"errors"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/fig4"
	"relatch/internal/flow"
	"relatch/internal/obs"
)

// TestRetimeTraceTree runs a traced retiming end to end and asserts the
// span tree covers every pipeline stage with its counters.
func TestRetimeTraceTree(t *testing.T) {
	lib := cell.Default(1.0)
	prof, ok := bench.ProfileByName("s1196")
	if !ok {
		t.Fatal("s1196 profile missing")
	}
	c, scheme, err := prof.Build(lib)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New("test")
	ctx := obs.WithTracer(context.Background(), tr)
	res, err := RetimeCtx(ctx, c, Options{Scheme: scheme, EDLCost: 1.0}, ApproachGRAR)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traced run did not attach Result.Trace")
	}
	tr.Finish()
	r := res.Trace

	for _, name := range []string{
		"core.retime", "lint.run", "sta.analyze", "rgraph.build",
		"rgraph.solve", "flow.difflp", "flow.solve", "flow.simplex",
		"placement.apply", "core.evaluate", "cert.run",
	} {
		if len(r.Spans(name)) == 0 {
			t.Errorf("span %q missing from trace", name)
		}
	}
	if got := r.Sum("flow.simplex", "pivots"); got <= 0 {
		t.Errorf("pivots = %d, want > 0", got)
	}
	if got := r.Sum("lint.run", "rules_run"); got <= 0 {
		t.Errorf("lint rules_run = %d, want > 0", got)
	}
	if got := r.Sum("cert.run", "checks_run"); got <= 0 {
		t.Errorf("cert checks_run = %d, want > 0", got)
	}
	if res.SolverFallback {
		t.Error("unexpected fallback with the default pivot budget")
	}
	if len(r.Spans("flow.ssp")) != 0 {
		t.Error("flow.ssp span present without a fallback")
	}
}

// TestRetimeTraceFallback drives the simplex→SSP fallback through the
// full retiming stack via Options.PivotLimit and asserts the trace and
// the Result agree on what happened.
func TestRetimeTraceFallback(t *testing.T) {
	lib := cell.Default(1.0)
	prof, ok := bench.ProfileByName("s1196")
	if !ok {
		t.Fatal("s1196 profile missing")
	}
	c, scheme, err := prof.Build(lib)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New("test")
	ctx := obs.WithTracer(context.Background(), tr)
	opt := Options{Scheme: scheme, EDLCost: 1.0, PivotLimit: 1}
	res, err := RetimeCtx(ctx, c, opt, ApproachGRAR)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	r := res.Trace

	if !res.SolverFallback || res.Solver != flow.MethodSSP {
		t.Fatalf("solver = %v fallback = %v, want SSP fallback", res.Solver, res.SolverFallback)
	}
	if got := r.Sum("flow.simplex", "pivots"); got <= 0 {
		t.Errorf("pivots = %d, want > 0 (the failed attempt still counts)", got)
	}
	if got := r.Sum("flow.ssp", "augmenting_paths"); got <= 0 {
		t.Errorf("augmenting_paths = %d, want > 0", got)
	}
	if got := r.Sum("flow.solve", "fallbacks"); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	solves := r.Spans("flow.solve")
	if len(solves) == 0 {
		t.Fatal("flow.solve span missing")
	}
	if reason := solves[0].AttrValue("fallback_reason"); reason != res.FallbackReason {
		t.Errorf("trace reason %q != result reason %q", reason, res.FallbackReason)
	}
	if e := solves[0].AttrValue("error"); e != "" {
		t.Errorf("flow.solve carries error %q, but SSP rescued the solve", e)
	}
}

// TestRetimeTraceSolveError: a simplex-only solve that runs out of
// pivots has no SSP rescue, and the error lands on every span of the
// solve chain, from core.retime down to flow.simplex.
func TestRetimeTraceSolveError(t *testing.T) {
	lib := cell.Default(1.0)
	prof, ok := bench.ProfileByName("s1196")
	if !ok {
		t.Fatal("s1196 profile missing")
	}
	c, scheme, err := prof.Build(lib)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New("test")
	ctx := obs.WithTracer(context.Background(), tr)
	opt := Options{Scheme: scheme, EDLCost: 1.0, Method: flow.MethodSimplex, PivotLimit: 1}
	if _, err := RetimeCtx(ctx, c, opt, ApproachGRAR); !errors.Is(err, flow.ErrPivotLimit) {
		t.Fatalf("err = %v, want one wrapping flow.ErrPivotLimit", err)
	}
	tr.Finish()
	r := tr.Report()
	for _, name := range []string{"core.retime", "rgraph.solve", "flow.difflp", "flow.solve", "flow.simplex"} {
		spans := r.Spans(name)
		if len(spans) != 1 {
			t.Errorf("%s spans = %d, want 1", name, len(spans))
			continue
		}
		if spans[0].AttrValue("error") == "" {
			t.Errorf("%s carries no error attribute", name)
		}
	}
}

// TestRetimeUntracedHasNilTrace pins the zero-cost contract: without a
// tracer, Result.Trace stays nil and nothing is recorded.
func TestRetimeUntracedHasNilTrace(t *testing.T) {
	c := fig4.MustCircuit()
	res, err := Retime(c, fig4Options(c), ApproachGRAR)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("untraced run attached a trace: %+v", res.Trace)
	}
}

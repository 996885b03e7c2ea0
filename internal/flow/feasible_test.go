package flow

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// randomBoundedLP draws a difference-constraint system with every
// variable bounded against the anchor (so a feasible system is also a
// bounded one, and SolveCtx succeeds exactly when it is feasible) plus
// random constraints whose negative weights make about two thirds of
// the systems infeasible.
func randomBoundedLP(rng *rand.Rand) *DiffLP {
	n := 2 + rng.Intn(12)
	anchor := rng.Intn(n)
	l := NewDiffLP(n, anchor)
	for v := 0; v < n; v++ {
		l.SetObjective(v, int64(rng.Intn(9)-4))
		lo := int64(-rng.Intn(3))
		l.Bound(v, lo, lo+int64(rng.Intn(3)))
	}
	for i := rng.Intn(3 * n); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			l.Constrain(u, v, int64(rng.Intn(6)-2))
		}
	}
	return l
}

// TestFeasibleAgreesWithSolve is the oracle's contract: on seeded random
// systems Feasible succeeds exactly when SolveCtx does, under both
// solvers, and every infeasible verdict carries a closed cycle of the
// program's constraints whose bounds sum below zero.
func TestFeasibleAgreesWithSolve(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	var feasible, infeasible int
	for trial := 0; trial < 600; trial++ {
		l := randomBoundedLP(rng)
		ok, cycle, err := l.Feasible(ctx)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, m := range []Method{MethodSimplex, MethodSSP} {
			if _, serr := l.SolveCtx(ctx, m); ok != (serr == nil) {
				t.Fatalf("trial %d (%v): Feasible = %v, SolveCtx err = %v", trial, m, ok, serr)
			}
		}
		if ok {
			feasible++
			if cycle != nil {
				t.Fatalf("trial %d: feasible verdict with a witness %v", trial, cycle)
			}
			continue
		}
		infeasible++
		checkNegativeCycle(t, l, cycle)
	}
	if feasible < 100 || infeasible < 100 {
		t.Errorf("unbalanced corpus: %d feasible, %d infeasible", feasible, infeasible)
	}
}

// checkNegativeCycle asserts cycle is a closed chain of l's constraints
// (each one's U is the next one's V) with a negative bound sum.
func checkNegativeCycle(t *testing.T, l *DiffLP, cycle []Constraint) {
	t.Helper()
	if len(cycle) == 0 {
		t.Fatal("infeasible verdict without a witness")
	}
	have := make(map[Constraint]bool, len(l.cons))
	for _, c := range l.cons {
		have[c] = true
	}
	var sum int64
	for i, c := range cycle {
		if !have[c] {
			t.Fatalf("witness %v: %+v is not a constraint of the program", cycle, c)
		}
		if next := cycle[(i+1)%len(cycle)]; c.U != next.V {
			t.Fatalf("witness %v is not closed at %d", cycle, i)
		}
		sum += c.C
	}
	if sum >= 0 {
		t.Fatalf("witness %v sums to %d, want < 0", cycle, sum)
	}
}

func TestFeasibleSelfLoopAndOverflow(t *testing.T) {
	ctx := context.Background()
	l := NewDiffLP(2, 1)
	l.Constrain(0, 0, -1)
	ok, cycle, err := l.Feasible(ctx)
	if err != nil || ok || len(cycle) != 1 {
		t.Errorf("negative self-loop: ok=%v cycle=%v err=%v", ok, cycle, err)
	}
	l = NewDiffLP(2, 1)
	l.Constrain(0, 1, Unbounded)
	l.Constrain(1, 0, 1)
	if _, _, err := l.Feasible(ctx); !errors.Is(err, ErrOverflow) {
		t.Errorf("err = %v, want ErrOverflow", err)
	}
}

func TestFeasibleCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := NewDiffLP(3, 2)
	l.Constrain(0, 1, -1)
	if _, _, err := l.Feasible(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

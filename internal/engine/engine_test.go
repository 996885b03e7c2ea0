package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"relatch/internal/flow"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSingleflightDeduplicates(t *testing.T) {
	release := make(chan struct{})
	var solves atomic.Int64
	eng := New(Config{
		Workers: 4,
		SolveOverride: func(ctx context.Context, job Job) (*Outcome, error) {
			solves.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &Outcome{Approach: job.Approach}, nil
		},
	})
	defer eng.Close()

	job := testJob(t, GRAR)
	const n = 8
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := eng.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for _, tk := range tickets[1:] {
		if tk.Key != tickets[0].Key {
			t.Fatal("identical jobs got different keys")
		}
	}
	// Hold the leader until every other submission has joined it, so the
	// dedup path is exercised deterministically.
	waitFor(t, "followers to join", func() bool { return eng.Stats().Deduplicated == n-1 })
	close(release)

	shared := 0
	for _, tk := range tickets {
		out, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if out.Shared {
			shared++
		}
	}
	if got := solves.Load(); got != 1 {
		t.Errorf("%d solves for %d identical submissions, want 1", got, n)
	}
	if shared != n-1 {
		t.Errorf("%d shared outcomes, want %d", shared, n-1)
	}
	st := eng.Stats()
	if st.Submitted != n || st.Completed != n || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWorkerPanicBecomesJobError(t *testing.T) {
	var calls atomic.Int64
	eng := New(Config{
		Workers: 1,
		SolveOverride: func(ctx context.Context, job Job) (*Outcome, error) {
			if calls.Add(1) == 1 {
				panic("solver exploded")
			}
			return &Outcome{Approach: job.Approach}, nil
		},
	})
	defer eng.Close()

	_, err := eng.Do(context.Background(), testJob(t, GRAR))
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "solver exploded") {
		t.Fatalf("panic surfaced as %v", err)
	}
	if st := eng.Stats(); st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}
	// The worker survived: the engine keeps serving after a panic.
	if _, err := eng.Do(context.Background(), testJob(t, GRAR)); err != nil {
		t.Fatalf("engine dead after panic: %v", err)
	}
}

func TestJobTimeoutBoundsSolve(t *testing.T) {
	block := func(ctx context.Context, job Job) (*Outcome, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	eng := New(Config{Workers: 1, JobTimeout: 20 * time.Millisecond, SolveOverride: block})
	defer eng.Close()

	if _, err := eng.Do(context.Background(), testJob(t, GRAR)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("engine-default timeout: got %v", err)
	}
	// A per-job timeout overrides the engine default.
	job := testJob(t, Base)
	job.Timeout = 10 * time.Millisecond
	start := time.Now()
	if _, err := eng.Do(context.Background(), job); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("per-job timeout: got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("per-job timeout did not bound the solve")
	}
}

func TestCloseCancelsQueuedJobs(t *testing.T) {
	started := make(chan struct{}, 8)
	eng := New(Config{
		Workers: 1,
		SolveOverride: func(ctx context.Context, job Job) (*Outcome, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})

	costs := []float64{1.0, 1.5, 2.0}
	tickets := make([]*Ticket, 0, len(costs))
	for _, c := range costs {
		job := testJob(t, GRAR)
		job.Options.EDLCost = c // three distinct keys, one worker slot
		tk, err := eng.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	<-started // one job running, two queued on the semaphore
	eng.Close()

	for i, tk := range tickets {
		if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Errorf("ticket %d: close surfaced as %v", i, err)
		}
	}
	if _, err := eng.Submit(context.Background(), testJob(t, GRAR)); err == nil {
		t.Error("submission accepted after Close")
	}
}

func TestSubmitRejectsBadJobs(t *testing.T) {
	eng := New(Config{Workers: 1})
	defer eng.Close()
	if _, err := eng.Submit(context.Background(), Job{Approach: GRAR}); err == nil {
		t.Error("nil-circuit job accepted")
	}
	if st := eng.Stats(); st.Submitted != 0 {
		t.Errorf("rejected job counted as submitted: %+v", st)
	}
}

// TestEngineKeepsNoFinishedOutcomes pins the engine's memory bound under
// a long-running server: a finished job's outcome — retimed circuit,
// placement, certificate — must be collectable once the caller drops it,
// so nothing in an engine without a cache may keep a reference.
func TestEngineKeepsNoFinishedOutcomes(t *testing.T) {
	eng := New(Config{Workers: 1})
	defer eng.Close()
	collected := make(chan struct{})
	func() {
		out, err := eng.Do(context.Background(), testJob(t, GRAR))
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(out, func(*Outcome) { close(collected) })
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("the engine still references a finished job's outcome")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestStressManyJobsFewKeys(t *testing.T) {
	// 200 submissions over 20 keys on 8 workers, with a memory cache:
	// singleflight covers concurrent duplicates, the cache covers later
	// ones, so each key is solved exactly once. Run under -race this is
	// the engine's concurrency soak.
	cache, err := NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	var solves atomic.Int64
	eng := New(Config{
		Workers: 8,
		Cache:   cache,
		SolveOverride: func(ctx context.Context, job Job) (*Outcome, error) {
			solves.Add(1)
			return &Outcome{Approach: job.Approach}, nil
		},
	})
	defer eng.Close()

	const jobs, keys = 200, 20
	base := testJob(t, GRAR)
	tickets := make([]*Ticket, 0, jobs)
	for i := 0; i < jobs; i++ {
		job := base
		job.Options.EDLCost = 1.0 + float64(i%keys)/100
		tk, err := eng.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := solves.Load(); got != keys {
		t.Errorf("%d solves for %d distinct keys", got, keys)
	}
	st := eng.Stats()
	if st.Completed != jobs {
		t.Errorf("completed = %d, want %d", st.Completed, jobs)
	}
	if st.Deduplicated+st.Cache.Hits != jobs-keys {
		t.Errorf("dedup %d + cache hits %d ≠ %d duplicates", st.Deduplicated, st.Cache.Hits, jobs-keys)
	}
}

func TestSolveAllApproaches(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	// Every family reports the solver behind its accepted retiming: the
	// default simplex, or SSP on request.
	methods := []struct {
		method flow.Method
		want   string
	}{{flow.MethodAuto, "simplex"}, {flow.MethodSSP, "ssp"}}
	for _, ap := range []Approach{GRAR, Base, NVL, EVL, RVL} {
		for _, m := range methods {
			job := testJob(t, ap)
			job.Options.Method = m.method
			out, err := eng.Do(context.Background(), job)
			if err != nil {
				t.Fatalf("%s/%v: %v", ap, m.method, err)
			}
			sum := out.Summary()
			if !sum.Certified {
				t.Errorf("%s/%v: outcome not certified", ap, m.method)
			}
			if sum.Slaves <= 0 || sum.TotalArea <= 0 {
				t.Errorf("%s/%v: degenerate summary %+v", ap, m.method, sum)
			}
			if out.Core == nil || out.Core.Approach != ap.Display() {
				t.Errorf("%s/%v: outcome carries no %s result", ap, m.method, ap.Display())
			}
			if sum.Solver != m.want || sum.Fallback {
				t.Errorf("%s/%v: solver %q fallback %v, want %s without fallback", ap, m.method, sum.Solver, sum.Fallback, m.want)
			}
		}
	}
}

// stripVolatile zeroes the fields that legitimately vary between
// otherwise identical runs (provenance, not work content).
func stripVolatile(s Summary) Summary {
	s.CacheHit = false
	s.CacheLayer = ""
	return s
}

func TestParallelMatchesSerial(t *testing.T) {
	approaches := []Approach{GRAR, Base, NVL, EVL, RVL}
	sweep := func(workers int) []Summary {
		eng := New(Config{Workers: workers})
		defer eng.Close()
		tickets := make([]*Ticket, 0, 2*len(approaches))
		for _, cost := range []float64{1.0, 2.0} {
			for _, ap := range approaches {
				job := testJob(t, ap)
				job.Options.EDLCost = cost
				tk, err := eng.Submit(context.Background(), job)
				if err != nil {
					t.Fatal(err)
				}
				tickets = append(tickets, tk)
			}
		}
		out := make([]Summary, 0, len(tickets))
		for _, tk := range tickets {
			o, err := tk.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, stripVolatile(o.Summary()))
		}
		return out
	}

	serial := sweep(1)
	parallel := sweep(8)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d differs:\n serial  %+v\n parallel %+v", i, serial[i], parallel[i])
		}
	}
}

package faults

import (
	"context"
	"fmt"
	"os"
	"time"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/core"
	"relatch/internal/engine"
	"relatch/internal/sta"
)

// engineJob builds a solvable engine job over the shared good fixture,
// with a calibrated scheme so the uncorrupted job is known to retime.
func engineJob(lib *cell.Library) (engine.Job, error) {
	c, err := goodCircuit(lib)
	if err != nil {
		return engine.Job{}, fmt.Errorf("faults: bad fixture: %v", err)
	}
	scheme := bench.SchemeFor(c, sta.DefaultOptions(lib))
	return engine.Job{
		Circuit:  c,
		Approach: engine.GRAR,
		Options:  core.Options{Scheme: scheme, EDLCost: 1},
	}, nil
}

// engineFaults attacks the retiming job engine: worker panics, poisoned
// on-disk cache entries, cancellation with jobs queued, and jobs that
// cannot be content-addressed. Every corruption must surface as a
// descriptive per-job error — never a crashed worker, a hung ticket or a
// wrong result served from a bad cache entry.
func engineFaults(lib *cell.Library) []Fault {
	return []Fault{
		{
			Name:  "worker panicking mid-solve",
			Class: "engine/worker-panic",
			Inject: func(ctx context.Context) error {
				eng := engine.New(engine.Config{
					Workers: 1,
					SolveOverride: func(context.Context, engine.Job) (*engine.Outcome, error) {
						panic("solver corrupted its own state")
					},
				})
				defer eng.Close()
				job, err := engineJob(lib)
				if err != nil {
					return err
				}
				_, err = eng.Do(ctx, job)
				return err
			},
		},
		{
			Name:  "poisoned on-disk cache entry",
			Class: "engine/poisoned-cache",
			Inject: func(ctx context.Context) error {
				dir, err := os.MkdirTemp("", "relatch-faults-cache")
				if err != nil {
					return fmt.Errorf("faults: bad fixture: %v", err)
				}
				defer os.RemoveAll(dir)
				cache, err := engine.NewCache(4, dir)
				if err != nil {
					return fmt.Errorf("faults: bad fixture: %v", err)
				}
				job, err := engineJob(lib)
				if err != nil {
					return err
				}
				key, err := job.Key()
				if err != nil {
					return fmt.Errorf("faults: bad fixture: %v", err)
				}
				// Warm the disk layer with a genuine solve, then tear the
				// entry the way a crashed writer or bit rot would.
				eng := engine.New(engine.Config{Workers: 1, Cache: cache})
				defer eng.Close()
				if _, err := eng.Do(ctx, job); err != nil {
					return fmt.Errorf("faults: bad fixture: %v", err)
				}
				if err := os.WriteFile(cache.EntryPath(key), []byte("{torn"), 0o644); err != nil {
					return fmt.Errorf("faults: bad fixture: %v", err)
				}
				// Probe surfaces the validation failure the engine's Get
				// path turns into a silent recompute.
				_, err = cache.Probe(ctx, key, job)
				return err
			},
		},
		{
			Name:  "engine closed with jobs still queued",
			Class: "engine/cancelled-queue",
			Inject: func(ctx context.Context) error {
				eng := engine.New(engine.Config{
					Workers: 1,
					SolveOverride: func(sctx context.Context, job engine.Job) (*engine.Outcome, error) {
						<-sctx.Done() // a solve that only ends when cancelled
						return nil, sctx.Err()
					},
				})
				job, err := engineJob(lib)
				if err != nil {
					return err
				}
				queued, err := engineJob(lib)
				if err != nil {
					return err
				}
				queued.Options.EDLCost = 2 // distinct key, waits for the only worker
				if _, err := eng.Submit(ctx, job); err != nil {
					return fmt.Errorf("faults: bad fixture: %v", err)
				}
				t, err := eng.Submit(ctx, queued)
				if err != nil {
					return fmt.Errorf("faults: bad fixture: %v", err)
				}
				closed := make(chan struct{})
				go func() {
					defer close(closed)
					time.Sleep(10 * time.Millisecond)
					eng.Close()
				}()
				_, err = t.Wait(ctx)
				<-closed
				return err
			},
		},
		{
			Name:  "deadline expiring under a stuck solve",
			Class: "engine/deadline",
			Inject: func(ctx context.Context) error {
				eng := engine.New(engine.Config{
					Workers:    1,
					JobTimeout: 10 * time.Millisecond,
					SolveOverride: func(sctx context.Context, job engine.Job) (*engine.Outcome, error) {
						<-sctx.Done()
						return nil, sctx.Err()
					},
				})
				defer eng.Close()
				job, err := engineJob(lib)
				if err != nil {
					return err
				}
				_, err = eng.Do(ctx, job)
				return err
			},
		},
		{
			Name:  "job that cannot be content-addressed",
			Class: "engine/bad-job",
			Inject: func(ctx context.Context) error {
				eng := engine.New(engine.Config{Workers: 1})
				defer eng.Close()
				job, err := engineJob(lib)
				if err != nil {
					return err
				}
				job.Options.FixedDelays = map[int]float64{0: 1}
				_, err = eng.Do(ctx, job)
				return err
			},
		},
	}
}

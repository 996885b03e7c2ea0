package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"relatch/internal/core"
	"relatch/internal/obs"
	"relatch/internal/vlib"
)

// Config configures an Engine.
type Config struct {
	// Workers bounds the number of concurrently running solves
	// (≤ 0 means GOMAXPROCS). Queued jobs beyond the bound wait for a
	// slot; deduplicated followers never consume one.
	Workers int
	// Cache, when non-nil, serves repeated keys without re-solving and
	// stores every computed outcome.
	Cache *Cache
	// JobTimeout bounds each solve that does not carry its own
	// Job.Timeout (0 = unbounded).
	JobTimeout time.Duration
	// SolveOverride replaces the real solve when non-nil. It exists for
	// tests and the fault-injection harness — the production solvers are
	// hardened enough that worker crashes and stalls cannot be provoked
	// from outside otherwise.
	SolveOverride func(ctx context.Context, job Job) (*Outcome, error)
	// Metrics, when non-nil, receives the per-stage job latency
	// histograms (relatch_job_stage_seconds{stage=...}: queue_wait,
	// solve, certify, total).
	Metrics *obs.Registry
}

// Outcome is a completed job.
type Outcome struct {
	Key      Key
	Approach Approach

	// Core is the retiming result of whichever family the approach runs.
	// Every outcome — solved, restored or shared — carries the
	// certificate of the gate it passed in Core.Certificate.
	Core *core.Result

	// CacheHit reports the outcome was restored rather than solved;
	// CacheLayer says from where ("memory", "disk" or "peer"). Shared
	// marks a
	// deduplicated follower that rode on another submission's solve.
	CacheHit   bool
	CacheLayer string
	Shared     bool

	// Runtime is the wall time of the solve (or of the validated
	// restore, for cache hits).
	Runtime time.Duration
}

// Summary flattens an outcome into the row every frontend reports.
type Summary struct {
	Approach   string  `json:"approach"`
	Circuit    string  `json:"circuit"`
	Slaves     int     `json:"slaves"`
	Masters    int     `json:"masters"`
	ED         int     `json:"ed"`
	SeqArea    float64 `json:"seq_area"`
	TotalArea  float64 `json:"total_area"`
	Solver     string  `json:"solver,omitempty"`
	Fallback   bool    `json:"fallback,omitempty"`
	Certified  bool    `json:"certified"`
	Violations int     `json:"violations,omitempty"`
	CacheHit   bool    `json:"cache_hit,omitempty"`
	CacheLayer string  `json:"cache_layer,omitempty"`
}

// Summary returns the flattened report row for the outcome.
func (o *Outcome) Summary() Summary {
	s := Summary{
		Approach:   o.Approach.Display(),
		CacheHit:   o.CacheHit,
		CacheLayer: o.CacheLayer,
	}
	if r := o.Core; r != nil {
		s.Circuit = r.Circuit.Name
		s.Slaves = r.SlaveCount
		s.Masters = r.MasterCount
		s.ED = r.EDCount
		s.SeqArea = r.SeqArea
		s.TotalArea = r.TotalArea
		s.Solver = r.Solver.String()
		s.Fallback = r.SolverFallback
		s.Certified = r.Certificate != nil && r.Certificate.Certified()
		s.Violations = len(r.Violations)
	}
	return s
}

// State is a ticket's position in its lifecycle.
type State int

// Ticket states, in lifecycle order.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Ticket tracks one submission from Submit to completion.
type Ticket struct {
	ID  string
	Key Key

	mu        sync.Mutex
	state     State     // guarded by mu
	outcome   *Outcome  // guarded by mu
	err       error     // guarded by mu
	submitted time.Time // guarded by mu
	started   time.Time // guarded by mu
	finished  time.Time // guarded by mu

	done chan struct{} // closed by finish; receive-only join, no lock needed
}

// Status returns the ticket's current state and lifecycle timestamps.
func (t *Ticket) Status() (state State, submitted, started, finished time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state, t.submitted, t.started, t.finished
}

// Err returns the job error once the ticket has failed, nil otherwise.
func (t *Ticket) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Outcome returns the completed outcome, nil until the ticket is done.
func (t *Ticket) Outcome() *Outcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.outcome
}

// Wait blocks until the job completes or ctx is cancelled. The returned
// error wraps ctx.Err() when the wait — not the job — was cut short.
func (t *Ticket) Wait(ctx context.Context) (*Outcome, error) {
	select {
	case <-t.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("engine: waiting for %s: %w", t.ID, ctx.Err())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.outcome, t.err
}

func (t *Ticket) setRunning() {
	t.mu.Lock()
	if t.state == StateQueued {
		t.state = StateRunning
		t.started = time.Now()
	}
	t.mu.Unlock()
}

func (t *Ticket) finish(out *Outcome, err error) {
	t.mu.Lock()
	t.outcome, t.err = out, err
	t.finished = time.Now()
	if err != nil {
		t.state = StateFailed
	} else {
		t.state = StateDone
	}
	t.mu.Unlock()
	close(t.done)
}

// Stats is a point-in-time snapshot of engine activity.
type Stats struct {
	Submitted    int64      `json:"submitted"`
	Completed    int64      `json:"completed"`
	Failed       int64      `json:"failed"`
	Deduplicated int64      `json:"deduplicated"`
	Cache        CacheStats `json:"cache"`
}

// call is the singleflight record for one in-flight key.
type call struct {
	done    chan struct{}
	outcome *Outcome
	err     error
}

// Engine runs retiming jobs on a bounded worker pool with singleflight
// deduplication and result caching. Close cancels everything in flight.
type Engine struct {
	cfg     Config
	baseCtx context.Context
	cancel  context.CancelFunc
	sem     chan struct{}
	wg      sync.WaitGroup
	// Per-stage latency histograms, set once in New (nil = inert when
	// no Config.Metrics registry was supplied); Observe is lock-free.
	hQueueWait *obs.Histogram
	hSolve     *obs.Histogram
	hCertify   *obs.Histogram
	hTotal     *obs.Histogram

	mu       sync.Mutex
	inflight map[Key]*call // guarded by mu
	nextID   int           // guarded by mu
	stats    Stats         // guarded by mu
	closed   bool          // guarded by mu
}

// New builds an engine. The caller owns its lifecycle and must Close it.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Engine{
		cfg:        cfg,
		baseCtx:    ctx,
		cancel:     cancel,
		sem:        make(chan struct{}, cfg.Workers),
		inflight:   make(map[Key]*call),
		hQueueWait: cfg.Metrics.Histogram(`relatch_job_stage_seconds{stage="queue_wait"}`),
		hSolve:     cfg.Metrics.Histogram(`relatch_job_stage_seconds{stage="solve"}`),
		hCertify:   cfg.Metrics.Histogram(`relatch_job_stage_seconds{stage="certify"}`),
		hTotal:     cfg.Metrics.Histogram(`relatch_job_stage_seconds{stage="total"}`),
	}
}

// Cache returns the engine's cache (nil when caching is disabled).
func (e *Engine) Cache() *Cache { return e.cfg.Cache }

// Saturated reports whether every worker slot is currently occupied —
// the signal the serve layer uses to fall back to cache-only answers.
func (e *Engine) Saturated() bool { return len(e.sem) == cap(e.sem) }

// Workers returns the size of the worker pool.
func (e *Engine) Workers() int { return cap(e.sem) }

// WorkersBusy returns how many worker slots are occupied right now —
// a point-in-time sample for the gauge collector.
func (e *Engine) WorkersBusy() int { return len(e.sem) }

// CachedOutcome returns a validated cached outcome for the job without
// consuming a worker slot or touching the queue. It backs the degraded
// serve-from-cache-only mode and done-job status reads: a cache probe,
// restore and re-certify, nothing else.
func (e *Engine) CachedOutcome(ctx context.Context, job Job) (*Outcome, bool) {
	if e.cfg.Cache == nil {
		return nil, false
	}
	key, err := job.Key()
	if err != nil {
		return nil, false
	}
	return e.cfg.Cache.Get(ctx, key, job)
}

// Close cancels every queued and in-flight job and waits for the
// workers to drain. Submissions after Close fail.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cancel()
	e.wg.Wait()
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := e.stats
	e.mu.Unlock()
	if e.cfg.Cache != nil {
		s.Cache = e.cfg.Cache.Stats()
	}
	return s
}

// Submit schedules a job and returns its ticket immediately. The job
// runs under a context derived from ctx (so tracers and values flow in,
// and cancelling ctx cancels the job) that is also cut when the engine
// closes or the job's timeout expires.
func (e *Engine) Submit(ctx context.Context, job Job) (*Ticket, error) {
	key, err := job.Key()
	if err != nil {
		return nil, err
	}
	sp, ctx := obs.StartSpan(ctx, "engine.submit")
	defer sp.End()
	sp.Attr("key", key.Short())
	sp.Attr("approach", string(job.Approach))

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: %w", ErrClosed)
	}
	e.nextID++
	t := &Ticket{
		ID:        fmt.Sprintf("job-%06d", e.nextID),
		Key:       key,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	e.stats.Submitted++
	e.wg.Add(1)
	e.mu.Unlock()

	sp.Attr("id", t.ID)
	sp.Add("submitted", 1)

	go e.run(ctx, t, job, key)
	return t, nil
}

// Do is Submit followed by Wait.
func (e *Engine) Do(ctx context.Context, job Job) (*Outcome, error) {
	t, err := e.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	return t.Wait(ctx)
}

// run executes one submission end to end and settles its ticket.
func (e *Engine) run(ctx context.Context, t *Ticket, job Job, key Key) {
	defer e.wg.Done()

	// The job context inherits the submission context (values — tracer,
	// logger — and cancellation) and is additionally cut when the
	// engine closes.
	jobCtx, cancelJob := context.WithCancel(ctx)
	defer cancelJob()
	stopWatch := context.AfterFunc(e.baseCtx, cancelJob)
	defer stopWatch()

	sp, jobCtx := obs.StartSpan(jobCtx, "engine.job")
	defer sp.End()
	sp.Attr("id", t.ID)
	sp.Attr("key", key.Short())
	sp.Attr("approach", string(job.Approach))

	out, err := e.execute(jobCtx, sp, t, job, key)
	sp.Fail(err)
	sp.End()
	if err == nil {
		_, submitted, _, _ := t.Status()
		e.hTotal.Observe(time.Since(submitted))
	}

	e.mu.Lock()
	if err != nil {
		e.stats.Failed++
	} else {
		e.stats.Completed++
	}
	e.mu.Unlock()
	t.finish(out, err)
}

// execute resolves one submission: join an in-flight computation of the
// same key as a follower, or lead one (cache lookup, bounded solve,
// cache store).
func (e *Engine) execute(ctx context.Context, sp *obs.Span, t *Ticket, job Job, key Key) (*Outcome, error) {
	e.mu.Lock()
	if c, ok := e.inflight[key]; ok {
		e.stats.Deduplicated++
		e.mu.Unlock()
		sp.Add("deduplicated", 1)
		t.setRunning()
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("engine: %s: %w", t.ID, ctx.Err())
		}
		if c.err != nil {
			return nil, c.err
		}
		shared := *c.outcome
		shared.Shared = true
		return &shared, nil
	}
	c := &call{done: make(chan struct{})}
	e.inflight[key] = c
	e.mu.Unlock()

	out, err := e.lead(ctx, t, job, key)
	c.outcome, c.err = out, err
	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
	close(c.done)
	return out, err
}

// lead computes the outcome for a key: waits for a worker slot, tries
// the cache, solves with a panic guard under the job deadline, and
// stores the fresh result.
func (e *Engine) lead(ctx context.Context, t *Ticket, job Job, key Key) (*Outcome, error) {
	waitStart := time.Now()
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("engine: %s queued: %w", t.ID, ctx.Err())
	}
	defer func() { <-e.sem }()
	e.hQueueWait.Observe(time.Since(waitStart))
	t.setRunning()

	if e.cfg.Cache != nil {
		if out, ok := e.cfg.Cache.Get(ctx, key, job); ok {
			return out, nil
		}
	}

	timeout := job.Timeout
	if timeout <= 0 {
		timeout = e.cfg.JobTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	out, err := e.solve(ctx, job, key)
	if err != nil {
		return nil, err
	}
	if e.cfg.Cache != nil {
		e.cfg.Cache.Put(ctx, key, job, out)
	}
	return out, nil
}

// solve runs the actual retiming flow for the job's approach. Panics in
// the solver stack surface as per-job errors, never as process crashes.
func (e *Engine) solve(ctx context.Context, job Job, key Key) (out *Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("engine: job %s panicked: %v", key.Short(), r)
		}
	}()
	start := time.Now()
	if e.cfg.SolveOverride != nil {
		defer func() {
			if err == nil {
				e.hSolve.Observe(time.Since(start))
			}
		}()
		return e.cfg.SolveOverride(ctx, job)
	}
	var res *core.Result
	if job.Approach.IsVLib() {
		res, err = vlib.RetimeCtx(ctx, job.Circuit, job.vlibOptions(), job.Approach.Variant())
	} else {
		res, err = core.RetimeCtx(ctx, job.Circuit.Clone(), job.Options, job.Approach.CoreApproach())
	}
	if err != nil {
		// The post-solve gate attaches the certificate even when it
		// fails; the outcome is unusable either way.
		return nil, err
	}
	e.hCertify.Observe(res.CertifyTime)
	e.hSolve.Observe(res.Runtime - res.CertifyTime)
	return &Outcome{Key: key, Approach: job.Approach, Core: res, Runtime: time.Since(start)}, nil
}

// IsClosed reports whether err stems from the engine shutting down or a
// context cut (as opposed to the solve itself failing).
func IsClosed(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

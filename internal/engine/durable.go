package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"relatch/internal/obs"
	"relatch/internal/queue"
)

// DurableConfig configures the durability layer between the HTTP
// frontend and the engine.
type DurableConfig struct {
	// Engine executes leased jobs. Required, with a cache: the cache is
	// the only store of job results. The caller owns its lifecycle.
	Engine *Engine
	// Queue is the write-ahead journaled job queue. Required; the caller
	// owns its lifecycle and closes it after the Durable is closed. Each
	// pumped job's live feed is published into the queue's Events stream.
	Queue *queue.Queue
	// Logger receives pump lifecycle logs (nil = discard).
	Logger *slog.Logger
	// Metrics, when non-nil, receives readiness gauges and the span
	// totals of every job pumped and every done-job result rebuilt from
	// the cache; the queue's own transition metrics are configured on the
	// queue.
	Metrics *obs.Registry
	// Poll is the idle sleep between lease attempts when the queue has
	// nothing eligible. ≤ 0 means 25ms.
	Poll time.Duration
	// Sweep is the period of the lease-expiry/readiness ticker.
	// ≤ 0 means 500ms.
	Sweep time.Duration
	// OverloadHighWater is the fraction of queue capacity at which the
	// backlog counts as overload. ≤ 0 means 0.9.
	OverloadHighWater float64
	// OverloadGrace is how long overload must persist before /readyz
	// flips unready, and how long a cache-poisoning event keeps it
	// unready. ≤ 0 means 5s.
	OverloadGrace time.Duration
}

// envelope is the journaled payload of one durable job: the original
// API request plus the submission's request ID, so a recovered job can
// be rebuilt from first principles and its spans still correlate with
// the HTTP request that created it.
type envelope struct {
	Req       JobRequest `json:"req"`
	RequestID string     `json:"request_id,omitempty"`
}

// provenance is all the journal keeps of a completion: how the job ran —
// the cache layer that answered it ("" for a fresh solve) and the
// engine's runtime. The result itself lives only in the engine cache.
type provenance struct {
	CacheLayer string  `json:"cache_layer,omitempty"`
	RuntimeMS  float64 `json:"runtime_ms"`
}

// Durable pumps jobs from the write-ahead queue through the engine:
// lease, rebuild the job from its journaled request, solve+certify via
// the engine (content-addressed cache and singleflight included), and
// settle the lease as complete/fail/dead. It resolves done jobs' results
// through the engine cache, runs the lease-expiry sweep and tracks
// readiness (sustained overload, cache poisoning).
type Durable struct {
	cfg    DurableConfig
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu            sync.Mutex
	overloadSince time.Time // guarded by mu
	poisonedSeen  int64     // guarded by mu
	poisonedUntil time.Time // guarded by mu
	unreadyReason string    // guarded by mu
}

// NewDurable builds the pump and starts its workers — one lease loop per
// engine worker — and its sweep ticker. The caller must Close it before
// closing the queue or engine.
func NewDurable(cfg DurableConfig) (*Durable, error) {
	if cfg.Engine == nil || cfg.Queue == nil {
		return nil, fmt.Errorf("engine: %w: durable layer needs an engine and a queue", ErrBadConfig)
	}
	if cfg.Engine.Cache() == nil {
		return nil, fmt.Errorf("engine: %w: durable layer needs an engine with a cache to hold job results", ErrBadConfig)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 25 * time.Millisecond
	}
	if cfg.Sweep <= 0 {
		cfg.Sweep = 500 * time.Millisecond
	}
	if cfg.OverloadHighWater <= 0 {
		cfg.OverloadHighWater = 0.9
	}
	if cfg.OverloadGrace <= 0 {
		cfg.OverloadGrace = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.DiscardLogger()
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Durable{cfg: cfg, ctx: ctx, cancel: cancel}
	// Seed the poisoning watermark so pre-existing counts (a reused
	// cache dir) don't flip readiness at startup.
	d.poisonedSeen = cfg.Engine.Stats().Cache.Poisoned
	for i := 0; i < cfg.Engine.Workers(); i++ {
		d.wg.Add(1)
		go d.worker()
	}
	d.wg.Add(1)
	go d.sweeper()
	return d, nil
}

// Close stops the pump: workers finish the lease they hold, the sweep
// ticker exits. The queue and engine stay open (the caller owns them).
func (d *Durable) Close() {
	d.cancel()
	d.wg.Wait()
}

// Engine returns the underlying engine.
func (d *Durable) Engine() *Engine { return d.cfg.Engine }

// Queue returns the underlying queue.
func (d *Durable) Queue() *queue.Queue { return d.cfg.Queue }

// Enqueue validates, journals and admits one API request. Validation
// runs first so malformed requests are rejected before they cost a
// journal record; the returned job snapshot carries the durable ID the
// client polls. A full queue surfaces queue.ErrFull (the 429 path).
func (d *Durable) Enqueue(req JobRequest, requestID string) (queue.Job, error) {
	job, err := BuildJob(req)
	if err != nil {
		return queue.Job{}, err
	}
	key, err := job.Key()
	if err != nil {
		return queue.Job{}, err
	}
	payload, err := json.Marshal(envelope{Req: req, RequestID: requestID})
	if err != nil {
		return queue.Job{}, fmt.Errorf("engine: encoding job payload: %w", err)
	}
	return d.cfg.Queue.Enqueue(key.String(), payload)
}

// CachedOutcome serves a request straight from the engine's validated
// cache, bypassing the queue entirely — the degraded-mode path that
// keeps cached keys answerable while the worker pool is saturated or
// the queue is shedding, and the way Result reaches the disk and peer
// tiers.
func (d *Durable) CachedOutcome(ctx context.Context, req JobRequest) (*Outcome, bool) {
	job, err := BuildJob(req)
	if err != nil {
		return nil, false
	}
	return d.cfg.Engine.CachedOutcome(ctx, job)
}

// Result resolves a done job's result through the engine cache, the only
// store of job results: memory under the journaled key, without
// rebuilding the job; else Cache.Get for the job rebuilt from its
// journaled request, whose disk or peer entry passes restore and
// core.Certify on this read. The outcome's cache layer and runtime are
// the journaled provenance — how the job ran, not how this read found it.
// A done job whose entry is lost (absent, poisoned, stale schema, or
// evicted from a memory-only cache) is re-enqueued and returned in its
// new state without an outcome. A read cut short by ctx is no verdict on
// the entry: it re-enqueues nothing and returns ctx's error. Other jobs
// come back as they are.
func (d *Durable) Result(ctx context.Context, j queue.Job) (queue.Job, *Outcome, error) {
	if j.State != queue.StateDone {
		return j, nil, nil
	}
	if out, ok := d.lookup(ctx, j); ok {
		// An undecodable note (a journal from before results left the
		// queue) reads as a fresh solve of unknown runtime.
		var p provenance
		json.Unmarshal(j.Provenance, &p)
		out.CacheHit, out.CacheLayer = p.CacheLayer != "", p.CacheLayer
		out.Runtime = time.Duration(math.Round(p.RuntimeMS*1000)) * time.Microsecond
		return j, out, nil
	}
	if err := ctx.Err(); err != nil {
		return j, nil, fmt.Errorf("engine: resolving job %s: %w", j.ID, err)
	}
	requeued, err := d.cfg.Queue.Requeue(j.ID, "result lost from the cache; re-running")
	if err != nil {
		return j, nil, err
	}
	d.cfg.Logger.Warn("done job re-enqueued: result lost from the cache", "id", j.ID, "key", j.Key)
	return requeued, nil, nil
}

// lookup finds a done job's outcome in the engine cache: memory under
// the journaled key, then every layer for the job rebuilt from its
// journaled request, traced under its own queue.result root like the
// pump's jobs. A payload that no longer builds is a miss; the
// re-enqueued job then dead-letters in the pump.
func (d *Durable) lookup(ctx context.Context, j queue.Job) (*Outcome, bool) {
	if key, err := ParseKey(j.Key); err == nil {
		if out, ok := d.cfg.Engine.Cache().Memory(key); ok {
			return out, true
		}
	}
	var env envelope
	if err := json.Unmarshal(j.Payload, &env); err != nil {
		return nil, false
	}
	tr := obs.New("queue.result")
	defer d.cfg.Metrics.Fold(tr)
	return d.CachedOutcome(obs.WithTracer(ctx, tr), env.Req)
}

// Saturated reports whether every engine worker slot is busy.
func (d *Durable) Saturated() bool { return d.cfg.Engine.Saturated() }

// Ready reports whether the service should accept new work, with a
// human-readable reason when it should not. Unready states: the queue
// is closed or crashed, the backlog has been above the high-water mark
// for longer than the grace period, or the cache reported poisoned
// entries within the grace window.
func (d *Durable) Ready() (bool, string) {
	if err := d.cfg.Queue.Err(); err != nil {
		return false, "queue unavailable: " + err.Error()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.unreadyReason != "" {
		return false, d.unreadyReason
	}
	return true, ""
}

// worker is one pump goroutine: lease, process, settle, repeat.
func (d *Durable) worker() {
	defer d.wg.Done()
	for {
		j, ok, err := d.cfg.Queue.Lease()
		switch {
		case err != nil:
			// Closed or crashed queue: the pump has nothing left to do.
			d.cfg.Logger.Error("queue lease failed, pump stopping", "err", err)
			return
		case !ok:
			select {
			case <-d.ctx.Done():
				return
			case <-time.After(d.cfg.Poll):
			}
			continue
		}
		d.process(j)
		select {
		case <-d.ctx.Done():
			return
		default:
		}
	}
}

// process drives one leased job through the engine and settles it.
// Failure routing: payloads that no longer decode or build are
// deterministic failures and go straight to the dead letter (Kill);
// solve errors consume one attempt and retry with backoff (Fail);
// anything uncertified is refused — a job settles done only once the
// engine cache holds a result the certifier passed. The completion
// journals provenance only. The job is traced by a tracer of its own,
// rooted at queue.job, whose hook feeds the job's SSE frames; on return
// its spans fold into the metrics totals and the tree is dropped.
func (d *Durable) process(j queue.Job) {
	tr := obs.NewWithHook("queue.job", feed(d.cfg.Queue.Events(), j.ID))
	defer d.cfg.Metrics.Fold(tr)
	sp, ctx := tr.Root(), obs.WithTracer(d.ctx, tr)
	sp.Attr("id", j.ID)
	sp.Attr("attempt", fmt.Sprintf("%d", j.Attempts+1))

	var env envelope
	if err := json.Unmarshal(j.Payload, &env); err != nil {
		d.settleDead(sp, j, fmt.Errorf("engine: undecodable job payload: %w", err))
		return
	}
	if env.RequestID != "" {
		sp.Attr("request_id", env.RequestID)
	}
	job, err := BuildJob(env.Req)
	if err != nil {
		d.settleDead(sp, j, err)
		return
	}
	key, _ := job.Key()
	sp.Attr("key", key.Short())

	out, err := d.cfg.Engine.Do(ctx, job)
	switch {
	case err != nil && d.ctx.Err() != nil:
		// Shutdown cut the solve; leave the lease to expire so the next
		// process re-runs the job instead of burning its retry budget.
		sp.Fail(err)
	case err != nil:
		d.settleFail(sp, j, err)
	case !out.Summary().Certified:
		d.settleFail(sp, j, fmt.Errorf("engine: job %s produced an uncertified result", j.ID))
	default:
		note, merr := json.Marshal(provenance{
			CacheLayer: out.CacheLayer,
			RuntimeMS:  float64(out.Runtime.Microseconds()) / 1000,
		})
		if merr != nil {
			d.settleFail(sp, j, fmt.Errorf("engine: encoding provenance: %w", merr))
			return
		}
		if cerr := d.cfg.Queue.Complete(j.ID, j.Lease, note); cerr != nil {
			// A stale lease here means the job expired mid-solve and was
			// handed to someone else; the engine cache already holds the
			// result, so the retry collapses onto it.
			sp.Event("complete rejected: " + cerr.Error())
			d.cfg.Logger.Warn("completion rejected", "id", j.ID, "err", cerr)
			return
		}
		sp.Add("completed", 1)
		d.cfg.Logger.Info("job done", "id", j.ID, "key", key.Short(), "attempt", j.Attempts+1)
	}
}

func (d *Durable) settleFail(sp *obs.Span, j queue.Job, cause error) {
	sp.Fail(cause)
	if err := d.cfg.Queue.Fail(j.ID, j.Lease, cause); err != nil {
		sp.Event("fail rejected: " + err.Error())
	}
	d.cfg.Logger.Warn("job attempt failed", "id", j.ID, "attempt", j.Attempts+1, "err", cause)
}

func (d *Durable) settleDead(sp *obs.Span, j queue.Job, cause error) {
	sp.Fail(cause)
	if err := d.cfg.Queue.Kill(j.ID, j.Lease, cause); err != nil {
		sp.Event("kill rejected: " + err.Error())
	}
	d.cfg.Logger.Warn("job dead-lettered", "id", j.ID, "err", cause)
}

// sweeper periodically expires stale leases and re-evaluates the
// readiness conditions.
func (d *Durable) sweeper() {
	defer d.wg.Done()
	tick := time.NewTicker(d.cfg.Sweep)
	defer tick.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-tick.C:
		}
		if n, err := d.cfg.Queue.ExpireLeases(); err != nil {
			d.cfg.Logger.Error("lease sweep failed, pump stopping", "err", err)
			return
		} else if n > 0 {
			d.cfg.Logger.Warn("expired leases requeued", "count", n)
		}
		d.updateReadiness()
	}
}

// updateReadiness samples the overload and poisoning signals. Overload
// must persist across a full grace period before readiness flips, so a
// burst that drains quickly never takes the instance out of rotation.
func (d *Durable) updateReadiness() {
	now := time.Now()
	st := d.cfg.Queue.Stats()
	overloaded := st.Capacity > 0 && float64(st.Depth) >= d.cfg.OverloadHighWater*float64(st.Capacity)
	poisoned := d.cfg.Engine.Stats().Cache.Poisoned

	d.mu.Lock()
	defer d.mu.Unlock()
	if overloaded {
		if d.overloadSince.IsZero() {
			d.overloadSince = now
		}
	} else {
		d.overloadSince = time.Time{}
	}
	if poisoned > d.poisonedSeen {
		d.poisonedSeen = poisoned
		d.poisonedUntil = now.Add(d.cfg.OverloadGrace)
	}
	switch {
	case !d.overloadSince.IsZero() && now.Sub(d.overloadSince) >= d.cfg.OverloadGrace:
		d.unreadyReason = fmt.Sprintf("sustained overload: depth %d of capacity %d for %v",
			st.Depth, st.Capacity, now.Sub(d.overloadSince).Round(time.Millisecond))
	case now.Before(d.poisonedUntil):
		d.unreadyReason = "cache poisoning detected"
	default:
		d.unreadyReason = ""
	}
	d.cfg.Metrics.Set("relatch_serve_ready", boolGauge(d.unreadyReason == ""))
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

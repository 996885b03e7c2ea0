// Package queue is the durable job queue behind the retiming service:
// a write-ahead journal of submit/lease/complete/fail transitions over
// an in-memory lease/retry state machine. Restarting a process on the
// same directory replays the journal and recovers every queued and
// in-flight job — in-flight leases are returned to the queue — so a
// crash loses no accepted work. Workers take time-bounded leases
// guarded by fencing tokens; an expired lease re-queues the job with an
// attempt counter and exponential backoff with jitter, and a job that
// exhausts its retry budget lands in a dead-letter state that stays
// inspectable instead of vanishing. A bounded capacity sheds load with
// ErrFull so overload degrades into explicit backpressure, never into
// unbounded memory growth.
//
// The queue stores opaque payloads; the engine layer journals the
// original API request, which is what makes recovery possible — a
// replayed submit rebuilds the job from first principles and re-runs
// the full solve+certify pipeline, so nothing restored is served
// uncertified. A done job keeps its state and an opaque provenance note
// of how it ran, never its result: results live in the engine's cache,
// and a done job whose result was lost goes back to the queue through
// Requeue.
package queue

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"relatch/internal/obs"
)

// Sentinel errors for the queue's failure modes.
var (
	// ErrFull rejects an Enqueue beyond Capacity (load shedding).
	ErrFull = errors.New("queue full")
	// ErrStaleLease rejects a transition carrying a lease token that no
	// longer owns the job — the double-delivery guard.
	ErrStaleLease = errors.New("stale lease")
	// ErrCorrupt marks unrecoverable journal damage (anything beyond a
	// torn final frame).
	ErrCorrupt = errors.New("journal corrupt")
	// ErrClosed rejects operations after Close.
	ErrClosed = errors.New("queue closed")
	// ErrCrashed marks a queue whose journal append failed; the
	// in-memory state can no longer be trusted to match disk, so every
	// later operation is refused (the process-restart analogue in
	// tests and the chaos harness).
	ErrCrashed = errors.New("queue crashed")
	// ErrNoJob rejects transitions on unknown job IDs.
	ErrNoJob = errors.New("no such job")
	// ErrLocked rejects opening a queue directory that another live
	// process (or this one) already owns.
	ErrLocked = errors.New("queue dir locked")
)

// State is a job's position in the queue lifecycle.
type State int

// Job states. StateQueued covers both ready jobs and jobs waiting out a
// retry backoff; String renders the latter as "retrying".
const (
	StateQueued State = iota
	StateLeased
	StateDone
	StateDead
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateLeased:
		return "leased"
	case StateDone:
		return "done"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Job is a caller-visible snapshot of one queued unit of work.
type Job struct {
	ID      string
	Key     string
	Payload json.RawMessage

	State       State
	Attempts    int
	MaxAttempts int
	LastError   string
	NextRetry   time.Time
	LeaseExpiry time.Time
	Lease       uint64
	// Provenance is the opaque note the settling worker journaled with
	// the done transition (nil until the job is done).
	Provenance json.RawMessage
	EnqueuedAt time.Time
	// LeasedAt is when the current lease was taken (zero when not
	// leased, and after a restart replay — recovered leases are requeued
	// anyway). It feeds the lease-hold histogram on settlement.
	LeasedAt time.Time
}

// StatusAt renders the lifecycle state for displays: a queued job still
// waiting out its backoff reads "retrying".
func (j Job) StatusAt(now time.Time) string {
	if j.State == StateQueued && j.Attempts > 0 && j.NextRetry.After(now) {
		return "retrying"
	}
	return j.State.String()
}

// job is the internal mutable record behind a Job snapshot.
type job struct {
	Job
}

// Config configures a queue.
type Config struct {
	// Dir is the journal directory; "" runs the queue memory-only (no
	// durability, same semantics otherwise).
	Dir string
	// Capacity bounds live (queued + leased) jobs; Enqueue beyond it
	// returns ErrFull. ≤ 0 means 1024.
	Capacity int
	// LeaseTTL bounds one lease; an expired lease re-queues the job.
	// ≤ 0 means 2 minutes.
	LeaseTTL time.Duration
	// MaxAttempts is the per-job retry budget; the attempt that exhausts
	// it moves the job to the dead-letter state. ≤ 0 means 5.
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the exponential retry delay
	// (base·2^(attempt−1), capped, ±20% jitter). ≤ 0 means 250ms / 1m.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxSegmentBytes triggers journal compaction; ≤ 0 means 4 MiB.
	MaxSegmentBytes int64
	// RetainTerminal bounds how many done/dead jobs stay inspectable;
	// ≤ 0 means 1024.
	RetainTerminal int
	// Metrics, when non-nil, receives relatch_queue_* counters on every
	// transition, plus the lease-hold and retry-delay histograms. The
	// point-in-time counts are Stats, read at scrape time.
	Metrics *obs.Registry
	// Events, when non-nil, receives a "stage" StreamEvent (scope =
	// job ID) on every lifecycle transition: queued, leased, done,
	// retrying, dead. Published under the queue lock, so subscribers
	// observe stages in state-machine order; the stream itself never
	// blocks (drop-oldest ring), so a slow SSE client cannot stall a
	// transition.
	Events *obs.Stream
	// Clock and Jitter are injectable for tests (defaults: time.Now and
	// math/rand).
	Clock  func() time.Time
	Jitter func() float64
	// AppendHook, when non-nil, runs before every journal append; an
	// error simulates a crash at that record boundary: the append never
	// happens, the operation fails, and the queue refuses further work
	// with ErrCrashed. Exists for the fault-injection harness.
	AppendHook func(recType string, seq uint64) error
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 250 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Minute
	}
	if c.MaxSegmentBytes <= 0 {
		c.MaxSegmentBytes = 4 << 20
	}
	if c.RetainTerminal <= 0 {
		c.RetainTerminal = 1024
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Jitter == nil {
		c.Jitter = rand.Float64
	}
	return c
}

// Stats is a point-in-time snapshot of queue activity.
type Stats struct {
	Queued   int `json:"queued"`
	Retrying int `json:"retrying"`
	Leased   int `json:"leased"`
	Done     int `json:"done"`
	Dead     int `json:"dead"`
	// Depth is the backlog the admission controller sheds on:
	// queued + retrying + leased.
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// openDirs guards against two queues in one process sharing a journal
// directory; cross-process sharing is refused via the pid lock file.
var (
	openDirsMu sync.Mutex
	openDirs   = map[string]bool{} // guarded by openDirsMu
)

// Queue is the durable job queue. All methods are safe for concurrent
// use.
type Queue struct {
	cfg Config
	// hLeaseHold / hRetryDelay are set once in Open (before the queue is
	// shared) and immutable after; their record path is lock-free.
	hLeaseHold  *obs.Histogram
	hRetryDelay *obs.Histogram

	mu      sync.Mutex
	j       *journal        // guarded by mu (nil when memory-only)
	unlock  func()          // guarded by mu
	jobs    map[string]*job // guarded by mu
	order   []string        // guarded by mu (submission order)
	nextID  uint64          // guarded by mu
	nextSeq uint64          // guarded by mu
	closed  bool            // guarded by mu
	crashed error           // guarded by mu
}

// Open builds a queue over dir, replaying any existing journal. Leased
// jobs found in the journal — work that was in flight when the previous
// process died — return to the queue with their attempt counter bumped,
// so a job that keeps killing its worker still exhausts a budget
// instead of crash-looping forever.
func Open(cfg Config) (*Queue, error) {
	cfg = cfg.withDefaults()
	q := &Queue{cfg: cfg, jobs: make(map[string]*job)}
	q.hLeaseHold = cfg.Metrics.Histogram("relatch_queue_lease_hold_seconds")
	q.hRetryDelay = cfg.Metrics.Histogram("relatch_queue_retry_delay_seconds")
	if cfg.Dir == "" {
		return q, nil
	}
	unlock, err := acquireLock(cfg.Dir)
	if err != nil {
		return nil, err
	}
	j, recs, err := openJournal(cfg.Dir, cfg.MaxSegmentBytes)
	if err != nil {
		unlock()
		return nil, err
	}
	q.j, q.unlock = j, unlock
	q.replay(recs)
	q.nextSeq = j.lastSeq
	// Journal the recovery of every job that was leased at crash time,
	// so a second replay sees the requeue instead of re-bumping it.
	for _, id := range q.order {
		jb := q.jobs[id]
		if jb.State != StateLeased {
			continue
		}
		jb.State = StateQueued
		jb.Attempts++
		jb.LastError = "recovered: lease cut by restart"
		jb.NextRetry = time.Time{}
		jb.LeaseExpiry = time.Time{}
		cfg.Metrics.Add(`relatch_queue_jobs_total{event="recovered"}`, 1)
		if jb.Attempts >= jb.MaxAttempts {
			if err := q.markDeadLocked(jb, jb.Attempts, jb.LastError); err != nil {
				q.closeLocked()
				return nil, err
			}
			continue
		}
		if err := q.appendLocked(record{
			Type: "recover", ID: jb.ID, Attempts: jb.Attempts, Error: jb.LastError,
		}); err != nil {
			q.closeLocked()
			return nil, err
		}
	}
	if err := q.maybeCompactLocked(); err != nil {
		q.closeLocked()
		return nil, err
	}
	return q, nil
}

// replay rebuilds the in-memory state from journal records.
//
//relint:ignore guardedby -- replay runs only from Open before the Queue is published; no other goroutine can observe the fields yet, so locking would be pure overhead
func (q *Queue) replay(recs []record) {
	for _, r := range recs {
		switch r.Type {
		case "submit", "snap":
			jb, known := q.jobs[r.ID]
			if !known {
				jb = &job{}
				q.jobs[r.ID] = jb
				q.order = append(q.order, r.ID)
			}
			jb.ID, jb.Key, jb.Payload = r.ID, r.Key, r.Payload
			jb.MaxAttempts = r.MaxAttempts
			jb.EnqueuedAt = time.Unix(0, r.EnqueuedNS)
			if r.Type == "snap" {
				jb.State = parseState(r.State)
				jb.Attempts = r.Attempts
				jb.LastError = r.Error
				jb.Lease = r.Lease
				jb.Provenance = r.Provenance
				if r.NextRetNS > 0 {
					jb.NextRetry = time.Unix(0, r.NextRetNS)
				}
				if r.ExpiryNS > 0 {
					jb.LeaseExpiry = time.Unix(0, r.ExpiryNS)
				}
			} else {
				jb.State = StateQueued
			}
			if n := idNumber(r.ID); n > q.nextID {
				q.nextID = n
			}
		case "lease":
			if jb, ok := q.jobs[r.ID]; ok {
				jb.State = StateLeased
				jb.Lease = r.Lease
				jb.LeaseExpiry = time.Unix(0, r.ExpiryNS)
			}
		case "complete":
			if jb, ok := q.jobs[r.ID]; ok {
				jb.State = StateDone
				jb.Provenance = r.Provenance
				jb.LastError = ""
				jb.Lease, jb.LeaseExpiry = 0, time.Time{}
			}
		case "fail", "recover":
			if jb, ok := q.jobs[r.ID]; ok {
				jb.State = StateQueued
				jb.Attempts = r.Attempts
				jb.LastError = r.Error
				jb.Lease = 0
				jb.LeaseExpiry = time.Time{}
				jb.Provenance = nil
				if r.NextRetNS > 0 {
					jb.NextRetry = time.Unix(0, r.NextRetNS)
				} else {
					jb.NextRetry = time.Time{}
				}
			}
		case "dead":
			if jb, ok := q.jobs[r.ID]; ok {
				jb.State = StateDead
				jb.LastError = r.Error
				jb.Attempts = r.Attempts
				jb.Lease, jb.LeaseExpiry = 0, time.Time{}
			}
		}
	}
}

func parseState(s string) State {
	switch s {
	case "leased":
		return StateLeased
	case "done":
		return StateDone
	case "dead":
		return StateDead
	}
	return StateQueued
}

func idNumber(id string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "q-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// Close releases the journal and directory lock. Safe to call twice.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closeLocked()
}

func (q *Queue) closeLocked() error {
	if q.closed {
		return nil
	}
	q.closed = true
	err := q.j.close()
	if q.unlock != nil {
		q.unlock()
	}
	return err
}

// guardLocked refuses operations on closed or crashed queues.
func (q *Queue) guardLocked() error {
	if q.closed {
		return fmt.Errorf("queue: %w", ErrClosed)
	}
	if q.crashed != nil {
		return fmt.Errorf("queue: %w: %v", ErrCrashed, q.crashed)
	}
	return nil
}

// appendLocked assigns the next sequence number and journals one
// record (no-op memory-only). An AppendHook error or write failure
// poisons the queue: state and disk may diverge, so nothing further is
// accepted.
func (q *Queue) appendLocked(r record) error {
	//relint:ignore journalfirst -- this IS the append primitive: the seq must be assigned before the record carrying it is written, and a failed write poisons the queue (ErrCrashed), so memory and disk can never silently diverge
	q.nextSeq++
	r.Seq = q.nextSeq
	if q.cfg.AppendHook != nil {
		if err := q.cfg.AppendHook(r.Type, r.Seq); err != nil {
			q.crashed = err
			return fmt.Errorf("queue: journal append (%s %s): %w", r.Type, r.ID, err)
		}
	}
	if q.j == nil {
		return nil
	}
	if err := q.j.append(r); err != nil {
		q.crashed = err
		return err
	}
	return nil
}

// maybeCompactLocked rotates the journal once the active segment
// outgrows its budget. It must run only after the in-memory state has
// absorbed the latest transition: the compaction snapshot replaces the
// old segments, so snapshotting before the mutation would erase the
// record that was just written.
func (q *Queue) maybeCompactLocked() error {
	if q.j == nil || !q.j.shouldCompact() {
		return nil
	}
	if err := q.j.compact(q.snapshotLocked()); err != nil {
		q.crashed = err
		return err
	}
	return nil
}

// snapshotLocked renders every retained job as a snap record for
// compaction.
func (q *Queue) snapshotLocked() []record {
	snaps := make([]record, 0, len(q.order))
	for _, id := range q.order {
		jb := q.jobs[id]
		q.nextSeq++
		snaps = append(snaps, record{
			Seq: q.nextSeq, Type: "snap", ID: jb.ID, Key: jb.Key,
			Payload: jb.Payload, MaxAttempts: jb.MaxAttempts,
			EnqueuedNS: jb.EnqueuedAt.UnixNano(), State: jb.State.String(),
			Attempts: jb.Attempts, Error: jb.LastError, Lease: jb.Lease,
			ExpiryNS: nanosOrZero(jb.LeaseExpiry), NextRetNS: nanosOrZero(jb.NextRetry),
			Provenance: jb.Provenance,
		})
	}
	return snaps
}

func nanosOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// liveLocked counts jobs occupying capacity.
func (q *Queue) liveLocked() int {
	n := 0
	for _, id := range q.order {
		if s := q.jobs[id].State; s == StateQueued || s == StateLeased {
			n++
		}
	}
	return n
}

// Enqueue journals and admits one job, returning its snapshot. A full
// queue sheds the submission with ErrFull — the caller turns that into
// 429 + Retry-After.
func (q *Queue) Enqueue(key string, payload []byte) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.guardLocked(); err != nil {
		return Job{}, err
	}
	if q.liveLocked() >= q.cfg.Capacity {
		q.cfg.Metrics.Add(`relatch_queue_jobs_total{event="shed"}`, 1)
		return Job{}, fmt.Errorf("queue: %w: %d live jobs at capacity %d", ErrFull, q.liveLocked(), q.cfg.Capacity)
	}
	nextID := q.nextID + 1
	jb := &job{Job: Job{
		ID:          fmt.Sprintf("q-%08d", nextID),
		Key:         key,
		Payload:     append(json.RawMessage(nil), payload...),
		State:       StateQueued,
		MaxAttempts: q.cfg.MaxAttempts,
		EnqueuedAt:  q.cfg.Clock(),
	}}
	// Journal first: the job is owed to the client only once the submit
	// record is durable, which is why the HTTP 202 may trust it. The ID
	// counter is speculative in a local until then, so a failed append
	// needs no rollback.
	if err := q.appendLocked(record{
		Type: "submit", ID: jb.ID, Key: key, Payload: jb.Payload,
		MaxAttempts: jb.MaxAttempts, EnqueuedNS: jb.EnqueuedAt.UnixNano(),
	}); err != nil {
		return Job{}, err
	}
	q.nextID = nextID
	q.jobs[jb.ID] = jb
	q.order = append(q.order, jb.ID)
	q.cfg.Metrics.Add(`relatch_queue_jobs_total{event="enqueued"}`, 1)
	q.publishStageLocked(jb.ID, "queued")
	if err := q.maybeCompactLocked(); err != nil {
		return Job{}, err
	}
	return jb.Job, nil
}

// publishStageLocked emits one lifecycle stage event for live (SSE)
// consumers. Publishing while q.mu is held serializes the stage stream
// with the state machine — a subscriber can never see "leased" before
// "queued" — and stays safe because Stream.Publish never blocks.
func (q *Queue) publishStageLocked(id, stage string) {
	q.cfg.Events.Publish(obs.StreamEvent{Kind: "stage", Scope: id, Name: stage})
}

// Lease hands the oldest eligible job to a worker under a TTL-bounded,
// token-fenced lease. The boolean is false when nothing is eligible
// (empty queue or every queued job still waiting out its backoff).
func (q *Queue) Lease() (Job, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.guardLocked(); err != nil {
		return Job{}, false, err
	}
	now := q.cfg.Clock()
	for _, id := range q.order {
		jb := q.jobs[id]
		if jb.State != StateQueued || jb.NextRetry.After(now) {
			continue
		}
		//relint:ignore journalfirst -- lease tokens ride the sequence space (unique, monotonic); a burned seq is harmless on its own and a failed append below poisons the queue anyway
		q.nextSeq++
		tok := q.nextSeq
		expiry := now.Add(q.cfg.LeaseTTL)
		if err := q.appendLocked(record{
			Type: "lease", ID: jb.ID, Lease: tok, ExpiryNS: expiry.UnixNano(),
		}); err != nil {
			return Job{}, false, err
		}
		jb.State = StateLeased
		jb.Lease = tok
		jb.LeaseExpiry = expiry
		jb.LeasedAt = now
		q.cfg.Metrics.Add(`relatch_queue_jobs_total{event="leased"}`, 1)
		q.publishStageLocked(jb.ID, "leased")
		if err := q.maybeCompactLocked(); err != nil {
			return Job{}, false, err
		}
		return jb.Job, true, nil
	}
	return Job{}, false, nil
}

// checkLeaseLocked resolves a transition's job and fences its token.
func (q *Queue) checkLeaseLocked(id string, lease uint64) (*job, error) {
	jb, ok := q.jobs[id]
	if !ok {
		return nil, fmt.Errorf("queue: %w: %s", ErrNoJob, id)
	}
	if jb.State != StateLeased || jb.Lease != lease {
		return nil, fmt.Errorf("queue: %w: job %s is %s under lease %d, caller holds %d",
			ErrStaleLease, id, jb.State, jb.Lease, lease)
	}
	return jb, nil
}

// Complete settles a leased job as done with its provenance note. A
// stale lease token — the job expired and was handed to another worker,
// or was already settled — is rejected, which is what keeps duplicate
// deliveries from settling a job twice.
func (q *Queue) Complete(id string, lease uint64, provenance []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.guardLocked(); err != nil {
		return err
	}
	jb, err := q.checkLeaseLocked(id, lease)
	if err != nil {
		return err
	}
	note := append(json.RawMessage(nil), provenance...)
	if err := q.appendLocked(record{Type: "complete", ID: id, Provenance: note}); err != nil {
		return err
	}
	jb.State = StateDone
	jb.Provenance = note
	jb.LastError = ""
	jb.Lease, jb.LeaseExpiry = 0, time.Time{}
	q.observeLeaseHoldLocked(jb)
	q.cfg.Metrics.Add(`relatch_queue_jobs_total{event="completed"}`, 1)
	q.publishStageLocked(jb.ID, "done")
	q.trimTerminalLocked()
	return q.maybeCompactLocked()
}

// Requeue returns a done job to the queue because its result can no
// longer be produced — the engine lost the job's cache entry. It is
// journaled as a recover record, so replay needs no case of its own. It
// is not an attempt (the count and the retry budget are untouched) and
// capacity never sheds it, since the job was accepted long ago. A job
// that is no longer done — another caller requeued it first — is left
// alone, so one loss re-runs the job once. It returns the job's snapshot
// as the call left it.
func (q *Queue) Requeue(id, cause string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.guardLocked(); err != nil {
		return Job{}, err
	}
	jb, ok := q.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("queue: %w: %s", ErrNoJob, id)
	}
	if jb.State != StateDone {
		return jb.Job, nil
	}
	if err := q.appendLocked(record{
		Type: "recover", ID: id, Attempts: jb.Attempts, Error: cause,
	}); err != nil {
		return Job{}, err
	}
	jb.State = StateQueued
	jb.LastError = cause
	jb.NextRetry = time.Time{}
	jb.Provenance = nil
	q.cfg.Metrics.Add(`relatch_queue_jobs_total{event="requeued"}`, 1)
	q.publishStageLocked(id, "queued")
	return jb.Job, q.maybeCompactLocked()
}

// observeLeaseHoldLocked records how long the settling worker held its
// lease and clears the mark. Replay-recovered jobs carry a zero
// LeasedAt and record nothing.
func (q *Queue) observeLeaseHoldLocked(jb *job) {
	if jb.LeasedAt.IsZero() {
		return
	}
	q.hLeaseHold.Observe(q.cfg.Clock().Sub(jb.LeasedAt))
	jb.LeasedAt = time.Time{}
}

// Fail settles a leased attempt as failed: the job re-queues with
// backoff until its budget is spent, then moves to the dead letter.
func (q *Queue) Fail(id string, lease uint64, cause error) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.guardLocked(); err != nil {
		return err
	}
	jb, err := q.checkLeaseLocked(id, lease)
	if err != nil {
		return err
	}
	return q.failLocked(jb, errString(cause))
}

// Kill settles a leased job straight into the dead-letter state, for
// errors that are deterministic (a payload that no longer builds) and
// would only burn the retry budget.
func (q *Queue) Kill(id string, lease uint64, cause error) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.guardLocked(); err != nil {
		return err
	}
	jb, err := q.checkLeaseLocked(id, lease)
	if err != nil {
		return err
	}
	return q.markDeadLocked(jb, jb.Attempts+1, errString(cause))
}

// failLocked applies one failed attempt: retry with backoff or dead.
// The attempt count advances in a local until the fail record is
// durable (write-ahead contract).
func (q *Queue) failLocked(jb *job, cause string) error {
	attempts := jb.Attempts + 1
	if attempts >= jb.MaxAttempts {
		return q.markDeadLocked(jb, attempts, cause)
	}
	delay := q.backoff(attempts)
	next := q.cfg.Clock().Add(delay)
	if err := q.appendLocked(record{
		Type: "fail", ID: jb.ID, Attempts: attempts, Error: cause,
		NextRetNS: next.UnixNano(),
	}); err != nil {
		return err
	}
	jb.Attempts = attempts
	jb.State = StateQueued
	jb.LastError = cause
	jb.NextRetry = next
	jb.Lease, jb.LeaseExpiry = 0, time.Time{}
	q.observeLeaseHoldLocked(jb)
	q.hRetryDelay.Observe(delay)
	q.cfg.Metrics.Add("relatch_queue_retries_total", 1)
	q.publishStageLocked(jb.ID, "retrying")
	return q.maybeCompactLocked()
}

// markDeadLocked journals and applies the dead-letter transition.
// attempts is the count the dead record should carry; it lands on the
// job only after the record is durable (write-ahead contract).
func (q *Queue) markDeadLocked(jb *job, attempts int, cause string) error {
	if err := q.appendLocked(record{
		Type: "dead", ID: jb.ID, Attempts: attempts, Error: cause,
	}); err != nil {
		return err
	}
	jb.Attempts = attempts
	jb.State = StateDead
	jb.LastError = cause
	jb.Lease, jb.LeaseExpiry = 0, time.Time{}
	q.observeLeaseHoldLocked(jb)
	q.cfg.Metrics.Add("relatch_queue_dead_total", 1)
	q.publishStageLocked(jb.ID, "dead")
	q.trimTerminalLocked()
	return q.maybeCompactLocked()
}

// backoff computes the jittered exponential retry delay for an attempt.
func (q *Queue) backoff(attempt int) time.Duration {
	d := q.cfg.BaseBackoff
	for i := 1; i < attempt && d < q.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > q.cfg.MaxBackoff {
		d = q.cfg.MaxBackoff
	}
	// ±20% jitter decorrelates retry storms after a shared failure.
	return time.Duration(float64(d) * (0.8 + 0.4*q.cfg.Jitter()))
}

// ExpireLeases sweeps leases past their TTL, re-queueing (or
// dead-lettering) the jobs as failed attempts. It returns how many
// leases expired.
func (q *Queue) ExpireLeases() (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.guardLocked(); err != nil {
		return 0, err
	}
	now := q.cfg.Clock()
	expired := 0
	for _, id := range q.order {
		jb := q.jobs[id]
		if jb.State != StateLeased || jb.LeaseExpiry.After(now) {
			continue
		}
		expired++
		q.cfg.Metrics.Add("relatch_queue_lease_expired_total", 1)
		if err := q.failLocked(jb, fmt.Sprintf("lease expired after %v", q.cfg.LeaseTTL)); err != nil {
			return expired, err
		}
	}
	return expired, nil
}

// trimTerminalLocked drops the oldest terminal jobs beyond the
// retention bound so the inspection surface stays bounded too.
func (q *Queue) trimTerminalLocked() {
	terminal := 0
	for _, id := range q.order {
		if s := q.jobs[id].State; s == StateDone || s == StateDead {
			terminal++
		}
	}
	if terminal <= q.cfg.RetainTerminal {
		return
	}
	keep := q.order[:0]
	for _, id := range q.order {
		s := q.jobs[id].State
		if (s == StateDone || s == StateDead) && terminal > q.cfg.RetainTerminal {
			terminal--
			delete(q.jobs, id)
			continue
		}
		keep = append(keep, id)
	}
	q.order = keep
}

// Get returns a job snapshot by ID.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	jb, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return jb.Job, true
}

// Jobs lists every retained job in submission order.
func (q *Queue) Jobs() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.jobs[id].Job)
	}
	return out
}

// Err reports the queue's ability to accept transitions: nil when
// healthy, a wrapped ErrClosed or ErrCrashed otherwise.
func (q *Queue) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.guardLocked()
}

// Full reports whether the next Enqueue would shed.
func (q *Queue) Full() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.liveLocked() >= q.cfg.Capacity
}

// Now returns the queue's clock reading, so callers render "retrying"
// consistently with the queue's own backoff decisions.
func (q *Queue) Now() time.Time { return q.cfg.Clock() }

// Stats returns a snapshot of the queue's per-state job counts. The
// cumulative transition counts live in Config.Metrics.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	var s Stats
	now := q.cfg.Clock()
	for _, id := range q.order {
		jb := q.jobs[id]
		switch jb.State {
		case StateQueued:
			if jb.Attempts > 0 && jb.NextRetry.After(now) {
				s.Retrying++
			} else {
				s.Queued++
			}
		case StateLeased:
			s.Leased++
		case StateDone:
			s.Done++
		case StateDead:
			s.Dead++
		}
	}
	s.Depth = s.Queued + s.Retrying + s.Leased
	s.Capacity = q.cfg.Capacity
	return s
}

func errString(err error) string {
	if err == nil {
		return "unspecified failure"
	}
	return err.Error()
}

// acquireLock takes the queue directory's single-writer lock: an
// in-process registry catches two queues over one dir in the same
// process, and a pid file refuses a directory another live process
// owns. A lock left behind by a SIGKILLed process is stolen, which is
// what lets a crashed service restart on its own queue dir.
func acquireLock(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("queue: lock dir: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("queue: lock dir: %w", err)
	}
	openDirsMu.Lock()
	if openDirs[abs] {
		openDirsMu.Unlock()
		return nil, fmt.Errorf("queue: %w: %s is already open in this process", ErrLocked, dir)
	}
	openDirs[abs] = true
	openDirsMu.Unlock()
	release := func() {
		openDirsMu.Lock()
		delete(openDirs, abs)
		openDirsMu.Unlock()
	}

	path := filepath.Join(dir, "queue.lock")
	for tries := 0; tries < 3; tries++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return func() {
				os.Remove(path)
				release()
			}, nil
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // raced with another unlock; retry the create
			}
			release()
			return nil, fmt.Errorf("queue: reading lock: %w", rerr)
		}
		pid, _ := strconv.Atoi(strings.TrimSpace(string(raw)))
		if pid > 0 && pid != os.Getpid() && pidAlive(pid) {
			release()
			return nil, fmt.Errorf("queue: %w: %s held by running process %d", ErrLocked, dir, pid)
		}
		os.Remove(path) // stale lock from a dead process: steal it
	}
	release()
	return nil, fmt.Errorf("queue: %w: could not acquire lock on %s", ErrLocked, dir)
}

// pidAlive reports whether a process with the pid exists.
func pidAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	return p.Signal(syscall.Signal(0)) == nil
}

package queue

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"relatch/internal/obs"
)

// fakeClock is an injectable, advanceable time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func openTest(t *testing.T, cfg Config) *Queue {
	t.Helper()
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

func TestLifecycleQueuedLeasedDone(t *testing.T) {
	q := openTest(t, Config{})
	j, err := q.Enqueue("key-a", []byte(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.State != StateQueued {
		t.Fatalf("enqueue snapshot = %+v", j)
	}

	leased, ok, err := q.Lease()
	if err != nil || !ok || leased.ID != j.ID || leased.Lease == 0 {
		t.Fatalf("lease = %+v ok=%v err=%v", leased, ok, err)
	}
	if _, ok, _ := q.Lease(); ok {
		t.Fatal("leased the same job twice")
	}
	if err := q.Complete(leased.ID, leased.Lease, []byte(`{"done":true}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := q.Get(j.ID)
	if !ok || got.State != StateDone || string(got.Provenance) != `{"done":true}` {
		t.Fatalf("done job = %+v", got)
	}
	st := q.Stats()
	if st.Done != 1 || st.Completed != 1 || st.Depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryBackoffThenDead(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	q := openTest(t, Config{
		MaxAttempts: 3, BaseBackoff: time.Second, MaxBackoff: 10 * time.Second,
		Clock: clk.Now, Jitter: func() float64 { return 0.5 }, Metrics: reg,
	})
	j, err := q.Enqueue("key-a", nil)
	if err != nil {
		t.Fatal(err)
	}

	for attempt := 1; attempt <= 2; attempt++ {
		leased, ok, err := q.Lease()
		if err != nil || !ok {
			t.Fatalf("attempt %d: lease ok=%v err=%v", attempt, ok, err)
		}
		if err := q.Fail(leased.ID, leased.Lease, errors.New("solver exploded")); err != nil {
			t.Fatal(err)
		}
		got, _ := q.Get(j.ID)
		if got.Attempts != attempt || got.LastError != "solver exploded" {
			t.Fatalf("attempt %d: job = %+v", attempt, got)
		}
		if got.StatusAt(clk.Now()) != "retrying" {
			t.Fatalf("attempt %d: status %q, want retrying", attempt, got.StatusAt(clk.Now()))
		}
		// Backoff gates the next lease until the clock passes NextRetry.
		if _, ok, _ := q.Lease(); ok {
			t.Fatalf("attempt %d: leased before backoff elapsed", attempt)
		}
		clk.Advance(got.NextRetry.Sub(clk.Now()) + time.Millisecond)
	}

	// Third failure exhausts the budget: dead letter, not another retry.
	leased, ok, err := q.Lease()
	if err != nil || !ok {
		t.Fatalf("final lease ok=%v err=%v", ok, err)
	}
	if err := q.Fail(leased.ID, leased.Lease, errors.New("still broken")); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(j.ID)
	if got.State != StateDead || got.Attempts != 3 {
		t.Fatalf("dead job = %+v", got)
	}
	if n := reg.Counter("relatch_queue_dead_total"); n != 1 {
		t.Errorf("dead_total = %d", n)
	}
	if n := reg.Counter("relatch_queue_retries_total"); n != 2 {
		t.Errorf("retries_total = %d", n)
	}
}

func TestBackoffGrowsExponentiallyWithCap(t *testing.T) {
	q := openTest(t, Config{
		BaseBackoff: time.Second, MaxBackoff: 4 * time.Second,
		Jitter: func() float64 { return 0.5 }, // neutral jitter: ×1.0
	})
	for attempt, want := range map[int]time.Duration{
		1: time.Second, 2: 2 * time.Second, 3: 4 * time.Second, 5: 4 * time.Second,
	} {
		if got := q.backoff(attempt); got != want {
			t.Errorf("backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
}

func TestCapacitySheds(t *testing.T) {
	q := openTest(t, Config{Capacity: 2})
	for i := 0; i < 2; i++ {
		if _, err := q.Enqueue(fmt.Sprintf("k%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Enqueue("k2", nil); !errors.Is(err, ErrFull) {
		t.Fatalf("overflow enqueue err = %v, want ErrFull", err)
	}
	if !q.Full() {
		t.Error("Full() = false at capacity")
	}
	if st := q.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d", st.Shed)
	}
	// Completing a job frees a slot.
	leased, _, _ := q.Lease()
	if err := q.Complete(leased.ID, leased.Lease, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("k2", nil); err != nil {
		t.Fatalf("enqueue after drain: %v", err)
	}
}

func TestLeaseExpiryRequeuesWithFencing(t *testing.T) {
	clk := newFakeClock()
	q := openTest(t, Config{LeaseTTL: time.Minute, MaxAttempts: 5, BaseBackoff: time.Millisecond, Clock: clk.Now})
	if _, err := q.Enqueue("k", nil); err != nil {
		t.Fatal(err)
	}
	first, ok, _ := q.Lease()
	if !ok {
		t.Fatal("no lease")
	}
	clk.Advance(2 * time.Minute)
	n, err := q.ExpireLeases()
	if err != nil || n != 1 {
		t.Fatalf("expired %d leases, err %v", n, err)
	}
	// The slow worker's completion with the cut lease must be fenced out.
	if err := q.Complete(first.ID, first.Lease, nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale complete err = %v, want ErrStaleLease", err)
	}
	clk.Advance(time.Second)
	second, ok, _ := q.Lease()
	if !ok || second.ID != first.ID || second.Lease == first.Lease || second.Attempts != 1 {
		t.Fatalf("re-lease = %+v ok=%v (first lease %d)", second, ok, first.Lease)
	}
	if err := q.Complete(second.ID, second.Lease, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Settling a done job again (duplicate delivery) is also fenced.
	if err := q.Complete(second.ID, second.Lease, []byte("again")); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("double complete err = %v, want ErrStaleLease", err)
	}
}

func TestReopenRecoversQueuedAndLeased(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := q.Enqueue("key-a", []byte("pa"))
	b, _ := q.Enqueue("key-b", []byte("pb"))
	c, _ := q.Enqueue("key-c", []byte("pc"))
	leased, ok, _ := q.Lease() // a goes in flight
	if !ok || leased.ID != a.ID {
		t.Fatalf("lease = %+v", leased)
	}
	done, ok, _ := q.Lease() // b completes
	if !ok || done.ID != b.ID {
		t.Fatalf("lease = %+v", done)
	}
	if err := q.Complete(done.ID, done.Lease, []byte("rb")); err != nil {
		t.Fatal(err)
	}
	q.Close() // simulated crash: the leased job never settles

	q2 := openTest(t, Config{Dir: dir})
	ra, ok := q2.Get(a.ID)
	if !ok || ra.State != StateQueued || ra.Attempts != 1 || ra.Key != "key-a" {
		t.Fatalf("recovered in-flight job = %+v", ra)
	}
	rb, ok := q2.Get(b.ID)
	if !ok || rb.State != StateDone || string(rb.Provenance) != "rb" {
		t.Fatalf("recovered done job = %+v", rb)
	}
	rc, ok := q2.Get(c.ID)
	if !ok || rc.State != StateQueued || rc.Attempts != 0 || string(rc.Payload) != "pc" {
		t.Fatalf("recovered queued job = %+v", rc)
	}
	if st := q2.Stats(); st.Recovered != 1 {
		t.Errorf("recovered = %d", st.Recovered)
	}
	// New IDs continue past the recovered ones.
	d, err := q2.Enqueue("key-d", nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID <= c.ID {
		t.Errorf("new ID %s does not extend recovered sequence (last %s)", d.ID, c.ID)
	}
}

// TestReopenSnapshotsMatchLive: replay rebuilds exactly the state the
// live transitions left — no lease token or expiry survives a settled
// job — for a done, a retrying, a dead, a requeued and a queued job.
func TestReopenSnapshotsMatchLive(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cfg := Config{Dir: dir, BaseBackoff: time.Minute, Clock: clk.Now, Jitter: func() float64 { return 0.5 }}
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := q.Enqueue(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	lease := func() Job {
		t.Helper()
		j, ok, err := q.Lease()
		if err != nil || !ok {
			t.Fatalf("lease ok=%v err=%v", ok, err)
		}
		return j
	}
	done := lease()
	if err := q.Complete(done.ID, done.Lease, []byte(`{"cache_layer":"disk"}`)); err != nil {
		t.Fatal(err)
	}
	retrying := lease()
	if err := q.Fail(retrying.ID, retrying.Lease, errors.New("hiccup")); err != nil {
		t.Fatal(err)
	}
	dead := lease()
	if err := q.Kill(dead.ID, dead.Lease, errors.New("unbuildable")); err != nil {
		t.Fatal(err)
	}
	requeued := lease()
	if err := q.Complete(requeued.ID, requeued.Lease, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Requeue(requeued.ID, "result lost"); err != nil {
		t.Fatal(err)
	}
	live := q.Jobs()
	q.Close()

	replayed := openTest(t, cfg).Jobs()
	if len(replayed) != len(live) {
		t.Fatalf("reopen holds %d jobs, live queue held %d", len(replayed), len(live))
	}
	for i := range live {
		if !reflect.DeepEqual(replayed[i], live[i]) {
			t.Errorf("job %s after reopen:\n got %+v\nwant %+v", live[i].ID, replayed[i], live[i])
		}
	}
}

// TestRequeueReturnsDoneJobOnce: a done job whose result was lost goes
// back to the queue once — no attempt burned, not shed at capacity, a
// queued stage and a counter — and only a done job moves.
func TestRequeueReturnsDoneJobOnce(t *testing.T) {
	reg := obs.NewRegistry()
	stream := obs.NewStream(16)
	q := openTest(t, Config{Dir: t.TempDir(), Capacity: 1, Metrics: reg, Events: stream})
	j, err := q.Enqueue("k", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	leased, _, _ := q.Lease()
	if err := q.Complete(leased.ID, leased.Lease, []byte(`{"cache_layer":"memory"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("filler", nil); err != nil {
		t.Fatal(err)
	}
	sub, err := stream.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// The queue is at capacity; the requeue is owed work, not a new
	// admission, so it is never shed.
	got, err := q.Requeue(j.ID, "result lost")
	if err != nil {
		t.Fatal(err)
	}
	if now, _ := q.Get(j.ID); !reflect.DeepEqual(now, got) {
		t.Fatalf("Requeue returned %+v, queue holds %+v", got, now)
	}
	if got.State != StateQueued || got.Attempts != 0 || got.LastError != "result lost" || got.Provenance != nil {
		t.Fatalf("requeued job = %+v", got)
	}
	if stages := drainStages(t, sub, j.ID, 1); stages[0] != "queued" {
		t.Fatalf("requeue published %v, want queued", stages)
	}
	if n := reg.Counter(`relatch_queue_jobs_total{event="requeued"}`); n != 1 {
		t.Errorf("requeued counter = %d, want 1", n)
	}
	// A second caller that saw the job done before the first requeue
	// finds it queued and leaves it alone.
	if again, err := q.Requeue(j.ID, "result lost"); err != nil || again.State != StateQueued {
		t.Fatalf("second requeue: %+v, %v", again, err)
	}
	if n := reg.Counter(`relatch_queue_jobs_total{event="requeued"}`); n != 1 {
		t.Errorf("second requeue of a queued job counted: %d", n)
	}
	if _, err := q.Requeue("q-99999999", "lost"); !errors.Is(err, ErrNoJob) {
		t.Errorf("requeue of an unknown job err = %v, want ErrNoJob", err)
	}
}

func TestReopenToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := q.Enqueue("key-a", nil)
	b, _ := q.Enqueue("key-b", nil)
	q.Close()

	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	// Tear the last frame mid-payload, as a crash mid-append would.
	info, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], info.Size()-5); err != nil {
		t.Fatal(err)
	}

	q2 := openTest(t, Config{Dir: dir})
	if _, ok := q2.Get(a.ID); !ok {
		t.Fatal("first (fully journaled) job lost")
	}
	if _, ok := q2.Get(b.ID); ok {
		t.Fatal("torn-tail job resurrected from a partial record")
	}
	// The truncated journal accepts appends again.
	if _, err := q2.Enqueue("key-c", nil); err != nil {
		t.Fatal(err)
	}
}

func TestReopenRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue("key-a", []byte("aaaaaaaa"))
	q.Enqueue("key-b", []byte("bbbbbbbb"))
	q.Close()

	segs, _ := Segments(dir)
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first record's payload: committed history
	// no longer matches its CRC and there are valid frames after it.
	raw[frameHeader+4] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open err = %v, want ErrCorrupt", err)
	}
}

func TestReopenRejectsInsaneFrameLength(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue("key-a", nil)
	q.Enqueue("key-b", nil)
	q.Close()

	segs, _ := Segments(dir)
	raw, _ := os.ReadFile(segs[0])
	binary.LittleEndian.PutUint32(raw, uint32(maxRecordBytes+1))
	os.WriteFile(segs[0], raw, 0o644)
	if _, err := Open(Config{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open err = %v, want ErrCorrupt", err)
	}
}

func TestCompactionRotatesAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir, MaxSegmentBytes: 512, RetainTerminal: 4})
	if err != nil {
		t.Fatal(err)
	}
	var last Job
	for i := 0; i < 40; i++ {
		j, err := q.Enqueue(fmt.Sprintf("key-%02d", i), []byte(`{"payload":"xxxxxxxxxxxxxxxx"}`))
		if err != nil {
			t.Fatal(err)
		}
		leased, ok, _ := q.Lease()
		if !ok {
			t.Fatal("no lease")
		}
		if err := q.Complete(leased.ID, leased.Lease, []byte("r")); err != nil {
			t.Fatal(err)
		}
		last = j
	}
	segs, _ := Segments(dir)
	if len(segs) != 1 {
		t.Fatalf("compaction left %d segments: %v", len(segs), segs)
	}
	q.Close()

	q2 := openTest(t, Config{Dir: dir, MaxSegmentBytes: 512, RetainTerminal: 4})
	jobs := q2.Jobs()
	if len(jobs) > 8 {
		t.Fatalf("retention kept %d terminal jobs", len(jobs))
	}
	got, ok := q2.Get(last.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("latest job after compaction+reopen = %+v ok=%v", got, ok)
	}
}

func TestSecondOpenSameProcessRefused(t *testing.T) {
	dir := t.TempDir()
	q := openTest(t, Config{Dir: dir})
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("second open of a locked dir succeeded")
	}
	q.Close()
	// After a clean close the dir opens again.
	q2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	q2.Close()
}

func TestStaleLockFromDeadProcessStolen(t *testing.T) {
	dir := t.TempDir()
	// Fabricate a lock from a pid that cannot be running.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/queue.lock", []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("stale lock not stolen: %v", err)
	}
	q.Close()
}

func TestAppendHookCrashPoisonsQueue(t *testing.T) {
	calls := 0
	q := openTest(t, Config{AppendHook: func(string, uint64) error {
		calls++
		if calls > 1 {
			return errors.New("simulated crash")
		}
		return nil
	}})
	if _, err := q.Enqueue("k1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("k2", nil); err == nil {
		t.Fatal("append past the crash point succeeded")
	}
	// The queue is poisoned: nothing else is accepted.
	if _, _, err := q.Lease(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash lease err = %v, want ErrCrashed", err)
	}
	if _, err := q.Enqueue("k3", nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash enqueue err = %v, want ErrCrashed", err)
	}
}

func TestKillGoesStraightToDead(t *testing.T) {
	q := openTest(t, Config{MaxAttempts: 5})
	j, _ := q.Enqueue("k", nil)
	leased, _, _ := q.Lease()
	if err := q.Kill(leased.ID, leased.Lease, errors.New("request no longer builds")); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(j.ID)
	if got.State != StateDead || got.LastError != "request no longer builds" {
		t.Fatalf("killed job = %+v", got)
	}
}

func TestUnknownJobAndClosedQueue(t *testing.T) {
	q := openTest(t, Config{})
	if err := q.Complete("q-99999999", 1, nil); !errors.Is(err, ErrNoJob) {
		t.Fatalf("unknown complete err = %v", err)
	}
	q.Close()
	if _, err := q.Enqueue("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed enqueue err = %v", err)
	}
}

package engine

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"runtime"
	"testing"
	"time"

	"relatch/internal/queue"
)

// waitSettled polls the queue until the job is done or dead.
func waitSettled(t *testing.T, q *queue.Queue, id string) queue.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s vanished from the queue", id)
		}
		if j.State == queue.StateDone || j.State == queue.StateDead {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// journalRequest journals a submission the way a previous process would
// have — no pump ever saw it — and returns its queue snapshot.
func journalRequest(t *testing.T, qdir string, req JobRequest) queue.Job {
	t.Helper()
	q, err := queue.Open(queue.Config{Dir: qdir})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	payload, err := json.Marshal(envelope{Req: req, RequestID: "restart-test"})
	if err != nil {
		t.Fatal(err)
	}
	_, key := jobAndKey(t, req)
	j, err := q.Enqueue(key.String(), payload)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// settleOnDisk runs req to done on a durable stack over a journal and a
// cache directory, then stops the stack as a restart would, leaving the
// done job in the journal and its result in the cache.
func settleOnDisk(t *testing.T, qdir, cdir string, req JobRequest) queue.Job {
	t.Helper()
	q, err := queue.Open(queue.Config{Dir: qdir})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	eng := New(Config{Workers: 1, Cache: mustCache(t, 8, cdir)})
	defer eng.Close()
	d, err := NewDurable(DurableConfig{Engine: eng, Queue: q, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	j, err := d.Enqueue(req, "settle")
	if err != nil {
		t.Fatal(err)
	}
	if got := waitSettled(t, q, j.ID); got.State != queue.StateDone {
		t.Fatalf("job ended %s (%s)", got.State, got.LastError)
	}
	j, _ = q.Get(j.ID)
	return j
}

// restartOn brings up a fresh serving stack over the journal and cache
// directories a previous process left behind.
func restartOn(t *testing.T, qdir, cdir string) *testStack {
	t.Helper()
	return newTestStack(t, func(cfg *Config, qcfg *queue.Config, _ *DurableConfig) {
		cfg.Cache = mustCache(t, 8, cdir)
		qcfg.Dir = qdir
	})
}

// TestDurableRecoversJournaledJobs is the restart story end to end:
// jobs journaled by a previous process (no pump ever saw them) are
// picked up by a fresh durable layer and driven to a certified result.
func TestDurableRecoversJournaledJobs(t *testing.T) {
	qdir := t.TempDir()
	j := journalRequest(t, qdir, JobRequest{Verilog: testSource, Approach: "grar"})

	st := restartOn(t, qdir, t.TempDir())
	got := waitSettled(t, st.q, j.ID)
	if got.State != queue.StateDone {
		t.Fatalf("recovered job ended %s (%s)", got.State, got.LastError)
	}
	_, out, err := st.d.Result(context.Background(), got)
	if err != nil || out == nil {
		t.Fatalf("recovered job has no result: out=%v err=%v", out, err)
	}
	if sum := out.Summary(); !sum.Certified || sum.Slaves <= 0 {
		t.Fatalf("recovered result not certified: %+v", sum)
	}
}

// TestForgedCompleteRecordServesCertifiedResult: a journal whose
// complete record carries a result (a forged row here, in the layout
// journals had before results left the queue) replays, but the row is
// never served — GET /jobs/{id} answers with the result the cache
// certifies, which for this fixture means re-running the job.
func TestForgedCompleteRecordServesCertifiedResult(t *testing.T) {
	qdir, cdir := t.TempDir(), t.TempDir()
	req := JobRequest{Verilog: testSource, Approach: "grar"}
	j := journalRequest(t, qdir, req)

	forged, err := json.Marshal(map[string]any{
		"result":     Summary{Approach: "g-rar", Circuit: "forged", Slaves: 1, Certified: true},
		"runtime_ms": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(map[string]any{"seq": 1000, "type": "complete", "id": j.ID, "result": forged})
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 8, 8+len(rec))
	binary.LittleEndian.PutUint32(frame, uint32(len(rec)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(rec))
	segs, err := queue.Segments(qdir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frame, rec...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	eng := New(Config{Workers: 1})
	defer eng.Close()
	job, _ := jobAndKey(t, req)
	fresh, err := eng.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Summary()

	ts, _ := newTestServer(t, func(cfg *Config, qcfg *queue.Config, _ *DurableConfig) {
		cfg.Cache = mustCache(t, 8, cdir)
		qcfg.Dir = qdir
	})
	got := pollDone(t, ts, j.ID)
	if got.Status != "done" || got.Result == nil {
		t.Fatalf("job ended %q without a result: %+v", got.Status, got)
	}
	if stripVolatile(*got.Result) != stripVolatile(want) {
		t.Fatalf("served %+v, want the certified %+v", *got.Result, want)
	}
}

// TestDurableRequeuesLostResult: after a restart, a done job whose cache
// entry is missing, poisoned or from another schema version is
// re-enqueued once — no attempt burned — and answered with a certified
// result only after it has run again, never from anywhere else.
func TestDurableRequeuesLostResult(t *testing.T) {
	req := JobRequest{Verilog: testSource, Approach: "grar"}
	_, key := jobAndKey(t, req)
	for _, tc := range []struct {
		name string
		lose func(path string) error
	}{
		{"missing", os.Remove},
		{"poisoned", func(path string) error { return os.WriteFile(path, []byte("{torn"), 0o644) }},
		{"stale-schema", func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			var e map[string]any
			if err := json.Unmarshal(raw, &e); err != nil {
				return err
			}
			e["schema_version"] = entrySchemaVersion + 1
			if raw, err = json.Marshal(e); err != nil {
				return err
			}
			return os.WriteFile(path, raw, 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qdir, cdir := t.TempDir(), t.TempDir()
			done := settleOnDisk(t, qdir, cdir, req)
			if err := tc.lose(mustCache(t, 1, cdir).EntryPath(key)); err != nil {
				t.Fatal(err)
			}

			st := restartOn(t, qdir, cdir)
			j, out, err := st.d.Result(context.Background(), done)
			if err != nil || out != nil || j.State != queue.StateQueued {
				t.Fatalf("lost result: state %s, outcome %v, err %v; want the job re-enqueued", j.State, out, err)
			}
			again := waitSettled(t, st.q, done.ID)
			if again.State != queue.StateDone || again.Attempts != done.Attempts {
				t.Fatalf("re-run ended %s after %d attempts (%s), want done after %d",
					again.State, again.Attempts, again.LastError, done.Attempts)
			}
			_, out, err = st.d.Result(context.Background(), again)
			if err != nil || out == nil {
				t.Fatalf("re-run job has no result: %v", err)
			}
			if sum := out.Summary(); !sum.Certified || sum.CacheHit {
				t.Fatalf("re-run result = %+v, want a fresh certified solve", sum)
			}
			if n := st.metrics.Counter(`relatch_queue_jobs_total{event="requeued"}`); n != 1 {
				t.Errorf("requeued counter = %d, want 1", n)
			}
		})
	}
}

// TestDurableResultCancelledReadKeepsJobDone: a read cut short by its
// own context is no verdict on the cache entry — the job stays done and
// the next read restores and certifies the entry from disk.
func TestDurableResultCancelledReadKeepsJobDone(t *testing.T) {
	qdir, cdir := t.TempDir(), t.TempDir()
	done := settleOnDisk(t, qdir, cdir, JobRequest{Verilog: testSource, Approach: "grar"})
	st := restartOn(t, qdir, cdir)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, out, err := st.d.Result(cancelled, done); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("cancelled read: outcome %v, err %v; want context.Canceled", out, err)
	}
	if j, _ := st.q.Get(done.ID); j.State != queue.StateDone {
		t.Fatalf("cancelled read moved the job to %s", j.State)
	}
	_, out, err := st.d.Result(context.Background(), done)
	if err != nil || out == nil || !out.Summary().Certified {
		t.Fatalf("next read: outcome %v, err %v; want the certified disk entry", out, err)
	}
	if cs := st.eng.Stats().Cache; cs.DiskHits != 1 || cs.Poisoned != 0 {
		t.Errorf("cache stats = %+v, want one disk hit and no poisoning", cs)
	}
}

// TestDurableResultMemoryHitSkipsRebuild: a done job whose outcome is
// resident resolves under its journaled key without rebuilding the job —
// even a journaled request that no longer builds resolves — and reports
// how the job ran, not how the read found it.
func TestDurableResultMemoryHitSkipsRebuild(t *testing.T) {
	st := newTestStack(t, nil)
	job, key := jobAndKey(t, JobRequest{Verilog: testSource, Approach: "grar"})
	if _, err := st.eng.Do(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	done := queue.Job{
		ID: "q-00000001", Key: key.String(), State: queue.StateDone,
		Payload: []byte("not a request"), Provenance: []byte(`{"runtime_ms":12.5}`),
	}
	_, out, err := st.d.Result(context.Background(), done)
	if err != nil || out == nil || !out.Summary().Certified {
		t.Fatalf("memory-resident result: outcome %v, err %v", out, err)
	}
	if out.CacheHit || out.CacheLayer != "" || out.Runtime != 12500*time.Microsecond {
		t.Errorf("outcome hit=%v layer=%q runtime=%v, want the journaled fresh solve of 12.5ms",
			out.CacheHit, out.CacheLayer, out.Runtime)
	}
}

// TestNewDurableRequiresCache: the cache is the only store of job
// results, so a durable layer over a cacheless engine is refused.
func TestNewDurableRequiresCache(t *testing.T) {
	q, err := queue.Open(queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	eng := New(Config{Workers: 1})
	defer eng.Close()
	if _, err := NewDurable(DurableConfig{Engine: eng, Queue: q}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("durable layer over a cacheless engine: err = %v, want ErrBadConfig", err)
	}
}

// TestDurableDuplicateDeliveryCollapses proves the at-least-once queue
// composes with the content-addressed engine into effectively-once
// work: two deliveries of the same request settle as two done jobs but
// only one solve happens.
func TestDurableDuplicateDeliveryCollapses(t *testing.T) {
	q, err := queue.Open(queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	eng := New(Config{Workers: 2, Cache: mustCache(t, 8, "")})
	defer eng.Close()
	d, err := NewDurable(DurableConfig{Engine: eng, Queue: q, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	req := JobRequest{Verilog: testSource, Approach: "grar"}
	j1, err := d.Enqueue(req, "dup-1")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := d.Enqueue(req, "dup-2")
	if err != nil {
		t.Fatal(err)
	}
	if j1.Key != j2.Key {
		t.Fatalf("identical requests got different keys: %s vs %s", j1.Key, j2.Key)
	}
	for _, id := range []string{j1.ID, j2.ID} {
		if got := waitSettled(t, q, id); got.State != queue.StateDone {
			t.Fatalf("job %s ended %s (%s)", id, got.State, got.LastError)
		}
	}
	st := eng.Stats()
	collapsed := st.Deduplicated + st.Cache.Hits + st.Cache.DiskHits
	if st.Submitted != 2 || collapsed < 1 {
		t.Fatalf("duplicate delivery did not collapse: %+v", st)
	}
}

// TestDurableKillsUnbuildableJobs: a journaled payload that no longer
// decodes is a deterministic failure — it goes straight to the dead
// letter instead of burning retries.
func TestDurableKillsUnbuildableJobs(t *testing.T) {
	q, err := queue.Open(queue.Config{MaxAttempts: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	eng := New(Config{Workers: 1, Cache: mustCache(t, 8, "")})
	defer eng.Close()
	d, err := NewDurable(DurableConfig{Engine: eng, Queue: q, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	j, err := q.Enqueue("bogus-key", []byte(`{"req":{"approach":"warp"}}`))
	if err != nil {
		t.Fatal(err)
	}
	got := waitSettled(t, q, j.ID)
	if got.State != queue.StateDead || got.Attempts != 1 {
		t.Fatalf("unbuildable job = %+v", got)
	}
}

// TestServeKeepsNothingOfFinishedJobs pumps warm G-RAR jobs through the
// serving stack and requires a flat heap: a settled job's trace lives
// on only as per-name metric totals, and the queue keeps a bounded
// number of terminal jobs.
func TestServeKeepsNothingOfFinishedJobs(t *testing.T) {
	st := newTestStack(t, func(_ *Config, qcfg *queue.Config, _ *DurableConfig) {
		qcfg.RetainTerminal = 8
	})
	req := JobRequest{Verilog: testSource, Approach: "grar"}
	run := func(n int) {
		for i := 0; i < n; i++ {
			j, err := st.d.Enqueue(req, "")
			if err != nil {
				t.Fatal(err)
			}
			if j := waitSettled(t, st.q, j.ID); j.State != queue.StateDone {
				t.Fatalf("job %s ended %s", j.ID, j.State)
			}
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	run(100)
	before := heap()
	const more = 400
	run(more)
	grown := heap() - before
	t.Logf("heap grew %d B over %d finished jobs (%d B/job)", grown, more, grown/more)
	if grown/more >= 500 {
		t.Fatalf("heap grew %d B/job, want under 500 B/job", grown/more)
	}
}

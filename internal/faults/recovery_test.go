package faults

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"relatch/internal/engine"
	"relatch/internal/queue"
)

// TestCrashRecoveryProperty is the durability acceptance property: for
// every crash point between journal records, every job the queue
// accepted before the crash is driven to done (with a certified
// result) or dead by a restarted engine — never lost. The crash is
// injected via the queue's AppendHook, which kills the journal exactly
// at a record boundary; the restart replays the surviving records. Each
// crash point also runs with the cache directory deleted before the
// restart: done jobs whose results went with it must re-run, not
// vanish or be answered from anywhere else.
func TestCrashRecoveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is slow")
	}
	// Distinct pivot limits give each request a distinct content key, so
	// recovery has real per-job work to account for.
	requests := make([]engine.JobRequest, 4)
	for i := range requests {
		requests[i] = engine.JobRequest{Verilog: goodSource, Approach: "grar", PivotLimit: i + 1}
	}
	// Crash after N journal appends, for every N up to the 12 records a
	// crash-free run writes (a submit, a lease and a complete per job;
	// the pump interleaves its records with the submit burst, which is
	// part of the point). Late crash points leave done jobs behind, whose
	// results the cache-lost variant takes away.
	for crashAfter := 1; crashAfter <= 3*len(requests); crashAfter++ {
		for _, cacheLost := range []bool{false, true} {
			name := fmt.Sprintf("crash-after-%d-records", crashAfter)
			if cacheLost {
				name += "-cache-lost"
			}
			t.Run(name, func(t *testing.T) {
				qdir, cdir := t.TempDir(), t.TempDir()
				accepted := crashPhase(t, qdir, cdir, requests, crashAfter)
				if cacheLost {
					if err := os.RemoveAll(cdir); err != nil {
						t.Fatal(err)
					}
				}
				recoverPhase(t, qdir, cdir, accepted)
			})
		}
	}
}

// durableStack wires an engine with a disk cache and a durable pump over
// an open queue; stop halts the pump, then the engine.
func durableStack(t *testing.T, q *queue.Queue, cdir string) (d *engine.Durable, stop func()) {
	t.Helper()
	cache, err := engine.NewCache(0, cdir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Cache: cache})
	d, err = engine.NewDurable(engine.DurableConfig{
		Engine: eng, Queue: q, Poll: time.Millisecond, Sweep: time.Millisecond,
	})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	return d, func() {
		d.Close()
		eng.Close()
	}
}

// crashPhase runs a serving stack against a journal that dies after
// crashAfter appends, submits the requests, runs until the crash (or
// until every accepted job settled, when the crash point lies beyond the
// run), and returns the IDs the queue accepted (the jobs that are owed).
// The stack is torn down as a crashed process would leave it: without
// settling in-flight work.
func crashPhase(t *testing.T, qdir, cdir string, requests []engine.JobRequest, crashAfter int) []string {
	t.Helper()
	appends := 0
	q, err := queue.Open(queue.Config{
		Dir:         qdir,
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		AppendHook: func(recType string, seq uint64) error {
			appends++
			if appends > crashAfter {
				return fmt.Errorf("injected crash before record %d", seq)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	d, stop := durableStack(t, q, cdir)
	defer stop()

	var accepted []string
	for _, req := range requests {
		j, err := d.Enqueue(req, "crash-test")
		if err != nil {
			// The crash hit this submit (or an earlier pump transition):
			// the record never became durable, so the job was never owed.
			break
		}
		accepted = append(accepted, j.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for q.Err() == nil && !settled(q, accepted) {
		if time.Now().After(deadline) {
			t.Fatal("crash phase neither crashed nor settled its jobs")
		}
		time.Sleep(time.Millisecond)
	}
	return accepted
}

// settled reports whether every listed job is done or dead.
func settled(q *queue.Queue, ids []string) bool {
	for _, id := range ids {
		if j, _ := q.Get(id); j.State != queue.StateDone && j.State != queue.StateDead {
			return false
		}
	}
	return true
}

// recoverPhase restarts on the journal and cache dirs and asserts every
// accepted job settles as done, with a certified result resolved
// through the durable layer, or dead.
func recoverPhase(t *testing.T, qdir, cdir string, accepted []string) {
	t.Helper()
	q, err := queue.Open(queue.Config{Dir: qdir, MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer q.Close()
	d, stop := durableStack(t, q, cdir)
	defer stop()

	deadline := time.Now().Add(60 * time.Second)
	for _, id := range accepted {
		for {
			j, ok := q.Get(id)
			if !ok {
				t.Fatalf("accepted job %s lost across the crash", id)
			}
			// A done job whose result was lost comes back re-enqueued and
			// is polled again until it has re-run.
			j, out, err := d.Result(context.Background(), j)
			if err != nil {
				t.Fatalf("resolving job %s: %v", id, err)
			}
			if out != nil {
				if sum := out.Summary(); !sum.Certified {
					t.Fatalf("job %s served uncertified after recovery: %+v", id, sum)
				}
				break
			}
			if j.State == queue.StateDead {
				break // retry budget exhausted is a legal terminal state
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s after recovery", id, j.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

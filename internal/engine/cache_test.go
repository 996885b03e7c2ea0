package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"relatch/internal/obs"
)

func mustCache(t *testing.T, capacity int, dir string) *Cache {
	t.Helper()
	c, err := NewCache(capacity, dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMemoryHitRunsNoSolver(t *testing.T) {
	cache := mustCache(t, 8, "")
	eng := New(Config{Workers: 2, Cache: cache})
	defer eng.Close()

	job := testJob(t, GRAR)
	cold, err := eng.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}

	// The acceptance check of the warm path: a second identical submit
	// must do zero flow-solver work — the per-request tracer would see
	// any simplex pivot or SSP augmentation the solve performed.
	tr := obs.New("warm")
	warm, err := eng.Do(obs.WithTracer(context.Background(), tr), job)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	rep := tr.Report()
	if n := rep.Sum("flow.simplex", "pivots") + rep.Sum("flow.ssp", "augmenting_paths"); n != 0 {
		t.Errorf("warm hit ran the solver: %d pivots/augmentations", n)
	}
	if !warm.CacheHit || warm.CacheLayer != "memory" {
		t.Errorf("warm outcome: hit=%v layer=%q", warm.CacheHit, warm.CacheLayer)
	}
	if stripVolatile(warm.Summary()) != stripVolatile(cold.Summary()) {
		t.Errorf("cache hit changed the result:\n cold %+v\n warm %+v", cold.Summary(), warm.Summary())
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Stores != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestDiskRoundtripAcrossEngines(t *testing.T) {
	for _, ap := range []Approach{GRAR, Base, NVL, RVL} {
		t.Run(string(ap), func(t *testing.T) {
			dir := t.TempDir()
			job := testJob(t, ap)

			eng1 := New(Config{Workers: 1, Cache: mustCache(t, 8, dir)})
			cold, err := eng1.Do(context.Background(), job)
			eng1.Close()
			if err != nil {
				t.Fatal(err)
			}

			// A fresh engine with an empty memory layer must restore the
			// entry from disk, re-validate and re-certify it.
			eng2 := New(Config{Workers: 1, Cache: mustCache(t, 8, dir)})
			defer eng2.Close()
			warm, err := eng2.Do(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.CacheHit || warm.CacheLayer != "disk" {
				t.Fatalf("warm outcome: hit=%v layer=%q", warm.CacheHit, warm.CacheLayer)
			}
			if !warm.Summary().Certified {
				t.Error("restored outcome lost its certificate")
			}
			if stripVolatile(warm.Summary()) != stripVolatile(cold.Summary()) {
				t.Errorf("disk restore changed the result:\n cold %+v\n warm %+v", cold.Summary(), warm.Summary())
			}
			// Solve provenance survives the restore for every family.
			if w, c := warm.Summary(), cold.Summary(); w.Solver != "simplex" || w.Solver != c.Solver || w.Fallback != c.Fallback {
				t.Errorf("restored solver %q fallback %v, solved with %q fallback %v", w.Solver, w.Fallback, c.Solver, c.Fallback)
			}
			if warm.Core.SolverCertified != cold.Core.SolverCertified {
				t.Errorf("restored solver certification %v, solved %v", warm.Core.SolverCertified, cold.Core.SolverCertified)
			}
			if st := eng2.Stats().Cache; st.DiskHits != 1 || st.Poisoned != 0 {
				t.Errorf("cache stats = %+v", st)
			}
		})
	}
}

func TestPoisonedEntryRecomputedNotServed(t *testing.T) {
	dir := t.TempDir()
	job := testJob(t, GRAR)
	key := mustKey(t, job)

	eng1 := New(Config{Workers: 1, Cache: mustCache(t, 8, dir)})
	if _, err := eng1.Do(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	eng1.Close()

	// Torn write: the entry is not even JSON.
	path := mustCache(t, 8, dir).EntryPath(key)
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	cache := mustCache(t, 8, dir)
	eng2 := New(Config{Workers: 1, Cache: cache})
	defer eng2.Close()
	out, err := eng2.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Error("poisoned entry was served as a cache hit")
	}
	if !out.Summary().Certified {
		t.Error("recomputed outcome not certified")
	}
	if st := cache.Stats(); st.Poisoned != 1 {
		t.Errorf("poisoned = %d, want 1", st.Poisoned)
	}
	// The recompute re-published a valid entry over the torn one.
	if _, err := cache.Probe(context.Background(), key, job); err != nil {
		t.Errorf("entry still bad after recompute: %v", err)
	}
}

// TestCancelledGetIsNotPoisoning: a lookup whose caller has gone away
// (a disconnected degraded-mode client, a shutdown mid-restore) fails
// its restore on the context, which says nothing about the entry. It
// must neither count the entry as poisoned nor delete it, on disk or
// from a peer.
func TestCancelledGetIsNotPoisoning(t *testing.T) {
	dir := t.TempDir()
	job := testJob(t, GRAR)
	key := mustKey(t, job)
	eng := New(Config{Workers: 1, Cache: mustCache(t, 8, dir)})
	if _, err := eng.Do(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cache := mustCache(t, 8, dir)
	if _, ok := cache.Get(cancelled, key, job); ok {
		t.Fatal("cancelled Get served an outcome")
	}
	if _, err := os.Stat(cache.EntryPath(key)); err != nil {
		t.Fatalf("cancelled Get removed the entry: %v", err)
	}
	if st := cache.Stats(); st.Poisoned != 0 {
		t.Errorf("cancelled Get counted poisoning: %+v", st)
	}
	if out, ok := cache.Get(context.Background(), key, job); !ok || out.CacheLayer != "disk" {
		t.Errorf("next Get: ok=%v, want a disk hit", ok)
	}

	raw, err := os.ReadFile(cache.EntryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	peered := mustCache(t, 8, "")
	peered.SetPeer(func(context.Context, string) ([]byte, error) { return raw, nil })
	if _, ok := peered.Get(cancelled, key, job); ok {
		t.Fatal("cancelled Get served a peer outcome")
	}
	if st := peered.Stats(); st.PeerRejected != 0 {
		t.Errorf("cancelled Get rejected the peer blob: %+v", st)
	}
	if out, ok := peered.Get(context.Background(), key, job); !ok || out.CacheLayer != "peer" {
		t.Errorf("next Get: ok=%v, want a peer hit", ok)
	}
}

// TestStaleSchemaIsAMiss: an entry written under another schema version
// (a cache dir kept across an upgrade) is absent for this build, not
// poisoned — counting it would flip /readyz on every upgrade.
func TestStaleSchemaIsAMiss(t *testing.T) {
	dir := t.TempDir()
	job := testJob(t, GRAR)
	key := mustKey(t, job)
	eng1 := New(Config{Workers: 1, Cache: mustCache(t, 8, dir)})
	if _, err := eng1.Do(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	eng1.Close()

	cache := mustCache(t, 8, dir)
	raw, err := os.ReadFile(cache.EntryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]interface{}
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	e["schema_version"] = entrySchemaVersion - 1
	if raw, err = json.Marshal(e); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.EntryPath(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	eng2 := New(Config{Workers: 1, Cache: cache})
	defer eng2.Close()
	out, err := eng2.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Error("stale entry was served")
	}
	if st := cache.Stats(); st.Poisoned != 0 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want one plain miss", st)
	}
	// The recompute overwrote the stale entry.
	if _, err := cache.Probe(context.Background(), key, job); err != nil {
		t.Errorf("entry not refreshed: %v", err)
	}
}

func TestTamperedClaimsRejected(t *testing.T) {
	dir := t.TempDir()
	job := testJob(t, GRAR)
	key := mustKey(t, job)

	eng1 := New(Config{Workers: 1, Cache: mustCache(t, 8, dir)})
	if _, err := eng1.Do(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	eng1.Close()

	// Well-formed JSON, wrong claim: the latch count lies. The restore
	// path re-derives the count from the placement and must notice.
	cache := mustCache(t, 8, dir)
	raw, err := os.ReadFile(cache.EntryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]interface{}
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	e["slaves"] = e["slaves"].(float64) + 1
	raw, err = json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.EntryPath(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := cache.Probe(context.Background(), key, job); err == nil {
		t.Fatal("tampered claim passed validation")
	}
	eng2 := New(Config{Workers: 1, Cache: cache})
	defer eng2.Close()
	out, err := eng2.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Error("tampered entry was served")
	}
	if st := cache.Stats(); st.Poisoned != 1 {
		t.Errorf("poisoned = %d, want 1", st.Poisoned)
	}
}

// TestConcurrentWritersNeverTearAnEntry races writers of one key with
// blobs of two sizes, as a lead's Put races a peer-tier or degraded-mode
// restore: every published entry must be one blob written whole, never
// an interleaving that the next restore would count as poisoned.
func TestConcurrentWritersNeverTearAnEntry(t *testing.T) {
	dir := t.TempDir()
	cache := mustCache(t, 8, dir)
	key, err := testJob(t, GRAR).Key()
	if err != nil {
		t.Fatal(err)
	}
	blobs := [][]byte{bytes.Repeat([]byte("a"), 256<<10), bytes.Repeat([]byte("b"), 1<<10)}
	for round := 0; round < 300; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(raw []byte) {
				defer wg.Done()
				cache.writeRaw(key, raw)
			}(blobs[w%2])
		}
		wg.Wait()
		got, err := os.ReadFile(cache.EntryPath(key))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got, blobs[0]) && !bytes.Equal(got, blobs[1]) {
			t.Fatalf("round %d published a %d-byte blob no writer wrote", round, len(got))
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("cache dir holds %d files, want the one entry (no temp file outlives its writer)", len(ents))
	}
}

func TestLRUEviction(t *testing.T) {
	cache := mustCache(t, 2, "")
	var solves int
	eng := New(Config{
		Workers: 1,
		Cache:   cache,
		SolveOverride: func(ctx context.Context, job Job) (*Outcome, error) {
			solves++
			return &Outcome{Approach: job.Approach}, nil
		},
	})
	defer eng.Close()

	jobs := make([]Job, 3)
	for i := range jobs {
		jobs[i] = testJob(t, GRAR)
		jobs[i].Options.EDLCost = 1.0 + float64(i)
		if _, err := eng.Do(context.Background(), jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Evictions != 1 || st.Stores != 3 {
		t.Fatalf("cache stats = %+v", st)
	}
	// The oldest key fell out: re-submitting it solves again; the newest
	// is still resident.
	if _, err := eng.Do(context.Background(), jobs[0]); err != nil {
		t.Fatal(err)
	}
	if solves != 4 {
		t.Errorf("evicted key not re-solved: %d solves", solves)
	}
	if _, err := eng.Do(context.Background(), jobs[2]); err != nil {
		t.Fatal(err)
	}
	if solves != 4 {
		t.Errorf("resident key re-solved: %d solves", solves)
	}
}

func TestProbeWithoutDiskLayer(t *testing.T) {
	cache := mustCache(t, 2, "")
	if cache.Dir() != "" || cache.EntryPath(Key{}) != "" {
		t.Error("memory-only cache claims a disk layer")
	}
	if _, err := cache.Probe(context.Background(), Key{}, testJob(t, GRAR)); err == nil {
		t.Error("Probe succeeded without a disk layer")
	}
}
